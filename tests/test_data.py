"""Dataset parsing, scaling, padding, fold assignment, written files."""

import ast
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FUZZ
from frnet.data import (
    DELIMITED,
    SPARSE,
    Dataset,
    ScalingRecord,
    apply_scaling,
    as_images,
    as_square_images,
    atomic_write,
    dataset_stats,
    fit_scaling,
    imbalance_ratio,
    load_dataset,
    make_folds,
    read_feature_file,
    subset,
    write_feature_file,
    write_table,
)
from frnet import data
from frnet.errors import DataError, ShapeMismatchError


def _dataset(n, positives, width=6, seed=0, name="toy"):
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    labels[:positives] = 1
    labels = rng.permutation(labels)
    return Dataset(
        name,
        tuple(f"d{i}" for i in range(n)),
        tuple(f"t{i}" for i in range(n)),
        rng.random((n, width), dtype=np.float32),
        labels,
    )


# ---------------------------------------------------------------------------
# parsing


def test_delimited_with_header_and_ids(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text(
        "drug\ttarget\tlabel\tf0\tf1\tf2\n"
        "D1\tT1\t1\t0.5\t0.25\t0\n"
        "# a comment line\n"
        "D2\tT2\t0\t1\t0.75\t0.125\n"
    )
    d = load_dataset(str(p), DELIMITED, name="mini")
    assert len(d) == 2 and d.feature_count == 3
    assert d.drug_ids == ("D1", "D2") and d.target_ids == ("T1", "T2")
    assert d.labels.tolist() == [1, 0]
    assert d.features[1].tolist() == [1.0, 0.75, 0.125]


def test_delimited_without_header_or_ids(tmp_path):
    p = tmp_path / "bare.csv"
    p.write_text("1,0.5,0.25\n0,0.75,1.0\n")
    d = load_dataset(str(p), DELIMITED)
    assert len(d) == 2 and d.feature_count == 2
    assert d.drug_ids == ("row0", "row1")
    assert d.labels.tolist() == [1, 0]


def test_rows_with_and_without_ids_do_not_mix(tmp_path):
    # the first data row decides whether every row carries ids
    p = tmp_path / "mixed.txt"
    for rows, bad in (("D1\tT1\t1\t0.5\t0.2\n0\t0.1\t0.3\n", 2),
                      ("# ids\n1\t0.5\t0.2\nD2\tT2\t0\t0.1\t0.3\n", 3)):
        p.write_text(rows)
        with pytest.raises(DataError, match=f"mixed.txt:{bad}: drug and target ids"):
            load_dataset(str(p))


def test_an_id_holding_a_tab_is_refused(tmp_path):
    # a comma-separated file can carry one, but it could not be written back as TSV
    p = tmp_path / "tabbed.csv"
    for rows, bad in (("d1,t1,1,0.5,0.25\ndrug\t7,t3,0,0.1,0.3\n", 2), ("d1,t\t1,1,0.5,0.25\n", 1)):
        p.write_text(rows)
        with pytest.raises(DataError, match=f"tabbed.csv:{bad}: a drug or target id holds a tab"):
            load_dataset(str(p))


@pytest.mark.parametrize("drug, target", [
    ("#d0", "t0"),  # read back as a comment line, so the row is lost
    (" d0", "t0"), ("d0 ", "t0"), ("d0", "\tt0"), ("d0", "t0\u00a0"),  # stripped on reading
    ("d\t0", "t0"), ("d0", "t\t0"),  # split into two fields
    ("d\x850", "t0"), ("d0", "t\n0"), ("d\r\n0", "t0"), ("d0", "t\u20280"),  # split into two lines
    ("7", "t0"), ("-1e5", "t0"), ("nan", "t0"),  # read as a row without ids
    ("", "#t0"),  # the line's leading tab is stripped and it reads as a comment
    ("d\ud8000", "t0"),  # not UTF-8 text
])
def test_a_dataset_refuses_ids_a_feature_file_cannot_carry_back(drug, target):
    with pytest.raises(DataError, match="dataset toy: row 1: "):
        Dataset("toy", ("d0", drug, "d2"), ("t0", target, "t2"),
                np.zeros((3, 2), np.float32), np.array([0, 1, 0]))


def test_ids_that_round_trip_are_kept(tmp_path):
    drugs, targets = ("d#0", "d 1", "7x", "DB00001"), ("7", "#t", "", "t\u00e9")
    d = Dataset("toy", drugs, targets, np.zeros((4, 1), np.float32), np.array([0, 1, 0, 1]))
    path = str(tmp_path / "ids.tsv")
    write_feature_file(path, d)
    back = read_feature_file(path)
    assert back.drug_ids == drugs and back.target_ids == targets


def test_a_comma_file_with_an_empty_drug_id_names_the_line(tmp_path):
    p = tmp_path / "ids.csv"
    p.write_text("d1,t1,1,0.5\n,t2,0,0.25\n")
    with pytest.raises(DataError, match="ids.csv:2: drug id '' is empty"):
        load_dataset(str(p))


def test_empty_file_is_a_parse_error(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("")
    with pytest.raises(DataError):
        load_dataset(str(p))
    p.write_text("# only comments\n\n")
    with pytest.raises(DataError):
        load_dataset(str(p))


def test_wrong_width_error_names_the_line(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1,0.5,0.25\n0,0.75\n")
    with pytest.raises(DataError) as e:
        load_dataset(str(p))
    assert "ragged.csv:2" in str(e.value)


def test_nonbinary_label_and_bad_float_errors(tmp_path):
    p = tmp_path / "label.csv"
    p.write_text("2,0.5\n")
    with pytest.raises(DataError) as e:
        load_dataset(str(p))
    assert ":1" in str(e.value)
    p.write_text("1,zebra\n")
    with pytest.raises(DataError):
        load_dataset(str(p))


def test_declared_width_is_enforced(tmp_path):
    p = tmp_path / "narrow.csv"
    p.write_text("1,0.5,0.25\n")
    with pytest.raises(DataError):
        load_dataset(str(p), feature_count=1476)


def test_missing_file_error():
    with pytest.raises(DataError):
        load_dataset("/no/such/file.tsv")


def test_sparse_zero_based(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("1 0:0.5 3:2.0\n0 1:1.5\n")
    d = load_dataset(str(p), SPARSE)
    assert d.feature_count == 4
    assert d.features.tolist() == [[0.5, 0.0, 0.0, 2.0], [0.0, 1.5, 0.0, 0.0]]
    assert d.labels.tolist() == [1, 0]


def test_sparse_one_based_fallback(tmp_path):
    # no index 0 anywhere and the top index equals the declared width
    p = tmp_path / "s1.txt"
    p.write_text("1 1:0.5 4:2.0\n0 2:1.5\n")
    d = load_dataset(str(p), SPARSE, feature_count=4)
    assert d.features.tolist() == [[0.5, 0.0, 0.0, 2.0], [0.0, 1.5, 0.0, 0.0]]


def test_sparse_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 5:1.0\n")
    with pytest.raises(DataError):
        load_dataset(str(p), SPARSE, feature_count=3)
    p.write_text("1 a:b\n")
    with pytest.raises(DataError) as e:
        load_dataset(str(p), SPARSE)
    assert "bad.txt:1" in str(e.value)
    p.write_text("1 2.0\n")
    with pytest.raises(DataError):
        load_dataset(str(p), SPARSE)


def test_sparse_index_too_large_to_allocate_is_a_data_error(tmp_path):
    # with no declared width the matrix follows the largest index
    p = tmp_path / "huge.txt"
    p.write_text("1 100000000000000000000:1\n0 1:0.5\n")
    with pytest.raises(DataError, match="huge.txt.*width 100000000000000000001"):
        load_dataset(str(p), SPARSE)


def test_unknown_format(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1,2\n")
    with pytest.raises(DataError):
        load_dataset(str(p), "parquet")
    with pytest.raises(DataError, match="'delimited-text' or 'sparse-index-value'"):
        load_dataset(str(p), "sparse")


# ---------------------------------------------------------------------------
# statistics


def test_gold_standard_imbalance_ratios():
    assert imbalance_ratio(2926, 445 * 664 - 2926) == 99.98
    assert imbalance_ratio(1476, 210 * 204 - 1476) == 28.02
    assert imbalance_ratio(635, 223 * 95 - 635) == 32.36
    assert imbalance_ratio(90, 54 * 26 - 90) == 14.6


def test_dataset_stats_and_zero_positive_error():
    d = _dataset(20, 10)
    assert dataset_stats(d) == {"pairs": 20, "positives": 10, "imbalance-ratio": 1.0}
    with pytest.raises(DataError):
        dataset_stats(_dataset(10, 0))


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset("x", ("a",), ("b",), np.array([[np.inf]]), np.array([1]))
    with pytest.raises(DataError):
        Dataset("x", ("a",), ("b",), np.array([[1.0]]), np.array([2]))
    with pytest.raises(ShapeMismatchError):
        Dataset("x", ("a",), ("b", "c"), np.array([[1.0]]), np.array([1]))


def test_subset_keeps_rows_aligned():
    d = _dataset(10, 4)
    s = subset(d, np.array([7, 2]))
    assert s.name == d.name and len(s) == 2
    assert s.drug_ids == (d.drug_ids[7], d.drug_ids[2])
    assert np.array_equal(s.features[0], d.features[7])
    assert s.labels.tolist() == [int(d.labels[7]), int(d.labels[2])]


# ---------------------------------------------------------------------------
# scaling


def test_minmax_maps_column_linearly():
    feats = np.array([[0.0], [5.0], [10.0]], dtype=np.float32)
    rec = fit_scaling(feats)
    assert apply_scaling(feats, rec).ravel().tolist() == [0.0, 0.5, 1.0]


def test_constant_column_maps_to_zero():
    feats = np.array([[3.0, 1.0], [3.0, 2.0]], dtype=np.float32)
    out = apply_scaling(feats, fit_scaling(feats))
    assert out[:, 0].tolist() == [0.0, 0.0]
    assert out[:, 1].tolist() == [0.0, 1.0]


def test_stored_record_reapplies_bit_exactly():
    rng = np.random.default_rng(21)
    feats = (rng.standard_normal((50, 7)) * 9).astype(np.float32)
    rec = fit_scaling(feats)
    a = apply_scaling(feats, rec)
    b = apply_scaling(feats.copy(), rec)
    assert a.tobytes() == b.tobytes()
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_held_out_rows_are_clipped():
    train = np.array([[0.0], [10.0]], dtype=np.float32)
    rec = fit_scaling(train)
    out = apply_scaling(np.array([[-5.0], [15.0]], dtype=np.float32), rec)
    assert out.ravel().tolist() == [0.0, 1.0]


def test_scaling_record_never_reads_held_out_fold():
    d = _dataset(50, 10, width=4, seed=3)
    plan = make_folds(d, k=5, seed=1)
    train_rows = d.features[plan.train_indices(4)]
    rec = fit_scaling(train_rows)
    # mutate a copy of the held-out fold and refit: the record cannot move
    poisoned = d.features.copy()
    poisoned[plan.test_indices(4)] = 1e6
    rec2 = fit_scaling(poisoned[plan.train_indices(4)])
    assert rec.mins.tobytes() == rec2.mins.tobytes()
    assert rec.maxs.tobytes() == rec2.maxs.tobytes()


def test_scaling_record_validation():
    with pytest.raises(DataError):
        ScalingRecord(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ShapeMismatchError):
        ScalingRecord(np.array([0.0, 1.0]), np.array([1.0]))


# ---------------------------------------------------------------------------
# padding and reshaping


def _image(vec, orientation=(211, 7)):
    # one row through as_images: [d] -> [h, w, 1]
    return as_images(np.asarray(vec, dtype=np.float32)[None, :], orientation)[0]


def test_pad_zero_vector():
    img = _image(np.zeros(1476))
    assert img.shape == (211, 7, 1)
    assert not img.any()


def test_pad_appends_single_zero_last():
    feats = np.arange(1, 1477, dtype=np.float32)
    flat = _image(feats).reshape(-1)
    assert flat[1476] == 0.0
    assert np.array_equal(flat[:1476], feats)


def test_orientation_follows_row_major_index_rule():
    feats = np.arange(1, 1477, dtype=np.float32)
    tall = _image(feats, (211, 7))
    wide = _image(feats, (7, 211))
    padded = np.concatenate([feats, [0.0]])
    rng = np.random.default_rng(2)
    for k in rng.integers(0, 1477, size=60):
        assert tall[k // 7, k % 7, 0] == padded[k]
        assert wide[k // 211, k % 211, 0] == padded[k]


def test_pad_is_injective():
    a = np.zeros(1476, dtype=np.float32)
    b = a.copy()
    b[701] = 1e-6
    assert not np.array_equal(_image(a), _image(b))


def test_pad_width_errors():
    with pytest.raises(ShapeMismatchError):
        _image(np.zeros(1475))
    with pytest.raises(ShapeMismatchError):
        as_images(np.zeros(1476, dtype=np.float32), (211, 7))
    with pytest.raises(ShapeMismatchError):
        as_images(np.zeros((2, 2, 1476), dtype=np.float32), (211, 7))


def test_as_images_matches_rowwise_pad():
    rng = np.random.default_rng(4)
    feats = rng.random((5, 48), dtype=np.float32)
    imgs = as_images(feats, (7, 7))
    assert imgs.shape == (5, 7, 7, 1)
    for i in range(5):
        assert np.array_equal(imgs[i, :, :, 0], np.append(feats[i], 0).reshape(7, 7))


def test_as_square_images():
    feats = np.arange(32, dtype=np.float32).reshape(2, 16)
    imgs = as_square_images(feats)
    assert imgs.shape == (2, 4, 4, 1)
    assert imgs[1, 0, 0, 0] == 16.0
    with pytest.raises(ShapeMismatchError):
        as_square_images(np.zeros((2, 15), dtype=np.float32))


# ---------------------------------------------------------------------------
# folds


def test_exactly_divisible_folds():
    d = _dataset(100, 20, seed=5)
    plan = make_folds(d, k=5, seed=11)
    for f in range(5):
        test = plan.test_indices(f)
        assert test.size == 20
        assert d.labels[test].sum() == 4


def test_nr_shaped_fold_counts():
    d = _dataset(1404, 90, width=4, seed=6)
    plan = make_folds(d, k=5, seed=0)
    sizes = sorted(plan.test_indices(f).size for f in range(5))
    assert sizes == [280, 281, 281, 281, 281]
    for f in range(5):
        pos = int(d.labels[plan.test_indices(f)].sum())
        assert abs(pos - 18) <= 1


def test_folds_deterministic_and_seed_sensitive():
    d = _dataset(60, 12, seed=7)
    a = make_folds(d, k=5, seed=3).assignments
    b = make_folds(d, k=5, seed=3).assignments
    c = make_folds(d, k=5, seed=4).assignments
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_folds_partition_the_dataset():
    d = _dataset(53, 11, seed=8)
    plan = make_folds(d, k=5, seed=2)
    seen = np.concatenate([plan.test_indices(f) for f in range(5)])
    assert sorted(seen.tolist()) == list(range(53))
    for f in range(5):
        overlap = set(plan.test_indices(f)) & set(plan.train_indices(f))
        assert not overlap


def test_fold_preconditions():
    with pytest.raises(DataError):
        make_folds(_dataset(20, 3), k=5)
    with pytest.raises(DataError):
        make_folds(_dataset(20, 10), k=1)
    with pytest.raises(DataError):
        make_folds(_dataset(4, 4, width=2), k=5)
    for stratified in (True, False):
        with pytest.raises(DataError, match="4 negative instances cannot stratify 5 folds"):
            make_folds(_dataset(20, 16), k=5, stratified=stratified)


def test_plain_mode_balances_sizes_only():
    d = _dataset(47, 20, seed=10)
    plan = make_folds(d, k=5, seed=1, stratified=False)
    sizes = sorted(plan.test_indices(f).size for f in range(5))
    assert sizes == [9, 9, 9, 10, 10]


# ---------------------------------------------------------------------------
# feature files


def test_feature_file_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(31)
    vals = rng.standard_normal((9, 17)).astype(np.float32)
    vals[0, 0] = np.float32(-0.0)
    vals[1, 1] = np.float32(1e-40)  # subnormal
    vals[2, 2] = np.float32(3.4e38)
    vals[3, 3] = np.float32(1.0 / 3.0)
    d = Dataset(
        "rt",
        tuple(f"d{i}" for i in range(9)),
        tuple(f"t{i}" for i in range(9)),
        vals,
        np.array([1, 0, 1, 0, 1, 0, 1, 0, 1]),
    )
    full = str(tmp_path / "features_rt.tsv")
    write_feature_file(full, d)
    back = read_feature_file(full)
    assert back.features.tobytes() == d.features.tobytes()
    assert back.labels.tolist() == d.labels.tolist()
    assert back.drug_ids == d.drug_ids and back.target_ids == d.target_ids


def test_a_write_that_fails_midway_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(OSError, match="disk full"):
        with atomic_write(str(path)) as fh:
            fh.write("new and partial")
            raise OSError("disk full")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_table_writes_a_header_then_one_line_per_row(tmp_path):
    path = tmp_path / "t.tsv"
    write_table(str(path), ("a", "b"), (row for row in [("1", "x y"), ("2.5", "")]))
    assert path.read_bytes() == b"a\tb\n1\tx y\n2.5\t\n"


def test_an_interrupted_feature_file_write_leaves_the_old_file(tmp_path, monkeypatch):
    # the rows written before the failure never reach the target, so no
    # truncated file that happens to end on a line boundary can load
    d = _dataset(20, 5, width=6)
    path = str(tmp_path / "features.tsv")
    write_feature_file(path, d)
    before = open(path, "rb").read()
    calls = []

    class FailingFormat(str):
        def __mod__(self, v):
            calls.append(v)
            if len(calls) > 30:  # in the sixth row
                raise OSError("disk full")
            return str.__mod__(self, v)

    monkeypatch.setattr(data, "_F32_FMT", FailingFormat(data._F32_FMT))
    with pytest.raises(OSError, match="disk full"):
        write_feature_file(path, _dataset(20, 5, width=6, seed=1))
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["features.tsv"]


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "frnet")


def _writing_opens(path: str) -> list[int]:
    """Lines of the module at `path` that call open() with a mode that may write."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
        literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
        if not literal or set(mode.value) & set("wax+"):  # a mode that is not a literal might write
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", sorted(n for n in os.listdir(_SRC) if n.endswith(".py")))
def test_only_data_opens_files_for_writing(module):
    # every file is written through data.atomic_write, so whole-or-absent is
    # the policy of one module
    writes = _writing_opens(os.path.join(_SRC, module))
    if module == "data.py":
        assert writes, "atomic_write's opens are not seen"
    else:
        assert writes == [], f"{module} opens a file for writing at lines {writes}"


# ---------------------------------------------------------------------------
# fuzzing: any file content either loads or is a DataError

_fields = st.one_of(
    st.sampled_from(["0", "1", "-0", "2", "1e39", "nan", "inf", "d1", "", "#"]),
    st.floats().map(repr),
    st.builds("{}:{}".format, st.integers(-1, 70), st.floats(-2, 2)),
)


@st.composite
def _rows(draw):
    sep = draw(st.sampled_from(["\t", ",", " "]))
    rows = draw(st.lists(st.lists(_fields, min_size=1, max_size=5), min_size=1, max_size=6))
    return "\n".join(sep.join(row) for row in rows).encode()


# bytes that are not UTF-8, arbitrary text, and rows of the formats' own tokens
_contents = st.one_of(
    st.binary(max_size=200),
    st.text(max_size=200).map(lambda t: t.encode("utf-8", "surrogatepass")),
    _rows(),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "data.txt")


_ids = st.one_of(
    st.sampled_from(["d0", "#d", "7", "1e5", "nan", " d", "d ", "", "a\tb", "a\x85b", "a\rb", "t#"]),
    st.text(max_size=6),
)


@st.composite
def _datasets(draw):
    n, width = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rows = st.lists(_ids, min_size=n, max_size=n)
    feats = st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                     min_size=n * width, max_size=n * width)
    return (draw(rows), draw(rows), np.array(draw(feats), np.float32).reshape(n, width),
            np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))))


@FUZZ
@given(parts=_datasets())
def test_every_dataset_that_constructs_round_trips_through_a_feature_file(fuzz_path, parts):
    # rows >= 1 and width >= 1: a file of no rows or no features is refused on reading
    drugs, targets, feats, labels = parts
    try:
        d = Dataset("toy", tuple(drugs), tuple(targets), feats, labels)
    except DataError:
        return
    write_feature_file(fuzz_path, d)
    back = read_feature_file(fuzz_path)
    assert back.drug_ids == d.drug_ids and back.target_ids == d.target_ids
    assert back.labels.tolist() == d.labels.tolist()
    assert back.features.tobytes() == d.features.tobytes()


@FUZZ
@given(raw=_contents, feature_count=st.none() | st.integers(1, 64))
def test_fuzzed_delimited_file_loads_or_is_a_data_error(fuzz_path, raw, feature_count):
    with open(fuzz_path, "wb") as fh:
        fh.write(raw)
    try:
        load_dataset(fuzz_path, format=DELIMITED, feature_count=feature_count)
    except DataError:
        pass


@FUZZ
@given(raw=_contents, feature_count=st.none() | st.integers(1, 64))
def test_fuzzed_sparse_file_loads_or_is_a_data_error(fuzz_path, raw, feature_count):
    # an inferred width follows the largest index, which the token rows bound
    with open(fuzz_path, "wb") as fh:
        fh.write(raw)
    try:
        load_dataset(fuzz_path, format=SPARSE, feature_count=feature_count)
    except DataError:
        pass
