"""Tensor construction and ownership, `run_chunked`, and the graph's
elementwise product, matmul and channel-concat ops against oracles."""

import ast
import os
import threading

import numpy as np
import pytest

from conftest import run_op
from frnet import tensor
from frnet.errors import ShapeMismatchError
from frnet.tensor import CHUNK, PARALLEL_MIN, Tensor, run_chunked


def test_construction_and_flat_order():
    t = Tensor([[1, 2], [3, 4]])
    assert t.shape == (2, 2)
    assert t.dtype == np.float32
    assert t.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]


def test_construction_rejects_bad_extents():
    with pytest.raises(ShapeMismatchError):
        Tensor.zeros((2, 0, 3))
    with pytest.raises(ShapeMismatchError):
        Tensor(np.zeros((2, 0)))


def test_scalar_input_becomes_rank_one():
    t = Tensor(5.0)
    assert t.shape == (1,)
    assert t.tolist() == [5.0]


def test_tensor_is_immutable():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 9.0


def test_wrap_takes_ownership_without_copying():
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    t = Tensor._wrap(a)
    assert t.data is a and not a.flags.writeable
    # only a non-contiguous array is copied, into row-major layout
    b = np.arange(6, dtype=np.float32).reshape(2, 3).T
    u = Tensor._wrap(b)
    assert u.data.flags.c_contiguous and not u.data.flags.writeable
    assert u.tolist() == b.tolist()


def test_elementwise_examples():
    a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    assert run_op("mul", a, b).tolist() == [3.0, 8.0]
    t = np.array([[1.5, -2.0], [0.25, 7.0]], dtype=np.float32)
    assert np.array_equal(run_op("mul", t, np.ones_like(t)), t)
    assert run_op("mul", np.array([5.0, 1.0]), np.array([-2.0, 0.0])).tolist() == [-10.0, 0.0]


def test_elementwise_matches_scalar_loop_exactly():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 5)).astype(np.float32)
    b = rng.standard_normal((6, 5)).astype(np.float32)
    got = run_op("mul", a, b).reshape(-1)
    want = [x * y for x, y in zip(a.reshape(-1).tolist(), b.reshape(-1).tolist())]
    assert got.tolist() == [np.float32(v) for v in want]


def test_elementwise_shape_mismatch():
    for op in ("mul", "bce"):
        with pytest.raises(ShapeMismatchError):
            run_op(op, np.array([0.5, 0.5]), np.array([1.0, 0.0, 1.0]))


def test_matmul_identity_and_small_product():
    m = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], dtype=np.float32)
    assert np.array_equal(run_op("matmul", np.eye(3), m), m)
    prod = run_op("matmul", np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
    assert prod.tolist() == [[3.0], [7.0]]


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(3)
    for m, k, n in [(7, 5, 3), (64, 64, 64), (1, 9, 1)]:
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        got = run_op("matmul", a, b)
        want = np.zeros((m, n), dtype=np.float64)
        for i in range(m):
            for j in range(n):
                for kk in range(k):
                    want[i, j] += float(a[i, kk]) * float(b[kk, j])
        # relative to the result's magnitude; float32 cancellation makes
        # per-element ratios meaningless at zero crossings
        assert np.max(np.abs(got - want)) < 1e-5 * max(np.max(np.abs(want)), 1.0)


def test_matmul_shape_errors():
    with pytest.raises(ShapeMismatchError):
        run_op("matmul", np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
    with pytest.raises(ShapeMismatchError):
        run_op("matmul", np.array([1.0, 2.0]), np.array([[1.0], [2.0]]))


def test_concat_inception_widths():
    parts = [np.zeros((2, 53, 2, c), dtype=np.float32) for c in (64, 64, 32, 32)]
    assert run_op("concat", *parts).shape == (2, 53, 2, 192)


def test_concat_single_part_identity():
    t = np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4)
    assert np.array_equal(run_op("concat", t), t)


def test_concat_spatial_mismatch():
    with pytest.raises(ShapeMismatchError):
        run_op("concat", np.zeros((2, 4, 4, 3)), np.zeros((2, 5, 4, 3)))


def test_concat_then_slice_recovers_parts_bitwise():
    rng = np.random.default_rng(19)
    parts = [rng.standard_normal((2, 3, 2, c)).astype(np.float32) for c in (3, 1, 5)]
    out = run_op("concat", *parts)
    start = 0
    for p in parts:
        c = p.shape[3]
        assert np.array_equal(out[:, :, :, start : start + c], p)
        start += c


def _pieces(n, **split):
    seen = []

    def body(lo, hi):
        seen.append((lo, hi, threading.current_thread() is threading.main_thread()))
        return (lo, hi)

    return run_chunked(n, body, **split), sorted(seen)


@pytest.mark.parametrize(
    "n", [1, PARALLEL_MIN - 1, PARALLEL_MIN, PARALLEL_MIN + 1, 17 * CHUNK + 1, 23 * CHUNK + 3, 10**9]
)
def test_run_chunked_splits_at_a_chunk_boundary_over_two_threads(n, monkeypatch):
    monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    results, seen = _pieces(n)
    if n < PARALLEL_MIN:
        assert results == [(0, n)] and seen == [(0, n, True)]
        return
    (lo0, mid, main0), (mid1, hi, main1) = seen
    assert (lo0, mid1, hi) == (0, mid, n) and mid % CHUNK == 0
    assert abs((n - mid) - mid) <= CHUNK
    assert (main0, main1) == (True, False)
    assert results == [(0, mid), (mid, n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 46])
def test_run_chunked_splits_single_items_from_two(n, monkeypatch):
    # the checkpoint block read's split: alignment 1, two items or more
    monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: {0, 1})
    results, seen = _pieces(n, align=1, min_split=2)
    if n == 1:
        assert results == [(0, 1)] and seen == [(0, 1, True)]
        return
    mid = (n + 1) // 2
    assert results == [(0, mid), (mid, n)]
    assert seen == [(0, mid, True), (mid, n, False)]


def test_run_chunked_on_one_cpu_stays_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: {3})
    n = 23 * CHUNK + 3
    assert _pieces(n) == ([(0, n)], [(0, n, True)])


def test_run_chunked_reraises_the_helper_threads_exception(monkeypatch):
    monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: {0, 1})
    done = []

    def body(lo, hi):
        if lo > 0:
            raise KeyError("upper piece")
        done.append((lo, hi))

    with pytest.raises(KeyError, match="upper piece"):
        run_chunked(PARALLEL_MIN, body)
    assert done == [(0, PARALLEL_MIN // 2)]


def test_run_chunked_helper_keeps_the_callers_numpy_error_state(monkeypatch):
    monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: {0, 1})

    def body(lo, hi):
        return np.float32(3e38) * np.float32(lo > 0) * np.float32(10)

    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        run_chunked(PARALLEL_MIN, body)


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "frnet")


def _thread_imports(path: str) -> list[int]:
    """Lines of the module at `path` that import `threading` or `concurrent`."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(n.split(".")[0] in ("threading", "concurrent") for n in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", sorted(n for n in os.listdir(_SRC) if n.endswith(".py")))
def test_only_tensor_starts_threads(module):
    # every helper thread comes from run_chunked, so its split, context copy
    # and error hand-off live in one place
    imports = _thread_imports(os.path.join(_SRC, module))
    if module == "tensor.py":
        assert imports, "run_chunked's import is not seen"
    else:
        assert imports == [], f"{module} imports threading or concurrent at lines {imports}"
