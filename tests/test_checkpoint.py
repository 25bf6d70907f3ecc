"""Checkpoint format: round-trips, determinism, fail-closed loading."""

import copy
import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FUZZ
from frnet.checkpoint import MAGIC, VERSION, ModelState, load, save
from frnet.errors import CheckpointError
from frnet.models import (
    build_frnet1,
    compile_model,
    extract_features,
    parameter_manifest,
    spec_to_dict,
)
from frnet.tensor import Tensor


def _small_spec():
    return build_frnet1(feature_count=48, orientation=(7, 7), hidden=(32, 16))


def _state(seed=5, with_scaling=False):
    spec = _small_spec()
    rng = np.random.default_rng(seed)
    params = {
        name: rng.standard_normal(shape).astype(np.float32)
        for name, shape in parameter_manifest(spec).items()
    }
    scaling = None
    if with_scaling:
        scaling = (
            rng.random(48).astype(np.float32),
            (1.0 + rng.random(48)).astype(np.float32),
        )
    return ModelState(
        spec_dict=spec_to_dict(spec),
        params=params,
        seed=seed,
        config_digest="cafe" * 4,
        scaling=scaling,
        extras={"epochs": 3},
    )


def test_round_trip_is_bitwise(tmp_path):
    state = _state(with_scaling=True)
    path = str(tmp_path / "model.ckpt")
    save(state, path)
    back = load(path)
    assert back.spec_dict == state.spec_dict
    assert back.seed == state.seed and back.config_digest == state.config_digest
    assert back.extras == state.extras
    assert list(back.params) == list(state.params)
    for n, p in state.params.items():
        assert back.params[n].tobytes() == p.tobytes()
    assert back.scaling[0].tobytes() == state.scaling[0].tobytes()
    assert back.scaling[1].tobytes() == state.scaling[1].tobytes()


def test_save_is_byte_deterministic(tmp_path):
    state = _state(with_scaling=True)
    a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save(state, a)
    save(state, b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_no_temp_files_left_behind(tmp_path):
    path = str(tmp_path / "clean.ckpt")
    save(_state(), path)
    assert sorted(os.listdir(tmp_path)) == ["clean.ckpt"]


def test_any_corrupt_byte_fails_the_checksum(tmp_path):
    path = str(tmp_path / "c.ckpt")
    save(_state(), path)
    blob = bytearray(open(path, "rb").read())
    for pos in (4, 20, len(blob) // 2, len(blob) - 9):
        poked = bytearray(blob)
        poked[pos] ^= 0x01
        with open(path, "wb") as fh:
            fh.write(poked)
        with pytest.raises(CheckpointError) as e:
            load(path)
        assert "checksum" in str(e.value) or "version" in str(e.value)


def test_truncated_file_never_loads(tmp_path):
    path = str(tmp_path / "t.ckpt")
    save(_state(), path)
    blob = open(path, "rb").read()
    for cut in (0, 10, 23, len(blob) // 2, len(blob) - 1):
        with open(path, "wb") as fh:
            fh.write(blob[:cut])
        with pytest.raises(CheckpointError):
            load(path)


def _rewrite_with_valid_checksum(path, mutate):
    blob = open(path, "rb").read()
    body = bytearray(blob[:-8])
    mutate(body)
    digest = hashlib.sha256(bytes(body)).digest()[:8]
    with open(path, "wb") as fh:
        fh.write(bytes(body) + digest)


def test_bad_magic_is_reported(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save(_state(), path)

    def swap_magic(body):
        body[0:4] = b"XRNT"

    _rewrite_with_valid_checksum(path, swap_magic)
    with pytest.raises(CheckpointError) as e:
        load(path)
    assert "magic" in str(e.value)


def test_unknown_version_names_both_versions(tmp_path):
    path = str(tmp_path / "v.ckpt")
    save(_state(), path)

    def bump_version(body):
        body[4:8] = (99).to_bytes(4, "little")

    _rewrite_with_valid_checksum(path, bump_version)
    with pytest.raises(CheckpointError) as e:
        load(path)
    msg = str(e.value)
    assert "99" in msg and str(VERSION) in msg


def test_oversized_header_length_is_rejected(tmp_path):
    path = str(tmp_path / "h.ckpt")
    save(_state(), path)

    def stretch_header(body):
        body[8:12] = (2**31).to_bytes(4, "little")

    _rewrite_with_valid_checksum(path, stretch_header)
    with pytest.raises(CheckpointError):
        load(path)


def _rewrite_header(path, mutate):
    # replace the JSON header, fix its length field and re-seal the checksum
    def edit(body):
        n = int.from_bytes(body[8:12], "little")
        header = json.loads(bytes(body[12 : 12 + n]))
        header = mutate(header)
        raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        body[8 : 12 + n] = len(raw).to_bytes(4, "little") + raw

    _rewrite_with_valid_checksum(path, edit)


def _drop(key):
    def mutate(header):
        del header[key]
        return header
    return mutate


def _put(key, value):
    def mutate(header):
        header[key] = value
        return header
    return mutate


def _first_param(field, value):
    def mutate(header):
        header["params"][0][field] = value
        return header
    return mutate


def _spec_layer(name, field, value):
    def mutate(header):
        layer = next(ld for ld in header["spec"]["layers"] if ld["name"] == name)
        layer[field] = value
        return header
    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        _drop("params"),
        _drop("scaling"),
        _drop("spec"),
        _drop("seed"),
        _drop("config_digest"),
        _put("params", {"conv1/w": [1, 1, 1, 1]}),
        _put("params", ["conv1/w"]),
        _first_param("shape", "3x3"),
        _first_param("shape", [3, -1]),
        _first_param("name", 7),
        _put("scaling", {"width": 1.5}),
        _put("scaling", {"width": -3}),
        _put("spec", []),
        _put("spec", {"model_kind": "frnet1"}),
        _put("seed", "5"),
        _put("config_digest", 12),
        _put("extras", [1]),
        lambda header: [header],
        _spec_layer("conv1", "stride", 0),
        _spec_layer("pool1", "stride", -2),
        _spec_layer("fc1", "activation", "bce"),
        _spec_layer("conv1", "l2_scale", "0.1"),
        _spec_layer("drop", "keep_prob", 0),
    ],
    ids=[
        "no-params", "no-scaling", "no-spec", "no-seed", "no-config-digest",
        "params-object", "params-entry-string", "shape-string", "shape-negative",
        "name-number", "scaling-width-float", "scaling-width-negative", "spec-list",
        "spec-without-layers", "seed-string", "config-digest-number", "extras-list",
        "header-list", "spec-conv-stride-zero", "spec-pool-stride-negative",
        "spec-activation-bce", "spec-l2-scale-string", "spec-keep-prob-zero",
    ],
)
def test_malformed_header_schema_is_a_checkpoint_error(tmp_path, mutate):
    path = str(tmp_path / "s.ckpt")
    save(_state(), path)
    _rewrite_header(path, mutate)
    with pytest.raises(CheckpointError):
        load(path)


def test_magic_constant_layout(tmp_path):
    path = str(tmp_path / "layout.ckpt")
    save(_state(), path)
    blob = open(path, "rb").read()
    assert blob[:4] == MAGIC == b"FRNT"
    assert int.from_bytes(blob[4:8], "little") == VERSION


def test_save_rejects_manifest_mismatch(tmp_path):
    state = _state()
    state.params["bogus/w"] = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(CheckpointError):
        save(state, str(tmp_path / "x.ckpt"))
    state = _state()
    first = next(iter(state.params))
    state.params[first] = np.zeros((1, 1), dtype=np.float32)
    with pytest.raises(CheckpointError):
        save(state, str(tmp_path / "y.ckpt"))


def test_failed_save_leaves_no_file(tmp_path):
    state = _state()
    state.params.pop(next(iter(state.params)))
    with pytest.raises(CheckpointError):
        save(state, str(tmp_path / "z.ckpt"))
    assert os.listdir(tmp_path) == []


def test_loaded_parameters_drive_identical_extraction(tmp_path):
    spec = _small_spec()
    model = compile_model(spec, init_seed=9)
    x = np.random.default_rng(0).random((3, 7, 7, 1), dtype=np.float32)
    before = extract_features(model, x)
    path = str(tmp_path / "w.ckpt")
    save(
        ModelState(
            spec_dict=spec_to_dict(spec),
            params={n: np.asarray(t.data) for n, t in model.params().items()},
        ),
        path,
    )
    back = load(path)
    fresh = compile_model(spec, init_seed=123)  # different init, then overwritten
    fresh.set_params({n: Tensor(a) for n, a in back.params.items()})
    after = extract_features(fresh, x)
    assert after.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# fuzzing: a spec edited at random either loads or is a CheckpointError

# small integers and the spec's own words make edits that still load likely
_spec_words = st.sampled_from(["relu", "sigmoid", "none", "tanh", "in", "conv1", "pool1", "fc1"])


def _containers(kids):
    return st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=8), kids, max_size=3)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.integers() | st.floats()
    | _spec_words | st.text(max_size=8),
    _containers,
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def _edited_specs(draw):
    spec = copy.deepcopy(spec_to_dict(_small_spec()))
    rnd = draw(st.randoms(use_true_random=False))  # uniform over paths, unlike sampled_from
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(spec))[1:]
        if not paths:
            break
        path = rnd.choice(paths)
        parent = spec
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_json_values)
    return spec


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "base.ckpt")
    save(_state(with_scaling=True), path)
    return path, open(path, "rb").read()


@FUZZ
@given(spec=_edited_specs())
def test_fuzzed_spec_loads_or_is_a_checkpoint_error(fuzz_checkpoint, spec):
    path, blob = fuzz_checkpoint
    with open(path, "wb") as fh:
        fh.write(blob)
    _rewrite_header(path, _put("spec", spec))
    try:
        load(path)
    except CheckpointError:
        pass
