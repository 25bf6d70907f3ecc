"""Checkpoint format: round-trips, determinism, fail-closed loading."""

import copy
import dataclasses
import errno
import hashlib
import json
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FUZZ, peak_alloc
from frnet import checkpoint
from frnet.checkpoint import ALIGN, MAGIC, VERSION, ModelState, load, save
from frnet.errors import CheckpointError
from frnet.models import (
    Dense,
    Flatten,
    Input,
    NetworkSpec,
    build_frnet1,
    compile_model,
    extract_features,
    parameter_manifest,
    spec_to_dict,
)
from frnet.tensor import Tensor


def _small_spec(hidden=(32, 16)):
    return build_frnet1(feature_count=48, orientation=(7, 7), hidden=hidden)


def _state(seed=5, with_scaling=False, hidden=(32, 16)):
    spec = _small_spec(hidden)
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
    )


def test_round_trip_is_bitwise(tmp_path):
    state = _state(with_scaling=True)
    path = str(tmp_path / "model.ckpt")
    save(state, path)
    back = load(path)
    assert back.spec_dict == state.spec_dict
    assert back.seed == state.seed and back.config_digest == state.config_digest
    assert list(back.params) == list(state.params)
    for n, p in state.params.items():
        assert back.params[n].tobytes() == p.tobytes()
    assert back.scaling[0].tobytes() == state.scaling[0].tobytes()
    assert back.scaling[1].tobytes() == state.scaling[1].tobytes()
    # the scaling arrays are copies, so a scaling record does not pin the file buffer
    for a in back.scaling:
        assert a.flags.owndata
        assert not any(np.shares_memory(a, p) for p in back.params.values())


def test_loaded_parameters_are_aligned_views_for_every_header_length(tmp_path):
    state = _state(with_scaling=True)
    path = str(tmp_path / "a.ckpt")
    residues = set()
    for pad in range(ALIGN):
        state.config_digest = "x" * pad
        save(state, path)
        residues.add(int.from_bytes(open(path, "rb").read()[8:12], "little") % ALIGN)
        back = load(path)
        for n, p in state.params.items():
            got = back.params[n]
            assert got.flags.aligned and got.flags.c_contiguous
            assert got.dtype == np.float32 and got.shape == p.shape
            assert got.tobytes() == p.tobytes()
        assert back.config_digest == state.config_digest
    assert residues == set(range(ALIGN))


def test_load_holds_one_copy_of_the_file(tmp_path):
    path = str(tmp_path / "big.ckpt")
    save(_state(hidden=(1280, 16)), path)
    size = os.path.getsize(path)
    assert 3 << 20 < size < 5 << 20
    _, peak = peak_alloc(lambda: load(path))
    assert peak < size + (1 << 20), f"load peaked at {peak / 2**20:.2f} MB for a {size / 2**20:.2f} MB file"


def test_concurrent_loads_with_small_chunks_are_bitwise_equal(tmp_path, monkeypatch):
    # many blocks per file, more loading threads than cores and frequent
    # thread switches: a block lost, read twice or hashed into the wrong slot
    # fails the checksum
    monkeypatch.setattr(checkpoint, "HASH_BLOCK", 4096)
    state = _state(with_scaling=True)
    path = str(tmp_path / "c.ckpt")
    save(state, path)
    assert os.path.getsize(path) > 40 * 4096
    results, errors = [], []

    def worker():
        try:
            for _ in range(5):
                results.append(load(path))
        except Exception as e:  # reported by the assertion below
            errors.append(e)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(results) == 30
    for back in results:
        assert all(back.params[n].tobytes() == p.tobytes() for n, p in state.params.items())


def _block_checksum(body):
    # version 2: SHA-256 of each HASH_BLOCK-byte block, then of the digests joined
    size = checkpoint.HASH_BLOCK
    digests = [hashlib.sha256(body[i : i + size]).digest() for i in range(0, len(body), size)]
    return hashlib.sha256(b"".join(digests)).digest()[:8]


def _stream_checksum(body):
    # version 1: one SHA-256 over everything before the trailer
    return hashlib.sha256(body).digest()[:8]


def _joined_bytes(state, version=2, old_extras=None):
    # the format spelled out as one concatenation: version 2 is the reference
    # for save, version 1 the legacy layout loads still accept. Version 1, and
    # version 2 given `old_extras`, carry the three keys earlier writers added
    # to the header and loads ignore
    header = {
        "checksum": {1: "sha256-64", 2: "sha256-blocks-64"}[version],
        "config_digest": state.config_digest,
        "params": [{"name": n, "shape": list(p.shape)} for n, p in state.params.items()],
        "scaling": None if state.scaling is None else {"width": len(state.scaling[0])},
        "seed": state.seed,
        "spec": state.spec_dict,
    }
    if version == 1 or old_extras is not None:
        header.update(extras={} if old_extras is None else old_extras,
                      model_kind=state.spec_dict["model_kind"], version=version)
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    arrays = list(state.params.values()) + list(state.scaling or ())
    body = b"".join(
        [MAGIC, version.to_bytes(4, "little"), len(raw).to_bytes(4, "little"), raw]
        + [np.ascontiguousarray(a, dtype="<f4").tobytes() for a in arrays]
    )
    return body + {1: _stream_checksum, 2: _block_checksum}[version](body)


@pytest.mark.parametrize("with_scaling", [False, True])
def test_save_writes_the_joined_bytes(tmp_path, with_scaling):
    state = _state(with_scaling=with_scaling)
    # a float64 parameter is stored as float32, as the reference does
    first = next(iter(state.params))
    state.params[first] = state.params[first].astype(np.float64)
    path = str(tmp_path / "j.ckpt")
    save(state, path)
    assert open(path, "rb").read() == _joined_bytes(state)


def _assert_loads_bitwise(path, state):
    back = load(path)
    assert [(n, a.tobytes()) for n, a in back.params.items()] == [
        (n, np.ascontiguousarray(a, "<f4").tobytes()) for n, a in state.params.items()
    ]
    assert all(a.flags.aligned and a.flags.c_contiguous for a in back.params.values())
    if state.scaling is not None:
        assert [a.tobytes() for a in back.scaling] == [a.tobytes() for a in state.scaling]
    return back


def _tiny_state():
    # a few hundred bytes, small enough to flip every byte of
    spec = NetworkSpec("tiny", (
        Input("in", (), (1, 1, 3)),
        Flatten("flat", ("in",)),
        Dense("fc", ("flat",), 2),
    ))
    rng = np.random.default_rng(3)
    params = {"fc/w": rng.standard_normal((3, 2)).astype(np.float32),
              "fc/b": rng.standard_normal(2).astype(np.float32)}
    return ModelState(spec_dict=spec_to_dict(spec), params=params,
                      scaling=(np.zeros(3, np.float32), np.ones(3, np.float32)))


def _assert_every_flipped_byte_fails(path, blob):
    for pos in range(len(blob)):
        with open(path, "wb") as fh:
            fh.write(blob[:pos] + bytes([blob[pos] ^ 0x01]) + blob[pos + 1 :])
        with pytest.raises(CheckpointError):
            load(path)


def test_version_1_file_loads_bitwise_and_any_flipped_byte_fails_it(tmp_path):
    state = _state(with_scaling=True)
    path = str(tmp_path / "v1.ckpt")
    with open(path, "wb") as fh:
        fh.write(_joined_bytes(state, version=1))
    back = _assert_loads_bitwise(path, state)
    save(back, path)  # a save writes version 2
    assert open(path, "rb").read() == _joined_bytes(state)

    tiny = _joined_bytes(_tiny_state(), version=1)
    with open(path, "wb") as fh:
        fh.write(tiny)
    _assert_loads_bitwise(path, _tiny_state())
    _assert_every_flipped_byte_fails(path, tiny)


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("old_extras", [{}, [1]], ids=["extras-object", "extras-list"])
def test_a_header_as_earlier_writers_wrote_it_loads_bitwise(tmp_path, version, old_extras):
    # their "extras", "model_kind" and "version" keys are read past, whatever they hold
    state = _state(with_scaling=True)
    path = str(tmp_path / "old.ckpt")
    with open(path, "wb") as fh:
        fh.write(_joined_bytes(state, version, old_extras))
    back = _assert_loads_bitwise(path, state)
    assert (back.spec_dict, back.seed, back.config_digest) == (state.spec_dict, state.seed, state.config_digest)
    save(back, path)
    assert open(path, "rb").read() == _joined_bytes(state)


def _header(path):
    blob = open(path, "rb").read()
    return json.loads(blob[12 : 12 + int.from_bytes(blob[8:12], "little")])


@pytest.mark.parametrize("with_scaling", [False, True])
def test_save_writes_each_header_fact_once(tmp_path, with_scaling):
    path = str(tmp_path / "k.ckpt")
    save(_state(with_scaling=with_scaling), path)
    assert sorted(_header(path)) == ["checksum", "config_digest", "params", "scaling", "seed", "spec"]
    assert [f.name for f in dataclasses.fields(ModelState)] == [
        "spec_dict", "params", "seed", "config_digest", "scaling"
    ]


@pytest.mark.parametrize(
    "field, value",
    [("seed", "5"), ("seed", True), ("seed", np.int64(3)), ("config_digest", 12)],
    ids=["seed-string", "seed-bool", "seed-numpy-int", "config-digest-number"],
)
def test_save_refuses_a_header_its_load_would_refuse(tmp_path, field, value):
    state = _state()
    setattr(state, field, value)
    with pytest.raises(CheckpointError, match=f"malformed header: '{field}'"):
        save(state, str(tmp_path / "r.ckpt"))
    assert os.listdir(tmp_path) == []


def test_save_and_load_check_the_header_through_one_routine(tmp_path, monkeypatch):
    real = checkpoint._check_header
    checked = []

    def check(header, version, path):
        checked.append((copy.deepcopy(header), version))
        real(header, version, path)

    monkeypatch.setattr(checkpoint, "_check_header", check)
    path = str(tmp_path / "o.ckpt")
    save(_state(with_scaling=True), path)
    load(path)
    assert checked == [(_header(path), VERSION)] * 2


def test_any_flipped_byte_of_a_small_file_fails_it(tmp_path, monkeypatch):
    monkeypatch.setattr(checkpoint, "HASH_BLOCK", 48)  # about ten blocks
    path = str(tmp_path / "tiny.ckpt")
    save(_tiny_state(), path)
    blob = open(path, "rb").read()
    assert blob == _joined_bytes(_tiny_state()) and len(blob) > 8 * 48
    _assert_every_flipped_byte_fails(path, blob)


def _save_with_hashed_length(state, path, past_edge):
    # pad the header so that the bytes before the trailer end `past_edge` bytes past a block edge
    state.config_digest = ""
    save(state, path)
    block = checkpoint.HASH_BLOCK
    target = ((os.path.getsize(path) - 8) // block + 1) * block + past_edge
    state.config_digest = "x" * (target - (os.path.getsize(path) - 8))
    save(state, path)
    assert os.path.getsize(path) - 8 == target


@pytest.mark.parametrize("past_edge", [0, 1])
def test_hashed_length_on_and_one_past_a_block_edge(tmp_path, monkeypatch, past_edge):
    monkeypatch.setattr(checkpoint, "HASH_BLOCK", 4096)
    state = _state(with_scaling=True)
    path = str(tmp_path / "edge.ckpt")
    _save_with_hashed_length(state, path, past_edge)
    blob = open(path, "rb").read()
    assert blob == _joined_bytes(state)
    _assert_loads_bitwise(path, state)
    # the last hashed byte ends a full block, or is a block of its own
    with open(path, "wb") as fh:
        fh.write(blob[:-9] + bytes([blob[-9] ^ 0x01]) + blob[-8:])
    with pytest.raises(CheckpointError, match="checksum"):
        load(path)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_corrupt_byte_in_any_block_fails_the_checksum(tmp_path, monkeypatch, where):
    monkeypatch.setattr(checkpoint, "HASH_BLOCK", 4096)
    path = str(tmp_path / "b.ckpt")
    save(_state(), path)
    blob = open(path, "rb").read()
    blocks = -(-(len(blob) - 8) // 4096)
    payload_start = 12 + int.from_bytes(blob[8:12], "little")
    pos = {"first": payload_start, "middle": blocks // 2 * 4096 + 7, "last": len(blob) - 9}[where]
    assert pos // 4096 == {"first": 0, "middle": blocks // 2, "last": blocks - 1}[where]
    assert pos >= payload_start and blocks > 40
    with open(path, "wb") as fh:
        fh.write(blob[:pos] + bytes([blob[pos] ^ 0x01]) + blob[pos + 1 :])
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        load(path)


def _counting_thread_starts(monkeypatch):
    started = []

    class Counting(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counting)
    return started


def _sanity_checkpoint(tmp_path, monkeypatch, blocks):
    # acceptance-sanity widths: the FRnet-1 file is one block at the format's size
    spec = build_frnet1(feature_count=255, orientation=(16, 16), hidden=(256, 128))
    params = {n: np.full(shape, 0.5, np.float32) for n, shape in parameter_manifest(spec).items()}
    state = ModelState(spec_dict=spec_to_dict(spec), params=params)
    path = str(tmp_path / "sanity.ckpt")
    save(state, path)
    size = os.path.getsize(path)
    assert size - 8 <= checkpoint.HASH_BLOCK
    if blocks == 2:
        monkeypatch.setattr(checkpoint, "HASH_BLOCK", size // 2)
        save(state, path)
    return state, path


@pytest.mark.parametrize("blocks", [1, 2])
def test_only_a_file_of_two_or_more_blocks_starts_a_helper(tmp_path, monkeypatch, blocks):
    state, path = _sanity_checkpoint(tmp_path, monkeypatch, blocks)
    monkeypatch.setattr(checkpoint.os, "sched_getaffinity", lambda pid: {0, 1})
    started = _counting_thread_starts(monkeypatch)
    _assert_loads_bitwise(path, state)
    assert len(started) == blocks - 1


def test_a_process_on_one_core_starts_no_helper(tmp_path, monkeypatch):
    # the rule `tensor.run_chunked` keeps: a helper thread only with two usable cores
    state, path = _sanity_checkpoint(tmp_path, monkeypatch, 2)
    monkeypatch.setattr(checkpoint.os, "sched_getaffinity", lambda pid: {0})
    started = _counting_thread_starts(monkeypatch)
    _assert_loads_bitwise(path, state)
    assert started == []


def test_a_read_error_on_the_helper_is_a_checkpoint_error(tmp_path, monkeypatch):
    monkeypatch.setattr(checkpoint, "HASH_BLOCK", 4096)
    monkeypatch.setattr(checkpoint.os, "sched_getaffinity", lambda pid: {0, 1})
    path = str(tmp_path / "e.ckpt")
    save(_state(), path)
    caller = threading.current_thread()
    failed = threading.Event()
    real = os.preadv

    def preadv(fd, buffers, offset):
        if threading.current_thread() is caller:
            failed.wait(timeout=10)  # hold the caller's first block until the helper has failed
            return real(fd, buffers, offset)
        failed.set()
        raise OSError(errno.EIO, "simulated read error")

    threads = threading.active_count()
    monkeypatch.setattr(os, "preadv", preadv)
    with pytest.raises(CheckpointError, match="simulated read error"):
        load(path)
    monkeypatch.undo()
    assert failed.is_set()
    assert threading.active_count() == threads  # the helper was joined


def test_a_read_error_on_the_calling_thread_is_a_checkpoint_error(tmp_path, monkeypatch):
    # the helper's half is read to its end before the error is raised
    monkeypatch.setattr(checkpoint, "HASH_BLOCK", 4096)
    monkeypatch.setattr(checkpoint.os, "sched_getaffinity", lambda pid: {0, 1})
    path = str(tmp_path / "e.ckpt")
    save(_state(), path)
    blocks = -(-(os.path.getsize(path) - 8) // 4096)
    caller = threading.current_thread()
    helper_reads = []
    real = os.preadv

    def preadv(fd, buffers, offset):
        if threading.current_thread() is caller:
            raise OSError(errno.EIO, "simulated read error")
        helper_reads.append(offset // 4096)
        return real(fd, buffers, offset)

    threads = threading.active_count()
    monkeypatch.setattr(os, "preadv", preadv)
    with pytest.raises(CheckpointError, match="simulated read error"):
        load(path)
    monkeypatch.undo()
    assert threading.active_count() == threads  # the helper was joined
    assert helper_reads == list(range((blocks + 1) // 2, blocks))


@pytest.mark.parametrize("blocks", [1, 2])
def test_only_a_save_of_two_or_more_blocks_starts_a_helper(tmp_path, monkeypatch, blocks):
    state, path = _sanity_checkpoint(tmp_path, monkeypatch, blocks)
    monkeypatch.setattr(checkpoint.os, "sched_getaffinity", lambda pid: {0, 1})
    started = _counting_thread_starts(monkeypatch)
    save(state, path)
    assert len(started) == blocks - 1
    _assert_loads_bitwise(path, state)


def test_a_save_on_one_core_starts_no_helper(tmp_path, monkeypatch):
    state, path = _sanity_checkpoint(tmp_path, monkeypatch, 2)
    blob = open(path, "rb").read()
    monkeypatch.setattr(checkpoint.os, "sched_getaffinity", lambda pid: {0})
    started = _counting_thread_starts(monkeypatch)
    save(state, path)
    assert started == []
    assert open(path, "rb").read() == blob


def test_an_error_on_the_helper_while_saving_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(checkpoint, "HASH_BLOCK", 4096)
    monkeypatch.setattr(checkpoint.os, "sched_getaffinity", lambda pid: {0, 1})
    caller = threading.current_thread()
    real = checkpoint._digests
    failed = []

    def digests(body, first, last):
        if threading.current_thread() is not caller:
            failed.append(first)
            raise RuntimeError("simulated hashing failure")
        return real(body, first, last)

    threads = threading.active_count()
    monkeypatch.setattr(checkpoint, "_digests", digests)
    with pytest.raises(RuntimeError, match="simulated hashing failure"):
        save(_state(), str(tmp_path / "h.ckpt"))
    assert failed and failed[0] > 0  # the upper half, on the helper
    assert threading.active_count() == threads  # the helper was joined
    assert os.listdir(tmp_path) == []


def test_save_and_load_take_every_block_digest_through_one_routine(tmp_path, monkeypatch):
    # `_digests` is swapped for a routine no other code computes: a save that
    # hashed elsewhere would write the true trailer, which this load refuses,
    # and a load that hashed elsewhere would refuse the trailer this save wrote
    monkeypatch.setattr(checkpoint, "HASH_BLOCK", 4096)
    monkeypatch.setattr(checkpoint.os, "sched_getaffinity", lambda pid: {0, 1})
    real = checkpoint._digests
    covered = []

    def digests(body, first, last):
        covered.extend(range(first, last))
        return [hashlib.sha256(b"salt" + d).digest() for d in real(body, first, last)]

    monkeypatch.setattr(checkpoint, "_digests", digests)
    state = _state(with_scaling=True)
    path = str(tmp_path / "d.ckpt")
    save(state, path)
    blocks = -(-(os.path.getsize(path) - 8) // 4096)
    assert blocks > 40 and sorted(covered) == list(range(blocks))
    blob, joined = open(path, "rb").read(), _joined_bytes(state)
    assert blob[:-8] == joined[:-8] and blob[-8:] != joined[-8:]
    covered.clear()
    _assert_loads_bitwise(path, state)
    assert sorted(covered) == list(range(blocks))


@pytest.mark.parametrize("prefix", [b"drug-id\ttarget-id\tlabel\t", MAGIC + (99).to_bytes(4, "little")])
def test_a_bad_prefix_fails_before_the_body_is_read(tmp_path, monkeypatch, prefix):
    path = str(tmp_path / "not.ckpt")
    with open(path, "wb") as fh:
        fh.write(prefix + b"0.5\t" * 100_000)

    def preadv(fd, buffers, offset):
        raise AssertionError("the body was read")

    monkeypatch.setattr(os, "preadv", preadv)
    with pytest.raises(CheckpointError, match="bad magic" if prefix[:4] != MAGIC else "format version 99"):
        load(path)


def _fstat_reporting(delta):
    real = os.fstat

    def fake(fd):
        st = real(fd)
        return os.stat_result(st[:6] + (st.st_size + delta,) + st[7:])
    return fake


@pytest.mark.parametrize("delta, word", [(-5, "grew"), (5, "ended"), (2**50, "memory")])
def test_file_unlike_its_reported_size_is_a_checkpoint_error(tmp_path, monkeypatch, delta, word):
    path = str(tmp_path / "g.ckpt")
    save(_state(), path)
    threads = threading.active_count()
    monkeypatch.setattr(os, "fstat", _fstat_reporting(delta))
    with pytest.raises(CheckpointError, match=word):
        load(path)
    monkeypatch.undo()
    assert threading.active_count() == threads  # the hashing thread was joined


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
    with open(path, "wb") as fh:
        fh.write(bytes(body) + _block_checksum(bytes(body)))


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


def _seal_header(path, raw):
    # put `raw` in place of the JSON header, fix its length field and re-seal the checksum
    def edit(body):
        n = int.from_bytes(body[8:12], "little")
        body[8 : 12 + n] = len(raw).to_bytes(4, "little") + raw

    _rewrite_with_valid_checksum(path, edit)


def _rewrite_header(path, mutate):
    header = mutate(_header(path))
    _seal_header(path, json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))


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


_HEADER, _SPEC = "malformed header", "malformed network spec"


@pytest.mark.parametrize(
    "mutate, phrase",
    [
        pytest.param(_drop("params"), _HEADER, id="no-params"),
        pytest.param(_drop("scaling"), _HEADER, id="no-scaling"),
        pytest.param(_drop("spec"), _HEADER, id="no-spec"),
        pytest.param(_drop("seed"), _HEADER, id="no-seed"),
        pytest.param(_drop("config_digest"), _HEADER, id="no-config-digest"),
        pytest.param(_put("params", {"conv1/w": [1, 1, 1, 1]}), _HEADER, id="params-object"),
        pytest.param(_put("params", ["conv1/w"]), _HEADER, id="params-entry-string"),
        pytest.param(_first_param("shape", "3x3"), _HEADER, id="shape-string"),
        pytest.param(_first_param("shape", [3, -1]), _HEADER, id="shape-negative"),
        pytest.param(_first_param("name", 7), _HEADER, id="name-number"),
        pytest.param(_put("scaling", {"width": 1.5}), _HEADER, id="scaling-width-float"),
        pytest.param(_put("scaling", {"width": -3}), _HEADER, id="scaling-width-negative"),
        pytest.param(_put("spec", []), _HEADER, id="spec-list"),
        pytest.param(_put("spec", {"model_kind": "frnet1"}), _SPEC, id="spec-without-layers"),
        pytest.param(_put("seed", "5"), _HEADER, id="seed-string"),
        pytest.param(_put("config_digest", 12), _HEADER, id="config-digest-number"),
        pytest.param(lambda header: [header], _HEADER, id="header-list"),
        pytest.param(_spec_layer("conv1", "stride", 0), _SPEC, id="spec-conv-stride-zero"),
        pytest.param(_spec_layer("pool1", "stride", -2), _SPEC, id="spec-pool-stride-negative"),
        pytest.param(_spec_layer("fc1", "activation", "bce"), _SPEC, id="spec-activation-bce"),
        pytest.param(_spec_layer("conv1", "l2_scale", "0.1"), _SPEC, id="spec-l2-scale-string"),
        pytest.param(_spec_layer("drop", "keep_prob", 0), _SPEC, id="spec-keep-prob-zero"),
    ],
)
def test_malformed_header_schema_is_a_checkpoint_error(tmp_path, mutate, phrase):
    path = str(tmp_path / "s.ckpt")
    save(_state(), path)
    _rewrite_header(path, mutate)
    with pytest.raises(CheckpointError, match=phrase):
        load(path)


def test_a_header_nested_too_deep_to_parse_is_a_checkpoint_error(tmp_path):
    path = str(tmp_path / "deep.ckpt")
    save(_state(), path)
    raw = json.dumps(_header(path), sort_keys=True, separators=(",", ":")).encode("utf-8")
    depth = 100_000
    _seal_header(path, raw[:-1] + b',"extras":' + b"[" * depth + b"]" * depth + b"}")
    with pytest.raises(CheckpointError, match="unreadable header"):
        load(path)


def test_a_spec_field_nested_too_deep_to_read_is_a_checkpoint_error(tmp_path):
    path = str(tmp_path / "deep.ckpt")
    save(_state(), path)
    nested = 1
    for _ in range(500):
        nested = [nested]
    _rewrite_header(path, _spec_layer("conv1", "stride", nested))
    with pytest.raises(CheckpointError, match=_SPEC):
        load(path)


def test_magic_constant_layout(tmp_path):
    path = str(tmp_path / "layout.ckpt")
    save(_state(), path)
    blob = open(path, "rb").read()
    assert blob[:4] == MAGIC == b"FRNT"
    assert int.from_bytes(blob[4:8], "little") == VERSION == 2
    assert checkpoint.HASH_BLOCK == 8 << 20
    assert b'"checksum":"sha256-blocks-64"' in blob


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


def test_repeated_layer_name_fails_to_load(tmp_path):
    # one dense layer "fc", then a second "fc" appended to the saved spec: the
    # manifest still names fc/w and fc/b once, so only the name check stops it
    spec = NetworkSpec("dup", (
        Input("in", (), (1, 1, 3)),
        Flatten("flat", ("in",)),
        Dense("fc", ("flat",), 3),
    ))
    params = {"fc/w": np.ones((3, 3), np.float32), "fc/b": np.zeros(3, np.float32)}
    path = str(tmp_path / "dup.ckpt")
    save(ModelState(spec_dict=spec_to_dict(spec), params=params), path)

    def repeat_fc(header):
        layer = dict(header["spec"]["layers"][-1], inputs=["fc"])
        header["spec"]["layers"].append(layer)
        return header

    _rewrite_header(path, repeat_fc)
    with pytest.raises(CheckpointError, match="'fc'"):
        load(path)


def test_input_that_names_no_earlier_layer_fails_to_load(tmp_path):
    path = str(tmp_path / "dangling.ckpt")
    save(_state(), path)

    def dangle(header):
        header["spec"]["layers"][-1]["inputs"] = ["nope"]
        return header

    _rewrite_header(path, dangle)
    with pytest.raises(CheckpointError, match="'nope'"):
        load(path)


def test_failed_save_leaves_no_file(tmp_path):
    state = _state()
    state.params.pop(next(iter(state.params)))
    with pytest.raises(CheckpointError):
        save(state, str(tmp_path / "z.ckpt"))
    assert os.listdir(tmp_path) == []


def test_save_failing_while_writing_leaves_no_file(tmp_path, monkeypatch):
    def disk_error(fd):
        raise OSError("simulated write failure")

    monkeypatch.setattr(os, "fsync", disk_error)
    with pytest.raises(OSError, match="simulated"):
        save(_state(), str(tmp_path / "w.ckpt"))
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


# ---------------------------------------------------------------------------
# fuzzing the whole file: any change to a valid file, or bytes that never were
# one, is a CheckpointError; an edit that changes nothing loads bit for bit


@st.composite
def _damaged_files(draw, blob):
    kind = draw(st.sampled_from(["bytes", "sealed", "truncated", "poked"]))
    if kind == "bytes":
        return draw(st.binary(max_size=256))
    if kind == "sealed":
        # past the checksum: a valid prefix, any header length, any header bytes
        body = (MAGIC + VERSION.to_bytes(4, "little")
                + draw(st.integers(0, 300)).to_bytes(4, "little") + draw(st.binary(max_size=256)))
        return body + _block_checksum(body)
    if kind == "truncated":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    pos = draw(st.integers(0, len(blob) - 1))
    byte = draw(st.just(blob[pos]) | st.integers(0, 255))  # rewriting the same byte is a no-op
    return blob[:pos] + bytes([byte]) + blob[pos + 1 :]


@FUZZ
@given(data=st.data())
def test_fuzzed_file_loads_bitwise_or_is_a_checkpoint_error(fuzz_checkpoint, data):
    path, blob = fuzz_checkpoint
    damaged = data.draw(_damaged_files(blob))
    target = os.path.join(os.path.dirname(path), "damaged.ckpt")
    with open(target, "wb") as fh:
        fh.write(damaged)
    if damaged != blob:
        with pytest.raises(CheckpointError):
            load(target)
        return
    back = load(target)
    state = _state(with_scaling=True)
    assert [(n, a.tobytes()) for n, a in back.params.items()] == [
        (n, a.tobytes()) for n, a in state.params.items()
    ]
    assert [a.tobytes() for a in back.scaling] == [a.tobytes() for a in state.scaling]
    save(back, target)
    assert open(target, "rb").read() == blob
