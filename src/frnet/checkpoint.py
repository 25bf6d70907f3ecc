"""Binary checkpoints for trained models.

Byte layout (all integers little-endian, documented for reimplementation):

    bytes 0..3    magic "FRNT"
    bytes 4..7    u32 format version (currently 2)
    bytes 8..11   u32 header length H
    bytes 12..    H bytes of UTF-8 JSON (sorted keys, no whitespace)
    ...           payload sections, in header-manifest order:
                    parameters      raw float32, row-major
                    scaling mins then maxs, raw float32
    last 8 bytes  block checksum of everything before them

The block checksum (header key "checksum": "sha256-blocks-64") cuts the
bytes it covers into consecutive blocks of HASH_BLOCK = 8 MiB, the last one
possibly shorter, and is the first 8 bytes of the SHA-256 of the blocks'
SHA-256 digests joined in order. The block size is part of the format.
Version 1 files are still read: their header names "sha256-64" and their
last 8 bytes are the first 8 bytes of one SHA-256 over everything before
them. Saves write version 2.

The header carries the model kind, seed, config digest, the full network
spec, and a manifest naming every payload array with its shape, so a load
can validate structure before touching the payload. Loads fail closed: bad
magic, unknown version, checksum mismatch, or any manifest/spec
disagreement raises CheckpointError and yields no partial state. There is
no optimizer section; the `"optimizer": null` key that older writers put in
the header is ignored.

A load reads the 12-byte prefix first, and a file whose magic or version is
wrong fails before anything more is allocated, read or hashed. The file is
then read once into one buffer placed so that the payload starts on a
64-byte boundary. Its checksum blocks split into two static halves
(`tensor.run_chunked`), which balance because blocks are equal-sized: the
calling thread reads and hashes the lower half and, when the file has two or
more blocks and the process two or more usable cores, one helper thread the
upper half, each block with one positioned read. An error on either half is
raised once both have finished. Parameters come back as aligned,
C-contiguous float32 views into that buffer, not copies; the small scaling
arrays are copied, so a scaling record alone does not keep the buffer alive.
A file that ends early or grows while it is read, or that is too large to
hold in memory, is a CheckpointError. A save writes and hashes each section
straight from its array, with no joined copy.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import models
from .data import atomic_write
from .errors import CheckpointError, FrnetError
from .tensor import run_chunked

MAGIC = b"FRNT"
VERSION = 2
CHECKSUMS = {1: "sha256-64", 2: "sha256-blocks-64"}  # the header's checksum name, by version
HASH_BLOCK = 8 << 20  # bytes per checksum block (a format constant), and per read on a load
ALIGN = 64  # byte boundary the payload of a loaded checkpoint starts on


@dataclass
class ModelState:
    """Everything a checkpoint persists for one trained model."""

    spec_dict: dict
    params: dict[str, np.ndarray]
    seed: int = 0
    config_digest: str = ""
    scaling: tuple[np.ndarray, np.ndarray] | None = None
    extras: dict = field(default_factory=dict)


def _validate_against_spec(state: ModelState) -> None:
    try:
        manifest = models.parameter_manifest(models.spec_from_dict(state.spec_dict))
    except (KeyError, TypeError, ValueError, FrnetError) as e:
        raise CheckpointError(f"malformed network spec: {e!r}") from None
    if set(state.params) != set(manifest):
        missing = sorted(set(manifest) - set(state.params))
        extra = sorted(set(state.params) - set(manifest))
        raise CheckpointError(f"parameter names do not match spec: missing {missing}, extra {extra}")
    for name, shape in manifest.items():
        got = tuple(state.params[name].shape)
        if got != shape:
            raise CheckpointError(f"parameter {name}: shape {got} does not match spec {shape}")


def _f32(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype="<f4")


def _join_digests(digests: list[bytes]) -> bytes:
    return hashlib.sha256(b"".join(digests)).digest()[:8]


class _BlockHasher:
    """The block checksum of a byte stream fed in pieces of any length."""

    def __init__(self):
        self._digests: list[bytes] = []
        self._block = hashlib.sha256()
        self._filled = 0

    def update(self, data) -> None:
        view = memoryview(data).cast("B")
        while len(view):
            n = min(len(view), HASH_BLOCK - self._filled)
            self._block.update(view[:n])
            self._filled += n
            view = view[n:]
            if self._filled == HASH_BLOCK:
                self._digests.append(self._block.digest())
                self._block, self._filled = hashlib.sha256(), 0

    def checksum(self) -> bytes:
        tail = [self._block.digest()] if self._filled else []
        return _join_digests(self._digests + tail)


def save(state: ModelState, path: str) -> None:
    """Write the checkpoint atomically (`data.atomic_write`)."""
    _validate_against_spec(state)
    param_names = list(state.params)
    header = {
        "checksum": CHECKSUMS[VERSION],
        "config_digest": state.config_digest,
        "extras": state.extras,
        "model_kind": state.spec_dict["model_kind"],
        "params": [
            {"name": n, "shape": list(state.params[n].shape)} for n in param_names
        ],
        "scaling": None,
        "seed": state.seed,
        "spec": state.spec_dict,
        "version": VERSION,
    }
    sections = [_f32(state.params[n]) for n in param_names]
    if state.scaling is not None:
        mins, maxs = state.scaling
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise CheckpointError("scaling record needs parallel 1-d min/max arrays")
        header["scaling"] = {"width": int(mins.shape[0])}
        sections += [_f32(mins), _f32(maxs)]

    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    prefix = MAGIC + VERSION.to_bytes(4, "little") + len(header_bytes).to_bytes(4, "little")
    hasher = _BlockHasher()
    with atomic_write(path, binary=True) as fh:
        for part in (prefix, header_bytes, *(memoryview(a) for a in sections)):
            hasher.update(part)
            fh.write(part)
        fh.write(hasher.checksum())


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_header(header, version: int, path: str) -> None:
    """Reject a header whose keys are missing or of the wrong type."""

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise CheckpointError(f"{path}: malformed header: {what}")

    need(isinstance(header, dict), "not a JSON object")
    if header.get("checksum") != CHECKSUMS[version]:
        raise CheckpointError(f"{path}: unknown checksum algorithm {header.get('checksum')!r}")
    need(isinstance(header.get("params"), list), "'params' must be a list")
    for entry in header["params"]:
        need(
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(_is_int(d) and d >= 0 for d in entry["shape"]),
            "each 'params' entry needs a string 'name' and a list of extents 'shape'",
        )
    scaling = header.get("scaling")
    need(
        "scaling" in header
        and (scaling is None or isinstance(scaling, dict) and _is_int(scaling.get("width"))),
        "'scaling' must be null or hold an integer 'width'",
    )
    need(isinstance(header.get("spec"), dict), "'spec' must be an object")
    need(_is_int(header.get("seed")), "'seed' must be an integer")
    need(isinstance(header.get("config_digest"), str), "'config_digest' must be a string")
    need(isinstance(header.get("extras", {}), dict), "'extras' must be an object")


def _read_blocks(fd: int, whole: memoryview, hash_blocks: bool, path: str) -> bytes:
    """Read the file behind `fd` into `whole`, whose first 12 bytes are already filled.

    Each half of the HASH_BLOCK-byte blocks (`tensor.run_chunked`) reads its
    blocks in order with os.preadv, the last block's read taking the 8-byte
    trailer too, and with `hash_blocks` hashes each. Returns the block
    checksum, or b"" without `hash_blocks`.
    """
    size = len(whole)
    hashed = size - 8

    def read(first: int, last: int) -> list[bytes]:
        digests = []
        for k in range(first, last):
            lo = k * HASH_BLOCK
            hi = min(lo + HASH_BLOCK, hashed)
            pos, end = max(lo, 12), hi if hi < hashed else size
            while pos < end:
                n = os.preadv(fd, [whole[pos:end]], pos)
                if not n:
                    raise CheckpointError(f"{path}: file ended at byte {pos} of {size} while being read")
                pos += n
            if hash_blocks:
                digests.append(hashlib.sha256(whole[lo:hi]).digest())
        return digests

    halves = run_chunked(-(-hashed // HASH_BLOCK), read, align=1, min_split=2)
    if os.pread(fd, 1, size):
        raise CheckpointError(f"{path}: file grew past {size} bytes while being read")
    return _join_digests([d for half in halves for d in half]) if hash_blocks else b""


def _read(path: str) -> tuple[int, np.ndarray]:
    """Read and verify the whole file; return its format version and its bytes.

    The bytes sit in a buffer placed so that the payload starts on an
    ALIGN-byte boundary. Magic and version are checked from the prefix
    before the buffer is allocated.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            fd = fh.fileno()
            size = os.fstat(fd).st_size
            if size < 24:
                raise CheckpointError(f"{path}: truncated file ({size} bytes)")
            prefix = os.pread(fd, 12, 0)
            if len(prefix) < 12:
                raise CheckpointError(
                    f"{path}: file ended at byte {len(prefix)} of {size} while being read"
                )
            if prefix[:4] != MAGIC:
                raise CheckpointError(f"{path}: bad magic {prefix[:4]!r}, expected {MAGIC!r}")
            version = int.from_bytes(prefix[4:8], "little")
            if version not in CHECKSUMS:
                raise CheckpointError(
                    f"{path}: format version {version}, this reader supports versions 1 and {VERSION}"
                )
            # the untrusted header length decides only where the buffer starts
            header_len = int.from_bytes(prefix[8:12], "little")
            try:
                buf = np.empty(size + ALIGN, np.uint8)
            except MemoryError:
                raise CheckpointError(f"{path}: no memory to hold a {size}-byte file") from None
            start = -(buf.__array_interface__["data"][0] + 12 + header_len) % ALIGN
            whole = buf[start : start + size]
            whole[:12] = np.frombuffer(prefix, np.uint8)
            digest = _read_blocks(fd, memoryview(whole), version == VERSION, path)
    except OSError as e:
        raise CheckpointError(f"{path}: {e}") from None
    if version == 1:
        digest = hashlib.sha256(whole[:-8]).digest()[:8]
    if digest != whole[-8:].tobytes():
        raise CheckpointError(f"{path}: checksum mismatch, file corrupt or truncated")
    return version, whole


def load(path: str) -> ModelState:
    """Read and validate a checkpoint; any defect raises, never a partial model.

    Parameters are float32 views into one buffer holding the file; the
    scaling arrays are copies.
    """
    version, whole = _read(path)
    size = len(whole)
    header_len = int.from_bytes(whole[8:12].tobytes(), "little")
    if 12 + header_len > size - 8:
        raise CheckpointError(f"{path}: header length {header_len} exceeds file size")
    try:
        header = json.loads(whole[12 : 12 + header_len].tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable header: {e}") from None
    _check_header(header, version, path)

    payload = whole[12 + header_len : -8]
    offset = 0

    def take(shape: tuple) -> np.ndarray:
        nonlocal offset
        nbytes = 4 * math.prod(shape)
        if offset + nbytes > len(payload):
            raise CheckpointError(f"{path}: payload shorter than manifest requires")
        arr = payload[offset : offset + nbytes].view("<f4").reshape(shape)
        offset += nbytes
        return arr

    params: dict[str, np.ndarray] = {}
    for entry in header["params"]:
        params[entry["name"]] = take(tuple(entry["shape"]))
    scaling = None
    if header["scaling"] is not None:
        width = int(header["scaling"]["width"])
        scaling = (take((width,)).copy(), take((width,)).copy())
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} unexpected trailing payload bytes")

    state = ModelState(
        spec_dict=header["spec"],
        params=params,
        seed=int(header["seed"]),
        config_digest=header["config_digest"],
        scaling=scaling,
        extras=header.get("extras", {}),
    )
    _validate_against_spec(state)
    return state
