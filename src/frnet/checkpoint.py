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

The header holds six keys, each fact once: "checksum" (the algorithm),
"config_digest", "params" (each payload array's name and shape), "scaling"
(null or the scaling arrays' width), "seed" and "spec" (the network spec,
model kind included), so a load can validate structure before touching the
payload. A save checks the header it built with the load's `_check_header`,
so it never writes a file its own load refuses. Loads fail closed: bad
magic, unknown version, checksum mismatch, a header nested too deep to
parse, or any manifest/spec disagreement raises CheckpointError and yields
no partial state. Keys older writers added ("optimizer", "extras",
"model_kind", "version") are ignored, whatever their values.

A checkpoint is one byte buffer on both sides, and one routine,
`_digests`, hashes its checksum blocks for a save and a load alike. The
blocks split into two static halves (`tensor.run_chunked`), which balance
because blocks are equal-sized: the calling thread takes the lower half
and, when there are two or more blocks and the process has two or more
usable cores, one helper thread the upper half. An error on either half is
raised once both have finished. A save builds the file in one buffer of
its size, each section converted to float32 on the way in, hashes it and
writes it through `data.atomic_write` in one call. A load reads the 12-byte
prefix first, so a file whose magic or version is wrong fails before
anything more is allocated, read or hashed. It then reads the file once
into one buffer placed so that the payload starts on a 64-byte boundary,
each half reading its blocks with one positioned read apiece before hashing
them. Parameters come back as aligned, C-contiguous float32 views into that
buffer, not copies; the small scaling arrays are copied, so a scaling
record alone does not keep the buffer alive. A file that ends early or
grows while it is read, or that is too large to hold in memory, is a
CheckpointError.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import models
from .data import atomic_write
from .errors import CheckpointError, FrnetError
from .tensor import run_chunked

MAGIC = b"FRNT"
VERSION = 2
CHECKSUMS = {1: "sha256-64", 2: "sha256-blocks-64"}  # the header's checksum name, by version
HASH_BLOCK = 8 << 20  # bytes per checksum block on save and load (a format constant), and per read on a load
ALIGN = 64  # byte boundary the payload of a loaded checkpoint starts on


@dataclass
class ModelState:
    """Everything a checkpoint persists for one trained model: its spec,
    parameters, seed, config digest and, for an autoencoder, its scaling
    record (parallel 1-d mins and maxs)."""

    spec_dict: dict
    params: dict[str, np.ndarray]
    seed: int = 0
    config_digest: str = ""
    scaling: tuple[np.ndarray, np.ndarray] | None = None


def _validate_against_spec(state: ModelState, path: str) -> None:
    """Raise CheckpointError, naming the file at `path`, if the parameters do not fit the spec."""
    try:
        manifest = models.parameter_manifest(models.spec_from_dict(state.spec_dict))
    except (KeyError, TypeError, ValueError, RecursionError, FrnetError) as e:
        raise CheckpointError(f"{path}: malformed network spec: {e!r}") from None
    if set(state.params) != set(manifest):
        missing = sorted(set(manifest) - set(state.params))
        extra = sorted(set(state.params) - set(manifest))
        raise CheckpointError(f"{path}: parameter names do not match spec: missing {missing}, extra {extra}")
    for name, shape in manifest.items():
        got = tuple(state.params[name].shape)
        if got != shape:
            raise CheckpointError(f"{path}: parameter {name}: shape {got} does not match spec {shape}")


def _digests(body: memoryview, first: int, last: int) -> list[bytes]:
    """The SHA-256 digests of checksum blocks [first, last) of `body`, the bytes before the trailer."""
    return [hashlib.sha256(body[k * HASH_BLOCK : (k + 1) * HASH_BLOCK]).digest() for k in range(first, last)]


def _checksum(halves: list[list[bytes]]) -> bytes:
    """The version-2 trailer: the first 8 bytes of the SHA-256 of the halves' digests joined in order."""
    return hashlib.sha256(b"".join(d for half in halves for d in half)).digest()[:8]


def save(state: ModelState, path: str) -> None:
    """Write the checkpoint atomically (`data.atomic_write`), built and hashed in one buffer."""
    _validate_against_spec(state, path)
    sections = list(state.params.values())
    scaling = None
    if state.scaling is not None:
        mins, maxs = state.scaling
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise CheckpointError("scaling record needs parallel 1-d min/max arrays")
        scaling = {"width": int(mins.shape[0])}
        sections += [mins, maxs]
    header = {
        "checksum": CHECKSUMS[VERSION],
        "config_digest": state.config_digest,
        "params": [{"name": n, "shape": list(a.shape)} for n, a in state.params.items()],
        "scaling": scaling,
        "seed": state.seed,
        "spec": state.spec_dict,
    }
    _check_header(header, VERSION, path)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = MAGIC + VERSION.to_bytes(4, "little") + len(header_bytes).to_bytes(4, "little") + header_bytes
    whole = np.empty(len(head) + sum(4 * a.size for a in sections) + 8, np.uint8)
    whole[: len(head)] = np.frombuffer(head, np.uint8)
    pos = len(head)
    for a in sections:  # stored as float32, converted on the way in
        whole[pos : pos + 4 * a.size].view("<f4").reshape(a.shape)[...] = a
        pos += 4 * a.size
    body = memoryview(whole)[:-8]
    halves = run_chunked(
        -(-len(body) // HASH_BLOCK), lambda first, last: _digests(body, first, last), align=1, min_split=2
    )
    whole[-8:] = np.frombuffer(_checksum(halves), np.uint8)
    with atomic_write(path, binary=True) as fh:
        fh.write(whole)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_header(header, version: int, path: str) -> None:
    """Reject a header whose keys are missing or of the wrong type; other keys are ignored."""

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
    width = scaling.get("width") if isinstance(scaling, dict) else None
    need(
        "scaling" in header and (scaling is None or _is_int(width) and width >= 0),
        "'scaling' must be null or hold a non-negative integer 'width'",
    )
    need(isinstance(header.get("spec"), dict), "'spec' must be an object")
    need(_is_int(header.get("seed")), "'seed' must be an integer")
    need(isinstance(header.get("config_digest"), str), "'config_digest' must be a string")


def _read_blocks(fd: int, whole: memoryview, hash_blocks: bool, path: str) -> list[list[bytes]]:
    """Read the file behind `fd` into `whole`, whose first 12 bytes are already filled.

    Each half of the HASH_BLOCK-byte blocks (`tensor.run_chunked`) reads its
    blocks in order with os.preadv, the last block's read taking the 8-byte
    trailer too, then with `hash_blocks` takes their digests (`_digests`).
    Returns each half's digests, empty without `hash_blocks`.
    """
    size = len(whole)
    body = whole[: size - 8]

    def read(first: int, last: int) -> list[bytes]:
        for k in range(first, last):
            lo = k * HASH_BLOCK
            hi = min(lo + HASH_BLOCK, len(body))
            pos, end = max(lo, 12), hi if hi < len(body) else size
            while pos < end:
                n = os.preadv(fd, [whole[pos:end]], pos)
                if not n:
                    raise CheckpointError(f"{path}: file ended at byte {pos} of {size} while being read")
                pos += n
        return _digests(body, first, last) if hash_blocks else []

    halves = run_chunked(-(-len(body) // HASH_BLOCK), read, align=1, min_split=2)
    if os.pread(fd, 1, size):
        raise CheckpointError(f"{path}: file grew past {size} bytes while being read")
    return halves


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
            halves = _read_blocks(fd, memoryview(whole), version == VERSION, path)
    except OSError as e:
        raise CheckpointError(f"{path}: {e}") from None
    digest = _checksum(halves) if version == VERSION else hashlib.sha256(whole[:-8]).digest()[:8]
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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
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
        width = header["scaling"]["width"]
        scaling = (take((width,)).copy(), take((width,)).copy())
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} unexpected trailing payload bytes")

    state = ModelState(
        spec_dict=header["spec"],
        params=params,
        seed=header["seed"],
        config_digest=header["config_digest"],
        scaling=scaling,
    )
    _validate_against_spec(state, path)
    return state
