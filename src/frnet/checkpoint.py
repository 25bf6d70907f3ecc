"""Binary checkpoints for trained models.

Byte layout (all integers little-endian, documented for reimplementation):

    bytes 0..3    magic "FRNT"
    bytes 4..7    u32 format version (currently 1)
    bytes 8..11   u32 header length H
    bytes 12..    H bytes of UTF-8 JSON (sorted keys, no whitespace)
    ...           payload sections, in header-manifest order:
                    parameters      raw float32, row-major
                    scaling mins then maxs, raw float32
    last 8 bytes  first 8 bytes of SHA-256 over everything before them

The header carries the model kind, seed, config digest, the full network
spec, and a manifest naming every payload array with its shape, so a load
can validate structure before touching the payload. Loads fail closed: bad
magic, unknown version, checksum mismatch, or any manifest/spec
disagreement raises CheckpointError and yields no partial state. There is
no optimizer section; the `"optimizer": null` key that older writers put in
the header is ignored.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import models
from .errors import CheckpointError, FrnetError

MAGIC = b"FRNT"
VERSION = 1
CHECKSUM_NAME = "sha256-64"


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


def save(state: ModelState, path: str) -> None:
    """Write the checkpoint atomically (temp file + rename)."""
    _validate_against_spec(state)
    param_names = list(state.params)
    header = {
        "checksum": CHECKSUM_NAME,
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
    sections: list[bytes] = []
    for n in param_names:
        sections.append(_f32(state.params[n]).tobytes())
    if state.scaling is not None:
        mins, maxs = state.scaling
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise CheckpointError("scaling record needs parallel 1-d min/max arrays")
        header["scaling"] = {"width": int(mins.shape[0])}
        sections.append(_f32(mins).tobytes())
        sections.append(_f32(maxs).tobytes())

    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = b"".join(
        [
            MAGIC,
            VERSION.to_bytes(4, "little"),
            len(header_bytes).to_bytes(4, "little"),
            header_bytes,
            *sections,
        ]
    )
    digest = hashlib.sha256(body).digest()[:8]
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(body)
        fh.write(digest)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_header(header, path: str) -> None:
    """Reject a header whose keys are missing or of the wrong type."""

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise CheckpointError(f"{path}: malformed header: {what}")

    need(isinstance(header, dict), "not a JSON object")
    if header.get("checksum") != CHECKSUM_NAME:
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


def load(path: str) -> ModelState:
    """Read and validate a checkpoint; any defect raises, never a partial model."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise CheckpointError(f"{path}: {e}") from None
    if len(blob) < 24:
        raise CheckpointError(f"{path}: truncated file ({len(blob)} bytes)")
    body, digest = memoryview(blob)[:-8], blob[-8:]  # slices of the view copy nothing
    if hashlib.sha256(body).digest()[:8] != digest:
        raise CheckpointError(f"{path}: checksum mismatch, file corrupt or truncated")
    if body[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {bytes(body[:4])!r}, expected {MAGIC!r}")
    version = int.from_bytes(body[4:8], "little")
    if version != VERSION:
        raise CheckpointError(f"{path}: format version {version}, this reader supports {VERSION}")
    header_len = int.from_bytes(body[8:12], "little")
    if 12 + header_len > len(body):
        raise CheckpointError(f"{path}: header length {header_len} exceeds file size")
    try:
        header = json.loads(bytes(body[12 : 12 + header_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable header: {e}") from None
    _check_header(header, path)

    payload = body[12 + header_len :]
    offset = 0

    def take(shape: tuple) -> np.ndarray:
        nonlocal offset
        nbytes = 4 * math.prod(shape)
        if offset + nbytes > len(payload):
            raise CheckpointError(f"{path}: payload shorter than manifest requires")
        arr = np.frombuffer(payload[offset : offset + nbytes], dtype="<f4").reshape(shape)
        offset += nbytes
        return arr.copy()

    params: dict[str, np.ndarray] = {}
    for entry in header["params"]:
        params[entry["name"]] = take(tuple(entry["shape"]))
    scaling = None
    if header["scaling"] is not None:
        width = int(header["scaling"]["width"])
        scaling = (take((width,)), take((width,)))
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
