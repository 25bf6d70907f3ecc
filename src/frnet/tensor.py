"""Dense n-dimensional float32 tensors and their shape algebra.

Layout contract: row-major (C order); 4-D activation tensors are
[batch, height, width, channels]. Values are 32-bit floats. A float64
tensor may be constructed explicitly for verification paths (gradient
checks run a 64-bit shadow evaluation); model and checkpoint paths only
ever hold float32.
"""

import math

import numpy as np

from .errors import ShapeMismatchError

Shape = tuple[int, ...]

# Elements per slice of chunked float64 work over float32 storage (Adam, the
# l2 penalty value), which thereby builds no full-size float64 temporary.
CHUNK = 1 << 16


def check_shape(dims) -> Shape:
    """Validate extents and return them as a tuple."""
    shape = tuple(int(d) for d in dims)
    if any(d < 1 for d in shape):
        raise ShapeMismatchError(f"every extent must be >= 1, got {shape}")
    if math.prod(shape) > np.iinfo(np.intp).max:
        raise ShapeMismatchError(f"element count of {shape} overflows the platform integer")
    return shape


class Tensor:
    """Immutable dense array with fixed shape and row-major float storage."""

    __slots__ = ("_a",)

    def __init__(self, values, shape: Shape | None = None, dtype=np.float32):
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"unsupported dtype {dtype}")
        a = np.array(values, dtype=dtype, order="C")
        if shape is not None:
            shape = check_shape(shape)
            if a.size != math.prod(shape):
                raise ShapeMismatchError(
                    f"{a.size} values cannot fill shape {shape} ({math.prod(shape)} elements)"
                )
            a = a.reshape(shape)
        else:
            check_shape(a.shape if a.ndim else (1,))
        if a.ndim == 0:
            a = a.reshape(1)
        a.flags.writeable = False
        self._a = a

    @classmethod
    def _wrap(cls, array: np.ndarray) -> "Tensor":
        """Take ownership of `array`: mark it read-only and share its storage.

        The caller must not write to it afterwards. Only a non-contiguous
        array is copied, into row-major layout.
        """
        t = object.__new__(cls)
        a = np.ascontiguousarray(array)
        a.flags.writeable = False
        t._a = a
        return t

    @classmethod
    def zeros(cls, shape: Shape, dtype=np.float32) -> "Tensor":
        return cls._wrap(np.zeros(check_shape(shape), dtype=dtype))

    @classmethod
    def full(cls, shape: Shape, value: float, dtype=np.float32) -> "Tensor":
        return cls._wrap(np.full(check_shape(shape), value, dtype=dtype))

    @property
    def shape(self) -> Shape:
        return self._a.shape

    @property
    def dtype(self):
        return self._a.dtype.type

    @property
    def size(self) -> int:
        return self._a.size

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the backing array (shaped, C order)."""
        return self._a

    def ravel(self) -> np.ndarray:
        """Read-only flat row-major view."""
        return self._a.reshape(-1)

    def tolist(self):
        return self._a.tolist()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self._a.dtype.name})"

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.shape == other.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self):
        return hash((self.shape, self._a.tobytes()))


def reshape(t: Tensor, shape: Shape) -> Tensor:
    """Reinterpret t with a new shape; element count and order are preserved."""
    shape = check_shape(shape)
    if t.size != math.prod(shape):
        raise ShapeMismatchError(
            f"cannot reshape {t.size} elements into {shape} ({math.prod(shape)} elements)"
        )
    return Tensor._wrap(t.data.reshape(shape))


_ELEMENTWISE = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
}


def elementwise(a: Tensor, b: Tensor, op: str) -> Tensor:
    """Apply add/sub/mul element by element. No broadcasting: shapes must match."""
    if op not in _ELEMENTWISE:
        raise ValueError(f"unknown elementwise op {op!r}")
    if a.shape != b.shape:
        raise ShapeMismatchError(f"elementwise {op}: shapes {a.shape} and {b.shape} differ")
    return Tensor._wrap(_ELEMENTWISE[op](a.data, b.data))


def add(a: Tensor, b: Tensor) -> Tensor:
    return elementwise(a, b, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    return elementwise(a, b, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    return elementwise(a, b, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of rank-2 tensors.

    Accumulation is delegated to BLAS at the operand precision (float32 for
    float32 operands); results are rounded to the operand dtype.
    """
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise ShapeMismatchError(f"matmul expects rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    return Tensor._wrap(a.data @ b.data)


def concat_channels(parts: list[Tensor]) -> Tensor:
    """Concatenate rank-4 tensors along the channel axis, preserving order."""
    if not parts:
        raise ShapeMismatchError("concat_channels requires at least one part")
    first = parts[0].shape
    if len(first) != 4:
        raise ShapeMismatchError(f"concat_channels expects rank-4 parts, got {first}")
    for p in parts[1:]:
        if len(p.shape) != 4 or p.shape[:3] != first[:3]:
            raise ShapeMismatchError(
                f"concat_channels: batch/height/width must match, got {first} and {p.shape}"
            )
    if len(parts) == 1:
        return parts[0]
    return Tensor._wrap(np.concatenate([p.data for p in parts], axis=3))
