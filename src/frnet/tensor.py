"""Dense n-dimensional float32 tensors.

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

