"""Dense n-dimensional float32 tensors.

Layout contract: row-major (C order); 4-D activation tensors are
[batch, height, width, channels]. Values are 32-bit floats. A float64
tensor may be constructed explicitly for verification paths (gradient
checks run a 64-bit shadow evaluation); model and checkpoint paths only
ever hold float32.
"""

import math
import os
import threading

import numpy as np

from .errors import ShapeMismatchError

Shape = tuple[int, ...]

# Elements per slice of chunked work over float32 storage (Adam and the l2
# penalty value in float64, the l2 gradient added into its weight's
# gradient), which thereby builds no full-size temporary.
CHUNK = 1 << 16

# Elements below which `run_chunked` stays on the calling thread. On the
# 2-core machine the benchmark was measured on, a helper thread and its
# interpreter-lock handoffs cost about what the second core saves at 12
# CHUNKs, while at 1272 CHUNKs (the paper-width FRnet-1 fc1/w) Adam drops
# from 0.84 s to 0.50 s.
PARALLEL_MIN = 16 * CHUNK


def run_chunked(n: int, body) -> list:
    """Run `body(lo, hi)` over the flat range [0, n); return its results in range order.

    With at least PARALLEL_MIN elements and two or more usable cores (the
    process's CPU affinity), the range splits at a CHUNK boundary near its
    middle: a helper thread runs the upper piece while the calling thread
    runs the lower one, and both are joined before this returns. An
    exception raised on the helper thread is re-raised here. Otherwise
    `body(0, n)` runs on the calling thread alone. `body` must touch only
    its own piece, and on the helper thread it should call only numpy,
    which releases the interpreter lock inside its loops.
    """
    if n < PARALLEL_MIN or len(os.sched_getaffinity(0)) < 2:
        return [body(0, n)]
    mid = (n + CHUNK) // (2 * CHUNK) * CHUNK
    results: list = [None, None]
    errors: list = []

    def upper():
        try:
            results[1] = body(mid, n)
        except BaseException as e:  # handed to the caller below
            errors.append(e)

    worker = threading.Thread(target=upper, daemon=True)
    worker.start()
    try:
        results[0] = body(0, mid)
    finally:
        worker.join()
    if errors:
        raise errors[0]
    return results


def check_shape(dims) -> Shape:
    """Validate extents and return them as a tuple."""
    shape = tuple(int(d) for d in dims)
    if any(d < 1 for d in shape):
        raise ShapeMismatchError(f"every extent must be >= 1, got {shape}")
    if math.prod(shape) > np.iinfo(np.intp).max:
        raise ShapeMismatchError(f"element count of {shape} overflows the platform integer")
    return shape


class Tensor:
    """Dense array with fixed shape and row-major float storage, read-only to its holders.

    Holders never write through a tensor. Two owners do, in place: a model's
    parameter tensors are overwritten by `optim.adam_step`, and the gradient
    tensors `Graph.backward` returns are views of buffers that the graph's
    next backward pass overwrites. Every other tensor never changes.
    """

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

