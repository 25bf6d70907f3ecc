"""Dense n-dimensional float32 tensors.

Layout contract: row-major (C order); 4-D activation tensors are
[batch, height, width, channels]. Values are 32-bit floats. A float64
tensor may be constructed explicitly for verification paths (gradient
checks evaluate graphs of float64 tensors); model and checkpoint paths only
ever hold float32.
"""

import contextvars
import math
import os
import threading

import numpy as np

from .errors import ShapeMismatchError

Shape = tuple[int, ...]

# Elements per slice of chunked work over float32 storage (Adam and the l2
# penalty value in float64, the l2 gradient added into its weight's
# gradient, a weight's Glorot draws), which thereby builds no full-size
# temporary.
CHUNK = 1 << 16

# `run_chunked`'s default smallest split, in elements: below it Adam's step,
# its state's init and a weight's Glorot draws stay on the calling thread.
# On the 2-core benchmark machine a helper thread and its interpreter-lock
# handoffs cost about what the second core saves at 12 CHUNKs, while at 1272
# CHUNKs (the paper-width FRnet-1 fc1/w) Adam drops from 0.84 s to 0.50 s.
# Right after a backward pass the break-even is higher, likely because
# OpenBLAS's worker still spins on the second core: at acceptance-sanity
# widths (13.4 CHUNKs) a forced split took Adam inside a training step from
# 7.4-7.6 to 7.6-8.2 ms, though from 6.6-7.0 to 4.1 ms in a standalone loop.
PARALLEL_MIN = 16 * CHUNK


def run_chunked(n: int, body, *, align: int = CHUNK, min_split: int = PARALLEL_MIN) -> list:
    """Run `body(lo, hi)` over the range [0, n); return its results in range order.

    Five callers use it: Adam's step and its state's init (`optim`) and a
    weight's Glorot draws (`models._glorot`) split flat elements with the
    defaults, and a checkpoint's save (its checksum) and its load
    (`checkpoint._read_blocks`) split its blocks with `align=1, min_split=2`,
    each hashing them through `checkpoint._digests`. With at least
    `min_split` items and two or more usable cores (the process's CPU
    affinity), the range splits at a multiple of `align` near its middle: a
    helper thread runs the upper piece while the calling thread runs the
    lower one, and both are joined before this returns or raises. An
    exception raised on either piece is raised here (the calling thread's,
    when both raise). The helper runs in a copy of the caller's context, so
    numpy's error state (as set by `np.errstate`) holds on both pieces.
    Otherwise `body(0, n)` runs on the calling thread alone. `body` must
    touch only its own piece, and the helper gains only while it runs code
    that releases the interpreter lock: numpy's loops, `os.preadv`,
    `hashlib`.
    """
    if n < min_split or len(os.sched_getaffinity(0)) < 2:
        return [body(0, n)]
    mid = (n + align) // (2 * align) * align
    results: list = [None, None]
    errors: list = []

    def upper():
        try:
            results[1] = body(mid, n)
        except BaseException as e:  # handed to the caller below
            errors.append(e)

    worker = threading.Thread(target=contextvars.copy_context().run, args=(upper,), daemon=True)
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
    next backward pass overwrites. Every other tensor never changes. Tensors
    compare and hash by identity; compare their `data` to compare values.
    """

    __slots__ = ("_a",)

    def __init__(self, values, dtype=np.float32):
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"unsupported dtype {dtype}")
        a = np.array(values, dtype=dtype, order="C")
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

