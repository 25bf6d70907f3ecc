"""Adam optimizer and the binary cross-entropy loss as a plain function.

Adam keeps its moments and a master copy of the parameters in float64, as
three flat vectors over every parameter, so that its state tracks a 64-bit
scalar reference to within rounding; the parameters the network reads are
float32, matching the tensor contract. Each step overwrites the state and
the parameters in place, in flat chunks, so it builds no full-size
temporary. The learning rate defaults to 0.001; beta1, beta2 and epsilon are
the published constants 0.9, 0.999 and 1e-8 (Kingma & Ba, arXiv 1412.6980).
"""

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError
from .nnops import _bce_fwd
from .tensor import CHUNK, Tensor, run_chunked

BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam's learning rate, step count and flat float64 state.

    `layout` holds each parameter's name and shape, in `init` order, and m,
    v and master hold every parameter's elements back to back in that order.
    `adam_step` overwrites them in place: copy one to keep an earlier step's
    values. The parameters stay with their owner (the model); `init` copies
    their values into master with one `run_chunked` gather.
    """

    lr: float = 0.001
    t: int = 0
    layout: tuple[tuple[str, tuple[int, ...]], ...] = ()
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    master: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def init(cls, params: dict[str, Tensor], lr=0.001):
        flats = [p.data.reshape(-1) for p in params.values()]
        starts = [0, *itertools.accumulate(a.size for a in flats)]
        master = np.empty(starts[-1])

        def gather(lo, hi):
            for j, p, q in _spans(starts, lo, hi):
                np.copyto(master[p:q], flats[j][p - starts[j] : q - starts[j]])

        run_chunked(master.size, gather)
        return cls(lr, layout=tuple((name, p.shape) for name, p in params.items()),
                   m=np.zeros(master.size), v=np.zeros(master.size), master=master)


def _spans(starts, lo, hi):
    """Each parameter j that the flat range [lo, hi) spans, with the range [p, q) of it covered.

    `starts` holds each parameter's flat offset, then the total.
    """
    return [(j, max(lo, starts[j]), min(hi, starts[j + 1]))
            for j in range(bisect.bisect_right(starts, lo) - 1, bisect.bisect_left(starts, hi))]


def _unlock(a: np.ndarray) -> bool:
    """Make float32 `a` writeable; False if it is not float32 or its memory is read-only."""
    if a.dtype != np.float32:
        return False
    try:
        a.flags.writeable = True
    except ValueError:
        return False
    return True


def adam_step(
    params: dict[str, Tensor], grads: dict[str, Tensor], state: AdamState
) -> dict[str, Tensor]:
    """One bias-corrected Adam update, written into `params`; returns `params`.

    The returned tensors are the ones handed in: each parameter's array is
    overwritten with its new float32 values, so every holder of those
    tensors (the model's graph included) sees the update. `params` must be
    the tensors the state was initialized from or last updated. The names
    and shapes of `params` (in any order) and of `grads` must each equal the
    state's layout, and every parameter must be a float32 array writeable in
    place (one that owns its memory, or a view of writeable memory). All of
    it is checked before anything changes, so a rejected call leaves the
    state and the parameters untouched. The arrays are read-only again on
    return.

    One `run_chunked` call covers the flat state, CHUNK elements at a time,
    split over two threads when large; every operation is elementwise, so
    neither changes a bit. A chunk copies the gradients of the parameters it
    spans into float64 scratch (one CHUNK-sized pair per thread), updates
    m, v and the masters, and rounds the masters to float32 into those
    parameters while they are still in cache.
    """
    want = dict(state.layout)
    for what, d in (("params", params), ("grads", grads)):
        if {name: x.shape for name, x in d.items()} != want:
            raise ShapeMismatchError(f"adam_step: names or shapes of {what} differ from the optimizer state")
    starts = [0, *itertools.accumulate(math.prod(shape) for shape in want.values())]
    n = starts[-1]
    if any(a.shape != (n,) or a.dtype != np.float64 for a in (state.m, state.v, state.master)):
        raise ShapeMismatchError(f"adam_step: the optimizer state is not three float64 vectors of {n}")
    arrays, gs = [params[k].data for k in want], [grads[k].data.reshape(-1) for k in want]
    # run_chunked's lower piece starts at 0, its upper piece elsewhere: one scratch pair each
    scratch = [(np.empty(min(CHUNK, n)), np.empty(min(CHUNK, n))) for _ in range(2)]

    def update(lo, hi):
        buf_g, buf_a = scratch[int(lo > 0)]
        for s in range(lo, hi, CHUNK):
            e = min(s + CHUNK, hi)
            gc, a = buf_g[: e - s], buf_a[: e - s]
            mc, vc, wc = state.m[s:e], state.v[s:e], state.master[s:e]
            parts = _spans(starts, s, e)
            for j, p, q in parts:
                np.copyto(gc[p - s : q - s], gs[j][p - starts[j] : q - starts[j]])
            # m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g^2
            np.multiply(mc, BETA1, out=mc)
            np.add(mc, np.multiply(gc, 1.0 - BETA1, out=a), out=mc)
            np.multiply(vc, BETA2, out=vc)
            np.multiply(np.square(gc, out=gc), 1.0 - BETA2, out=gc)
            np.add(vc, gc, out=vc)
            # master -= (lr * m/bc1) / (sqrt(v/bc2) + eps)
            np.add(np.sqrt(np.divide(vc, bc2, out=gc), out=gc), EPSILON, out=gc)
            np.multiply(np.divide(mc, bc1, out=a), state.lr, out=a)
            np.subtract(wc, np.divide(a, gc, out=a), out=wc)
            for j, p, q in parts:
                np.copyto(ws[j][p - starts[j] : q - starts[j]], wc[p - s : q - s], casting="same_kind")

    try:
        for name, a in zip(want, arrays):
            if not _unlock(a):
                raise ShapeMismatchError(f"adam_step: {name}: not a float32 array it can write in place")
        ws = [a.reshape(-1) for a in arrays]  # views made after the unlock are writeable
        state.t += 1
        bc1, bc2 = 1.0 - BETA1**state.t, 1.0 - BETA2**state.t
        run_chunked(n, update)
    finally:
        for a in arrays:
            a.flags.writeable = False
    return params


def bce_loss(pred: Tensor, target: Tensor) -> float:
    """Mean binary cross-entropy with predictions clipped to [1e-7, 1 - 1e-7].

    This is the graph's `bce` kernel run on float64 copies of the inputs.
    """
    args = [pred.data.astype(np.float64), target.data.astype(np.float64)]
    loss, _ = _bce_fwd(args, {}, None)
    return float(loss[0])
