"""Adam optimizer and the binary cross-entropy loss as a plain function.

Adam keeps its moments and a master copy of each parameter in float64 so
that its state tracks a 64-bit scalar reference to within rounding; the
parameters the network reads are float32, matching the tensor contract. Each
step overwrites m, v, the masters and the float32 parameters in place, in
flat chunks, so it builds no full-size temporary. Defaults: lr 0.001, beta1
0.9, beta2 0.999, epsilon 1e-8.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError
from .nnops import _bce_fwd
from .tensor import CHUNK, Tensor, run_chunked


@dataclass
class AdamState:
    """Adam's hyperparameters, step count and per-parameter float64 state.

    The state owns m, v and master, and `adam_step` overwrites them in place
    on every step: copy one to keep an earlier step's values. The parameter
    tensors stay with their owner (the model); `init` copies their values.
    """

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    master: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def init(cls, params: dict[str, Tensor], lr=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8):
        state = cls(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon)
        for name, p in params.items():
            state.m[name] = np.zeros(p.shape, dtype=np.float64)
            state.v[name] = np.zeros(p.shape, dtype=np.float64)
            state.master[name] = p.data.astype(np.float64)
        return state


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
    the tensors the state was initialized from or last updated. All names
    and shapes are checked, and every parameter array must be float32 and
    writeable in place (one that owns its memory, or a view of writeable
    memory), before anything changes, so a rejected call leaves the state
    and the parameters untouched. The arrays are read-only again on return.

    Updates run in place over CHUNK elements at a time, and `run_chunked`
    splits a large parameter's range over two threads; every operation is
    elementwise, so neither changes a bit. Each chunk of the masters is
    rounded to float32 once, into the parameter, while it is still in
    cache. The chunks go through one pair of CHUNK-sized float64 scratch
    buffers per range piece, allocated once per step and shared by every
    parameter.
    """
    if not set(params) == set(grads) == set(state.m) == set(state.v) == set(state.master):
        raise ShapeMismatchError("adam_step: names of params, grads and optimizer state differ")
    for name, p in params.items():
        shapes = (grads[name].shape,) + tuple(d[name].shape for d in (state.m, state.v, state.master))
        if any(shape != p.shape for shape in shapes):
            raise ShapeMismatchError(f"adam_step: {name}: param {p.shape}, grad/m/v/master {shapes}")
    unlocked = []
    for name, p in params.items():
        if not _unlock(p.data):
            for a in unlocked:
                a.flags.writeable = False
            raise ShapeMismatchError(f"adam_step: {name}: not a float32 array it can write in place")
        unlocked.append(p.data)
    state.t += 1
    t = state.t
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.epsilon
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t

    # run_chunked's lower piece starts at 0 and runs on this thread, its
    # upper piece (if any) on the helper thread: one scratch pair each
    width = min(CHUNK, max((p.size for p in params.values()), default=1))
    scratch = [(np.empty(width), np.empty(width)) for _ in range(2)]

    def update(g, m, v, w, w32, lo, hi):
        buf_g, buf_a = scratch[int(lo > 0)]
        for s in range(lo, hi, CHUNK):
            k = min(CHUNK, hi - s)
            gc, a = buf_g[:k], buf_a[:k]
            mc, vc, wc = m[s : s + k], v[s : s + k], w[s : s + k]
            np.copyto(gc, g[s : s + k])
            # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g^2
            np.multiply(mc, b1, out=mc)
            np.add(mc, np.multiply(gc, 1.0 - b1, out=a), out=mc)
            np.multiply(vc, b2, out=vc)
            np.multiply(np.square(gc, out=gc), 1.0 - b2, out=gc)
            np.add(vc, gc, out=vc)
            # master -= (lr * m/bc1) / (sqrt(v/bc2) + eps)
            np.add(np.sqrt(np.divide(vc, bc2, out=gc), out=gc), eps, out=gc)
            np.multiply(np.divide(mc, bc1, out=a), lr, out=a)
            np.subtract(wc, np.divide(a, gc, out=a), out=wc)
            np.copyto(w32[s : s + k], wc, casting="same_kind")

    try:
        for name, p in params.items():
            for slot in (state.m, state.v, state.master):
                slot[name] = np.require(slot[name], np.float64, ["C", "W"])
            g = grads[name].data.reshape(-1)
            m, v, w = (slot[name].reshape(-1) for slot in (state.m, state.v, state.master))
            run_chunked(g.size, functools.partial(update, g, m, v, w, p.data.reshape(-1)))
    finally:
        for a in unlocked:
            a.flags.writeable = False
    return params


def bce_loss(pred: Tensor, target: Tensor, eps_clip: float = 1e-7) -> float:
    """Mean binary cross-entropy with predictions clipped to [eps, 1-eps].

    This is the graph's `bce` kernel run on float64 copies of the inputs.
    """
    args = [pred.data.astype(np.float64), target.data.astype(np.float64)]
    loss, _ = _bce_fwd(args, {"eps": eps_clip}, None)
    return float(loss[0])
