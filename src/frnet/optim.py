"""Adam optimizer, binary cross-entropy loss, and loss combination.

Adam keeps its moments and a master copy of each parameter in float64 so
that its state tracks a 64-bit scalar reference to within rounding; the
parameters handed back to the network are float32, matching the tensor
contract. Each step overwrites m, v and the masters in place, in flat chunks,
so it builds no full-size float64 temporary. Defaults: lr 0.001, beta1 0.9,
beta2 0.999, epsilon 1e-8.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError
from .tensor import CHUNK, Tensor


@dataclass
class AdamState:
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


def adam_step(
    params: dict[str, Tensor], grads: dict[str, Tensor], state: AdamState
) -> dict[str, Tensor]:
    """One bias-corrected Adam update; returns the new float32 parameters.

    `params` must be the tensors produced by the previous step (or the ones
    the state was initialized from). All names and shapes are checked before
    the state changes, so a rejected call leaves it untouched. Updates run in
    place over CHUNK elements at a time; every operation is elementwise, so
    chunking changes no bit. Masters are rounded once on the way out.
    """
    if not set(params) == set(grads) == set(state.m) == set(state.v) == set(state.master):
        raise ShapeMismatchError("adam_step: names of params, grads and optimizer state differ")
    for name, p in params.items():
        shapes = (grads[name].shape,) + tuple(d[name].shape for d in (state.m, state.v, state.master))
        if any(shape != p.shape for shape in shapes):
            raise ShapeMismatchError(f"adam_step: {name}: param {p.shape}, grad/m/v/master {shapes}")
    state.t += 1
    t = state.t
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.epsilon
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    buf_g = np.empty(CHUNK)
    buf_a = np.empty(CHUNK)
    out = {}
    for name in params:
        for slot in (state.m, state.v, state.master):
            slot[name] = np.require(slot[name], np.float64, ["C", "W"])
        g = grads[name].data.reshape(-1)
        m, v, w = (slot[name].reshape(-1) for slot in (state.m, state.v, state.master))
        for s in range(0, g.size, CHUNK):
            k = min(CHUNK, g.size - s)
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
        out[name] = Tensor._wrap(state.master[name].astype(np.float32))
    return out


def bce_loss(pred: Tensor, target: Tensor, eps_clip: float = 1e-7) -> float:
    """Mean binary cross-entropy with predictions clipped to [eps, 1-eps]."""
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"bce_loss: shapes {pred.shape} and {target.shape} differ")
    p = pred.data.astype(np.float64)
    y = target.data.astype(np.float64)
    if not (np.isfinite(p).all() and np.isfinite(y).all()):
        raise ValueError("bce_loss: inputs must be finite")
    p = np.clip(p, eps_clip, 1.0 - eps_clip)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def total_loss(data_loss: float, l2_penalties: list[float]) -> float:
    """Data loss plus the sum of per-layer weight penalties."""
    return float(data_loss) + float(sum(l2_penalties))


@dataclass(frozen=True)
class LossConfig:
    kind: str = "binary-crossentropy"
    l2_scale: float = 0.001
    eps_clip: float = 1e-7

    def __post_init__(self):
        if self.kind != "binary-crossentropy":
            raise ValueError(f"unsupported loss kind {self.kind!r}")
        if self.l2_scale < 0:
            raise ValueError("l2_scale must be nonnegative")
        if not 0 < self.eps_clip < 0.5:
            raise ValueError("eps_clip must be in (0, 0.5)")
