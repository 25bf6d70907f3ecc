"""Shared test helpers: one-op graph evaluation, a finite-difference gradient
checker for graph ops, a peak-allocation probe, the allocating backward pass
and Adam update kept as bitwise references, and the settings of the fuzz
tests."""

import tracemalloc

import numpy as np
from hypothesis import settings

from frnet.autodiff import _REGISTRY, EVAL, TRAIN, Graph
from frnet.tensor import Tensor

GRAD_STEP = 1e-3
GRAD_TOL = 1e-4

# fuzz tests stay deterministic and bounded: same examples every run
FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None)


def peak_alloc(fn):
    """Run fn(); return its result and the peak bytes traced above the start.

    numpy reports its array buffers to tracemalloc, so this counts them too.
    """
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base


def run_op(kind: str, *inputs, mode: str = EVAL, dropout_seed: int = 0, **attrs) -> np.ndarray:
    """Forward value of a one-op graph: `kind` applied to float32 copies of inputs."""
    g = Graph()
    args = [g.parameter(f"p{i}", Tensor(x)) for i, x in enumerate(inputs)]
    node = g.apply(kind, args, **attrs)
    return g.forward({}, mode=mode, dropout_seed=dropout_seed, outputs=[node])[node].data


def op_gradcheck(
    kind: str,
    inputs: list[np.ndarray],
    attrs: dict | None = None,
    *,
    mode: str = EVAL,
    dropout_seed: int = 0,
    rng: np.random.Generator | None = None,
    check_inputs: list[int] | None = None,
) -> float:
    """Max relative error between backward() and central differences.

    Builds loss = reduce_sum(op(inputs) * weights) with fixed random weights
    so every output element contributes, runs the 64-bit shadow path, and
    perturbs each input element by +-GRAD_STEP. Returns the worst relative
    error over the checked inputs (denominator max(|numeric|, 1e-8)).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    g = Graph()
    params = [
        g.parameter(f"p{i}", Tensor(np.asarray(x, dtype=np.float64), dtype=np.float64))
        for i, x in enumerate(inputs)
    ]
    node = g.apply(kind, params, **(attrs or {}))
    probe = g.forward({}, mode=mode, dropout_seed=dropout_seed, outputs=[node], precision="double")
    weights = rng.standard_normal(probe[node].shape)
    wp = g.placeholder("weights")
    weighted = g.apply("mul", [node, wp])
    loss = g.apply("reduce_sum", [weighted])
    feeds = {wp: Tensor(weights, dtype=np.float64)}

    def run_loss() -> float:
        vals = g.forward(feeds, mode=mode, dropout_seed=dropout_seed,
                         outputs=[loss], precision="double")
        return float(vals[loss].data[0])

    run_loss()
    grads = g.backward(loss)
    worst = 0.0
    targets = check_inputs if check_inputs is not None else range(len(inputs))
    for i in targets:
        x = np.array(inputs[i], dtype=np.float64)
        analytic = grads[params[i]].data
        flat = x.reshape(-1)
        numeric = np.empty(flat.shape)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + GRAD_STEP
            g.set_parameter(params[i], Tensor(x, dtype=np.float64))
            hi = run_loss()
            flat[j] = keep - GRAD_STEP
            g.set_parameter(params[i], Tensor(x, dtype=np.float64))
            lo = run_loss()
            flat[j] = keep
            numeric[j] = (hi - lo) / (2 * GRAD_STEP)
        g.set_parameter(params[i], Tensor(x, dtype=np.float64))
        denom = np.maximum(np.abs(numeric), 1e-8)
        err = np.abs(analytic.reshape(-1) - numeric) / denom
        worst = max(worst, float(err.max()))
    return worst


def scalar_adam_reference(x0, grads, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam on one float64 scalar; returns x after each step."""
    import math

    x, m, v = float(x0), 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        g = float(g)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        x -= lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(x)
    return out


def allocating_backward(g, loss_id):
    """Parameter gradients by node id from the backward pass as first written:
    every rule allocates, and every fan-in sum is a fresh a + g."""
    adjoints = {loss_id: np.ones_like(g._values[loss_id])}
    for node in reversed(g.nodes):
        if node.id not in adjoints or not node.inputs:
            continue
        args = [g._values[i] for i in node.inputs]
        in_grads = _REGISTRY[node.op].backward(
            adjoints[node.id], args, g._values[node.id], g._saved.get(node.id), node.attrs
        )
        for inp, d in zip(node.inputs, in_grads):
            if d is not None:
                adjoints[inp] = adjoints[inp] + d if inp in adjoints else d
    return {i: adjoints[i].copy() for i in g.parameters().values()}


def allocating_adam_step(params, grads, state):
    """The Adam update adam_step replaced, kept as its bitwise reference: it
    builds every temporary and returns new float32 parameter tensors."""
    state.t += 1
    t = state.t
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    out = {}
    for name in params:
        g64 = grads[name].data.astype(np.float64)
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g64
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * np.square(g64)
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        state.master[name] -= state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
        out[name] = Tensor(state.master[name].astype(np.float32))
    return out


def gradcheck_cases() -> list[dict]:
    """One entry per gradient-check instance, covering every operator kind.

    Inputs are chosen to keep the loss smooth within +-GRAD_STEP of the
    sample point: relu inputs stay away from 0, maxpool inputs are distinct
    with gaps far above the step, bce predictions stay inside the clip band.
    """
    rng = np.random.default_rng(42)

    def rand(*shape, lo=-1.0, hi=1.0):
        return rng.uniform(lo, hi, size=shape)

    def away_from_zero(*shape, margin=0.05):
        mag = rng.uniform(margin, 1.0, size=shape)
        return mag * rng.choice([-1.0, 1.0], size=shape)

    def distinct(*shape, step=0.05):
        vals = np.arange(np.prod(shape), dtype=np.float64) * step
        return rng.permutation(vals).reshape(shape)

    return [
        dict(kind="conv2d", inputs=[rand(2, 5, 4, 3), rand(3, 2, 3, 2), rand(2)],
             attrs={"stride": 2}),
        dict(kind="conv2d", inputs=[rand(1, 4, 4, 1), rand(1, 1, 1, 3), rand(3)],
             attrs={"stride": 1}),
        dict(kind="conv2d", inputs=[rand(2, 3, 3, 2), rand(5, 5, 2, 1), rand(1)],
             attrs={"stride": 3}),
        dict(kind="maxpool2d", inputs=[distinct(1, 5, 5, 2)], attrs={"kernel": 2, "stride": 2}),
        dict(kind="maxpool2d", inputs=[distinct(2, 4, 3, 1)], attrs={"kernel": 3, "stride": 2}),
        dict(kind="matmul", inputs=[rand(4, 6), rand(6, 3)]),
        dict(kind="matmul", inputs=[rand(1, 2), rand(2, 5)]),
        dict(kind="bias_add", inputs=[rand(3, 4), rand(4)]),
        dict(kind="bias_add", inputs=[rand(2, 3, 2, 5), rand(5)]),
        dict(kind="relu", inputs=[away_from_zero(3, 7)]),
        dict(kind="sigmoid", inputs=[rand(4, 5, lo=-3.0, hi=3.0)]),
        dict(kind="dropout", inputs=[rand(6, 6)], attrs={"keep_prob": 0.7},
             mode=TRAIN, dropout_seed=9),
        dict(kind="dropout", inputs=[rand(3, 3)], attrs={"keep_prob": 0.5}, mode=EVAL),
        dict(kind="flatten", inputs=[rand(2, 3, 2, 2)]),
        dict(kind="reshape", inputs=[rand(2, 6)], attrs={"item_shape": (3, 2, 1)}),
        dict(kind="concat", inputs=[rand(2, 3, 2, 1), rand(2, 3, 2, 4), rand(2, 3, 2, 2)]),
        dict(kind="add", inputs=[rand(3, 3), rand(3, 3)]),
        dict(kind="sub", inputs=[rand(3, 3), rand(3, 3)]),
        dict(kind="mul", inputs=[rand(3, 3), rand(3, 3)]),
        dict(kind="reduce_sum", inputs=[rand(4, 3)]),
        dict(kind="reduce_mean", inputs=[rand(2, 3, 4)]),
        dict(kind="bce", inputs=[rand(8, lo=0.1, hi=0.9),
                                 rng.integers(0, 2, 8).astype(np.float64)]),
        dict(kind="bce", inputs=[rand(5, lo=0.2, hi=0.8), rand(5, lo=0.0, hi=1.0)]),
        dict(kind="l2_penalty", inputs=[rand(4, 3)], attrs={"scale": 0.003}),
    ]


def random_gradcheck_case(kind: str, rng: np.random.Generator) -> dict:
    """A fresh random instance for one operator kind, smooth within the step.

    Shapes stay small (a few dozen elements) so the central-difference sweep
    over every input element remains cheap.
    """

    def rand(*shape, lo=-1.0, hi=1.0):
        return rng.uniform(lo, hi, size=shape)

    def away_from_zero(*shape, margin=0.05):
        mag = rng.uniform(margin, 1.0, size=shape)
        return mag * rng.choice([-1.0, 1.0], size=shape)

    def distinct(*shape, step=0.05):
        vals = np.arange(np.prod(shape), dtype=np.float64) * step
        return rng.permutation(vals).reshape(shape)

    def d(lo, hi):
        return int(rng.integers(lo, hi + 1))

    if kind == "conv2d":
        cin, cout = d(1, 2), d(1, 2)
        return dict(
            kind=kind,
            inputs=[rand(d(1, 2), d(1, 4), d(1, 4), cin),
                    rand(d(1, 3), d(1, 3), cin, cout), rand(cout)],
            attrs={"stride": d(1, 3)},
        )
    if kind == "maxpool2d":
        return dict(kind=kind, inputs=[distinct(d(1, 2), d(1, 5), d(1, 5), d(1, 2))],
                    attrs={"kernel": d(1, 3), "stride": d(1, 3)})
    if kind == "matmul":
        m, k, n = d(1, 5), d(1, 5), d(1, 5)
        return dict(kind=kind, inputs=[rand(m, k), rand(k, n)])
    if kind == "bias_add":
        c = d(1, 5)
        if rng.random() < 0.5:
            return dict(kind=kind, inputs=[rand(d(1, 3), c), rand(c)])
        return dict(kind=kind, inputs=[rand(d(1, 2), d(1, 3), d(1, 3), c), rand(c)])
    if kind == "relu":
        return dict(kind=kind, inputs=[away_from_zero(d(1, 4), d(1, 4))])
    if kind == "sigmoid":
        return dict(kind=kind, inputs=[rand(d(1, 4), d(1, 4), lo=-3.0, hi=3.0)])
    if kind == "dropout":
        return dict(
            kind=kind,
            inputs=[rand(d(2, 5), d(2, 5))],
            attrs={"keep_prob": float(rng.choice([0.5, 0.7, 0.9]))},
            mode=TRAIN if rng.random() < 0.7 else EVAL,
            dropout_seed=int(rng.integers(0, 2**31)),
        )
    if kind == "flatten":
        return dict(kind=kind, inputs=[rand(d(1, 3), d(1, 3), d(1, 3), d(1, 3))])
    if kind == "reshape":
        a, b, c = d(1, 3), d(1, 3), d(1, 3)
        return dict(kind=kind, inputs=[rand(d(1, 3), a * b * c)],
                    attrs={"item_shape": (a, b, c)})
    if kind == "concat":
        n, h, w = d(1, 2), d(1, 3), d(1, 3)
        return dict(kind=kind,
                    inputs=[rand(n, h, w, d(1, 3)) for _ in range(d(2, 4))])
    if kind in ("add", "sub", "mul"):
        shape = tuple(int(s) for s in rng.integers(1, 5, size=d(1, 2)))
        return dict(kind=kind, inputs=[rand(*shape), rand(*shape)])
    if kind in ("reduce_sum", "reduce_mean"):
        shape = tuple(int(s) for s in rng.integers(1, 4, size=d(1, 3)))
        return dict(kind=kind, inputs=[rand(*shape)])
    if kind == "bce":
        # keep |pred - target| bounded below: where they nearly coincide the
        # true per-element gradient vanishes and the fd comparison is pure
        # truncation noise
        n = d(2, 8)
        pred = rand(n, lo=0.15, hi=0.85)
        if rng.random() < 0.5:
            target = rng.integers(0, 2, n).astype(np.float64)
        else:
            offset = rng.uniform(0.1, 0.14, n) * rng.choice([-1.0, 1.0], n)
            target = np.clip(pred + offset, 0.0, 1.0)
        return dict(kind=kind, inputs=[pred, target])
    if kind == "l2_penalty":
        return dict(kind=kind, inputs=[rand(d(1, 4), d(1, 4))],
                    attrs={"scale": float(rng.uniform(0.001, 0.5))})
    raise ValueError(f"no random case for op kind {kind!r}")
