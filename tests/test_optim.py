"""Adam updates, binary cross-entropy, and loss composition."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import scalar_adam_reference
from frnet.errors import GraphError, ShapeMismatchError
from frnet.models import build_frnet1, compile_model
from frnet.optim import AdamState, adam_step, bce_loss
from frnet.tensor import CHUNK, Tensor


def test_state_init_matches_parameter_shapes():
    params = {"w": Tensor.zeros((3, 2)), "b": Tensor.zeros((2,))}
    state = AdamState.init(params)
    assert state.t == 0
    assert state.m["w"].shape == (3, 2) and state.v["b"].shape == (2,)
    assert state.lr == 0.001 and state.beta1 == 0.9
    assert state.beta2 == 0.999 and state.epsilon == 1e-8


def test_first_step_magnitude_is_lr():
    for g in (2.5, -0.03, 1e4):
        params = {"x": Tensor([1.0, 1.0])}
        state = AdamState.init(params, lr=0.001)
        new = adam_step(params, {"x": Tensor([g, g])}, state)
        delta = new["x"].data - params["x"].data
        assert state.t == 1
        # bias-corrected first step is -lr * sign(g), up to the epsilon term
        assert np.allclose(delta, -math.copysign(0.001, g), rtol=1e-3)


def test_zero_gradient_is_fixed_point():
    params = {"x": Tensor([0.7, -1.2])}
    state = AdamState.init(params)
    for _ in range(5):
        params = adam_step(params, {"x": Tensor.zeros((2,))}, state)
    assert params["x"] == Tensor([0.7, -1.2])
    assert state.t == 5


def test_quadratic_descent_tracks_scalar_reference():
    params = {"x": Tensor([1.0])}
    state = AdamState.init(params, lr=0.1)
    xs, grads = [], []
    x = params["x"]
    for _ in range(50):
        g = 2.0 * float(x.data[0])
        grads.append(g)
        params = adam_step({"x": x}, {"x": Tensor([g])}, state)
        x = params["x"]
        xs.append(float(x.data[0]))
    ref = scalar_adam_reference(1.0, grads, lr=0.1)
    assert abs(xs[-1]) < 0.5
    assert all(xs[i] > xs[i + 1] for i in range(10))  # early descent is monotone
    assert max(abs(a - b) for a, b in zip(xs, ref)) < 1e-6


def test_hundred_random_steps_match_reference_per_element():
    rng = np.random.default_rng(77)
    shapes = {"w": (3, 2), "b": (4,)}
    params = {k: Tensor(rng.standard_normal(s).astype(np.float32)) for k, s in shapes.items()}
    state = AdamState.init(params, lr=0.02)
    flat0 = {k: params[k].ravel().tolist() for k in shapes}
    grad_hist = {k: [] for k in shapes}
    traj = {k: [] for k in shapes}
    for _ in range(100):
        grads = {k: Tensor(rng.standard_normal(s).astype(np.float32)) for k, s in shapes.items()}
        params = adam_step(params, grads, state)
        for k in shapes:
            grad_hist[k].append(grads[k].ravel().tolist())
            traj[k].append(params[k].ravel().tolist())
    # Adam is elementwise: every coordinate must follow the scalar reference
    for k in shapes:
        n = len(flat0[k])
        for j in range(n):
            ref = scalar_adam_reference(
                flat0[k][j], [g[j] for g in grad_hist[k]], lr=0.02
            )
            for t in range(100):
                got = traj[k][t][j]
                assert abs(got - ref[t]) / max(abs(ref[t]), 1e-8) < 1e-6


def test_adam_rejects_mismatched_names_and_shapes():
    params = {"x": Tensor([1.0])}
    state = AdamState.init(params)
    with pytest.raises(ShapeMismatchError):
        adam_step({"y": Tensor([1.0])}, {"y": Tensor([1.0])}, state)
    with pytest.raises(ShapeMismatchError):
        adam_step({"x": Tensor([1.0])}, {"x": Tensor([1.0, 2.0])}, state)


def _reference_adam_step(params, grads, state):
    # the allocating update adam_step replaced, kept as the bitwise reference
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


@pytest.mark.parametrize(
    "shape",
    [(CHUNK - 3,), (CHUNK,), (3, CHUNK // 2 + 7), (2, 5, CHUNK // 4 + 1)],
    ids=["below-chunk", "one-chunk", "spanning-2", "spanning-3"],
)
def test_chunked_adam_is_bitwise_equal_to_allocating_formula(shape):
    rng = np.random.default_rng(2024)
    params = {"w": Tensor(rng.standard_normal(shape).astype(np.float32)), "b": Tensor([0.5, -1.5])}
    got_state = AdamState.init(params, lr=0.01)
    ref_state = AdamState.init(params, lr=0.01)
    got = ref = params
    for step in range(20):
        scale = 10.0 ** (step % 7 - 3)  # gradients spanning many binades
        grads = {
            "w": Tensor((scale * rng.standard_normal(shape)).astype(np.float32)),
            "b": Tensor((scale * rng.standard_normal(2)).astype(np.float32)),
        }
        got = adam_step(got, grads, got_state)
        ref = _reference_adam_step(ref, grads, ref_state)
        for name in params:
            assert got[name].data.tobytes() == ref[name].data.tobytes()
            for slot in ("m", "v", "master"):
                a, b = getattr(got_state, slot)[name], getattr(ref_state, slot)[name]
                assert a.tobytes() == b.tobytes()
    assert got_state.t == ref_state.t == 20


def _snapshot(state):
    return state.t, {
        slot: {n: a.tobytes() for n, a in getattr(state, slot).items()}
        for slot in ("m", "v", "master")
    }


def test_rejected_adam_step_leaves_state_untouched():
    params = {"a": Tensor([1.0, 2.0]), "z": Tensor([[1.0], [2.0]])}
    state = AdamState.init(params)
    good = {"a": Tensor([0.1, 0.2]), "z": Tensor([[0.3], [0.4]])}
    params = adam_step(params, good, state)
    before = _snapshot(state)
    bad_grads = [
        {"a": good["a"]},  # missing grad
        {**good, "extra": Tensor([1.0])},  # grad with no parameter
        {"a": good["a"], "z": Tensor([0.3, 0.4])},  # shape mismatch on a later parameter
    ]
    for grads in bad_grads:
        with pytest.raises(ShapeMismatchError):
            adam_step(params, grads, state)
        assert _snapshot(state) == before
    with pytest.raises(ShapeMismatchError):
        adam_step({**params, "z": Tensor([1.0, 2.0])}, good, state)
    assert _snapshot(state) == before


def test_adam_step_allocates_no_full_size_float64_temporaries():
    n = 1 << 22
    params = {"w": Tensor(np.linspace(-1.0, 1.0, n, dtype=np.float32))}
    grads = {"w": Tensor(np.linspace(2.0, -2.0, n, dtype=np.float32))}
    state = AdamState.init(params)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        out = adam_step(params, grads, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = out["w"].data.nbytes + 4 * 2**20  # the float32 result plus 4 MB
    assert peak - base < budget, f"adam_step peaked at {(peak - base) / 2**20:.1f} MB"


def test_bce_perfect_prediction_hits_clip_floor():
    t = Tensor([1.0, 0.0, 1.0, 1.0, 0.0])
    loss = bce_loss(t, t)
    assert 0.0 <= loss <= 1.1e-7


def test_bce_half_everywhere_is_ln2():
    pred = Tensor.full((8,), 0.5)
    target = Tensor([0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
    assert abs(bce_loss(pred, target) - math.log(2.0)) < 1e-6


def test_bce_matches_scalar_loop():
    rng = np.random.default_rng(13)
    pred = rng.uniform(0.01, 0.99, size=100)
    target = rng.integers(0, 2, size=100).astype(np.float64)
    got = bce_loss(Tensor(pred.astype(np.float32)), Tensor(target.astype(np.float32)))
    p32 = pred.astype(np.float32).astype(np.float64)
    t32 = target.astype(np.float32).astype(np.float64)
    want = -sum(
        y * math.log(p) + (1.0 - y) * math.log(1.0 - p) for p, y in zip(p32, t32)
    ) / len(p32)
    assert abs(got - want) / want < 1e-6


def test_bce_is_minimized_only_at_the_target():
    target = Tensor([1.0, 0.0, 1.0])
    base = bce_loss(target, target)
    for bump in (0.05, 0.2, 0.5):
        off = np.abs(target.data - bump)
        assert bce_loss(Tensor(off), target) > base


def test_bce_errors():
    with pytest.raises(ShapeMismatchError):
        bce_loss(Tensor([0.5, 0.5]), Tensor([1.0]))
    with pytest.raises(GraphError):
        bce_loss(Tensor([float("nan")]), Tensor([1.0]))


def test_compiled_loss_is_bce_plus_l2_penalties():
    # the compiled loss is the BCE data loss plus scale * sum(w^2) for every weight
    spec = build_frnet1(feature_count=48, orientation=(7, 7), hidden=(16, 8), l2_scale=0.001)
    model = compile_model(spec, init_seed=3)
    rng = np.random.default_rng(0)
    x = rng.random((4, 7, 7, 1), dtype=np.float32)
    y = rng.random((4, 48), dtype=np.float32)
    total, data, _ = model.train_step_grads(x, y, dropout_seed=1)
    penalty = sum(
        0.001 * float(np.sum(np.square(t.data, dtype=np.float64)))
        for name, t in model.params().items()
        if name.endswith("/w")
    )
    assert penalty > 0.0
    assert abs(total - (data + penalty)) < 1e-5 * total
