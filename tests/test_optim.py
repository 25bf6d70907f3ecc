"""Adam updates, binary cross-entropy, and loss composition."""

import dataclasses
import math
import threading

import numpy as np
import pytest

from conftest import (
    ReferenceAdamState,
    allocating_adam_step,
    allocating_train_grads,
    peak_alloc,
    scalar_adam_reference,
)
from frnet import tensor
from frnet.errors import GraphError, ShapeMismatchError
from frnet.models import Dense, Flatten, Input, NetworkSpec, build_frnet1, build_frnet2, compile_model
from frnet.optim import BETA1, BETA2, EPSILON, AdamState, adam_step, bce_loss
from frnet.tensor import CHUNK, PARALLEL_MIN, Tensor


def test_state_init_matches_parameter_shapes():
    params = {"w": Tensor.zeros((3, 2)), "b": Tensor.zeros((2,))}
    state = AdamState.init(params)
    assert state.t == 0
    assert state.layout == (("w", (3, 2)), ("b", (2,)))
    assert all(a.shape == (8,) and a.dtype == np.float64 for a in (state.m, state.v, state.master))
    assert state.lr == 0.001 and (BETA1, BETA2, EPSILON) == (0.9, 0.999, 1e-8)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
@pytest.mark.parametrize("shapes", [
    {"w": (3, 2), "b": (2,)},
    {"a": (CHUNK - 3,), "b": (7,), "c": (5, CHUNK // 4 + 1), "e": (3, 2 * CHUNK + 1)},
    {"w": (PARALLEL_MIN,)},
    {"a": (CHUNK + 1,), "w": (3, PARALLEL_MIN // 2 + 5), "b": (2,)},
], ids=["small", "straddling-chunks", "at-threshold", "above-threshold-split-inside-a-parameter"])
def test_init_master_is_bitwise_the_concatenated_parameters(shapes, cpus, helper_threads, monkeypatch):
    monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: cpus)
    rng = np.random.default_rng(63)
    params = {name: Tensor(rng.standard_normal(s).astype(np.float32)) for name, s in shapes.items()}
    state = AdamState.init(params)
    want = np.concatenate([p.data.reshape(-1) for p in params.values()], dtype=np.float64)
    assert state.master.dtype == np.float64 and state.master.tobytes() == want.tobytes()
    assert len(helper_threads) == (1 if want.size >= PARALLEL_MIN and len(cpus) > 1 else 0)


def test_first_step_magnitude_is_lr():
    for g in (2.5, -0.03, 1e4):
        params = {"x": Tensor([1.0, 1.0])}
        state = AdamState.init(params, lr=0.001)
        before = params["x"].data.copy()  # adam_step writes the new values into params
        new = adam_step(params, {"x": Tensor([g, g])}, state)
        delta = new["x"].data - before
        assert state.t == 1
        # bias-corrected first step is -lr * sign(g), up to the epsilon term
        assert np.allclose(delta, -math.copysign(0.001, g), rtol=1e-3)


def test_zero_gradient_is_fixed_point():
    params = {"x": Tensor([0.7, -1.2])}
    state = AdamState.init(params)
    for _ in range(5):
        params = adam_step(params, {"x": Tensor.zeros((2,))}, state)
    assert params["x"].data.tobytes() == np.float32([0.7, -1.2]).tobytes()
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


@pytest.mark.parametrize(
    "shape",
    [(CHUNK - 3,), (CHUNK,), (3, CHUNK // 2 + 7), (2, 5, CHUNK // 4 + 1)],
    ids=["below-chunk", "one-chunk", "spanning-2", "spanning-3"],
)
def test_chunked_adam_is_bitwise_equal_to_allocating_formula(shape):
    rng = np.random.default_rng(2024)
    params = {"w": Tensor(rng.standard_normal(shape).astype(np.float32)), "b": Tensor([0.5, -1.5])}
    got_state = AdamState.init(params, lr=0.01)
    ref_state = ReferenceAdamState.init(params, lr=0.01)
    got = ref = params
    for step in range(20):
        scale = 10.0 ** (step % 7 - 3)  # gradients spanning many binades
        grads = {
            "w": Tensor((scale * rng.standard_normal(shape)).astype(np.float32)),
            "b": Tensor((scale * rng.standard_normal(2)).astype(np.float32)),
        }
        got = adam_step(got, grads, got_state)
        ref = allocating_adam_step(ref, grads, ref_state)
        _assert_bitwise_equal(got, got_state, ref, ref_state)
    assert got_state.t == ref_state.t == 20


def _assert_bitwise_equal(got, got_state, ref, ref_state):
    # parameters by name; m, v and master flattened in the state's layout order
    for name in ref:
        assert got[name].data.tobytes() == ref[name].data.tobytes(), name
    for slot in ("m", "v", "master"):
        assert getattr(got_state, slot).tobytes() == ref_state.flat(slot, got_state.layout).tobytes()


def _snapshot(state):
    return state.t, {slot: getattr(state, slot).tobytes() for slot in ("m", "v", "master")}


def test_rejected_adam_step_leaves_state_untouched():
    params = {"a": Tensor([1.0, 2.0]), "z": Tensor([[1.0], [2.0]])}
    state = AdamState.init(params)
    good = {"a": Tensor([0.1, 0.2]), "z": Tensor([[0.3], [0.4]])}
    params = adam_step(params, good, state)

    def snapshot():
        return _snapshot(state), {n: p.data.tobytes() for n, p in params.items()}

    before = snapshot()
    bad_grads = [
        {"a": good["a"]},  # missing grad
        {**good, "extra": Tensor([1.0])},  # grad with no parameter
        {"a": good["a"], "z": Tensor([0.3, 0.4])},  # shape mismatch on a later parameter
    ]
    for grads in bad_grads:
        with pytest.raises(ShapeMismatchError):
            adam_step(params, grads, state)
        assert snapshot() == before
    with pytest.raises(ShapeMismatchError):
        adam_step({**params, "z": Tensor([1.0, 2.0])}, good, state)
    assert snapshot() == before
    # a state whose vectors do not match its layout
    short = dataclasses.replace(state, v=state.v[:-1])
    with pytest.raises(ShapeMismatchError, match="not three float64 vectors of 4"):
        adam_step(params, good, short)
    assert snapshot() == before and short.t == state.t
    # a later parameter that cannot be written in place as float32: read-only
    # memory, or float64
    frozen = np.frombuffer(params["z"].data.tobytes(), dtype=np.float32).reshape(2, 1)
    for z in (Tensor._wrap(frozen), Tensor([[1.0], [2.0]], dtype=np.float64)):
        with pytest.raises(ShapeMismatchError, match="z: not a float32 array it can write in place"):
            adam_step({"a": params["a"], "z": z}, good, state)
        assert snapshot() == before
        assert not params["a"].data.flags.writeable


def _adam_against_reference(n, steps, seed, shapes=None, threads=None):
    rng = np.random.default_rng(seed)
    shapes = shapes or {"w": (n,), "b": (2,)}
    params = {name: Tensor(rng.standard_normal(s).astype(np.float32)) for name, s in shapes.items()}
    got_state = AdamState.init(params, lr=0.01)
    if threads is not None:
        threads.clear()  # count only the steps' helper threads, not init's
    ref_state = ReferenceAdamState.init(params, lr=0.01)
    got = ref = params
    for step in range(steps):
        scale = 10.0 ** (step % 5 - 2)
        grads = {name: Tensor((scale * rng.standard_normal(s)).astype(np.float32))
                 for name, s in shapes.items()}
        got = adam_step(got, grads, got_state)
        ref = allocating_adam_step(ref, grads, ref_state)
        _assert_bitwise_equal(got, got_state, ref, ref_state)


@pytest.mark.parametrize(
    "n",
    [PARALLEL_MIN - 1, PARALLEL_MIN, PARALLEL_MIN + 1, 17 * CHUNK - 1, 17 * CHUNK + 1, 23 * CHUNK + 3],
    ids=["below-threshold", "at-threshold", "above-threshold", "17C-1", "17C+1", "23C+3"],
)
def test_threaded_adam_is_bitwise_equal_to_allocating_formula(n, helper_threads):
    # the range is the model's total, the 2-element bias included
    _adam_against_reference(n, steps=4, seed=n, threads=helper_threads)
    assert len(helper_threads) == (0 if n + 2 < PARALLEL_MIN else 4)


def test_small_parameters_straddling_chunks_and_the_split_stay_bitwise_equal(helper_threads):
    # no parameter reaches PARALLEL_MIN, but together they do: chunks and the
    # two-thread split point fall inside parameters and between them
    shapes = {"a": (CHUNK - 3,), "b": (7,), "c": (5, CHUNK // 4 + 1), "d": (1,),
              "e": (3, CHUNK // 2 + 7), "f": (8 * CHUNK + 5,), "g": (2,), "h": (3, 2 * CHUNK + 1)}
    total = sum(math.prod(s) for s in shapes.values())
    assert max(math.prod(s) for s in shapes.values()) < PARALLEL_MIN <= total
    mid = (total + CHUNK) // (2 * CHUNK) * CHUNK
    starts = np.cumsum([0] + [math.prod(s) for s in shapes.values()])
    assert mid not in starts and mid % CHUNK == 0  # the split falls inside a parameter
    _adam_against_reference(0, steps=5, seed=61, shapes=shapes, threads=helper_threads)
    assert len(helper_threads) == 5


def test_params_in_another_order_are_updated_by_name():
    rng = np.random.default_rng(62)
    shapes = {"w": (4, 3), "b": (3,), "k": (2, 2, 1, 5)}
    params = {name: Tensor(rng.standard_normal(s).astype(np.float32)) for name, s in shapes.items()}
    state = AdamState.init(params, lr=0.01)
    ref_state = ReferenceAdamState.init(params, lr=0.01)
    ref = params
    got = {name: params[name] for name in reversed(shapes)}
    for _ in range(3):
        grads = {name: Tensor(rng.standard_normal(s).astype(np.float32)) for name, s in shapes.items()}
        got = adam_step(got, {name: grads[name] for name in ("b", "k", "w")}, state)
        ref = allocating_adam_step(ref, grads, ref_state)
        _assert_bitwise_equal(got, state, ref, ref_state)
    assert state.layout == tuple(shapes.items())


def test_adam_on_one_cpu_runs_on_the_calling_thread(monkeypatch, helper_threads):
    monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: {0})
    _adam_against_reference(23 * CHUNK + 3, steps=3, seed=5)
    assert helper_threads == []


def test_adam_worker_exception_surfaces(monkeypatch, helper_threads):
    n = PARALLEL_MIN + 7
    params = {"w": Tensor(np.ones(n, dtype=np.float32))}
    state = AdamState.init(params)
    helper_threads.clear()
    sqrt = np.sqrt

    def sqrt_failing_off_the_main_thread(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("helper thread failed")
        return sqrt(*args, **kwargs)

    monkeypatch.setattr(np, "sqrt", sqrt_failing_off_the_main_thread)
    with pytest.raises(RuntimeError, match="helper thread failed"):
        adam_step(params, {"w": Tensor(np.ones(n, dtype=np.float32))}, state)
    assert len(helper_threads) == 1


def test_rejected_threaded_adam_step_leaves_state_untouched():
    n = PARALLEL_MIN + 7
    params = {"a": Tensor(np.linspace(-1, 1, n, dtype=np.float32)), "z": Tensor([[1.0], [2.0]])}
    state = AdamState.init(params)
    good = {"a": Tensor(np.linspace(1, -1, n, dtype=np.float32)), "z": Tensor([[0.3], [0.4]])}
    params = adam_step(params, good, state)
    before = _snapshot(state)
    with pytest.raises(ShapeMismatchError):
        adam_step(params, {"a": good["a"], "z": Tensor([0.3, 0.4])}, state)
    assert _snapshot(state) == before


def test_adam_step_updates_the_tensors_it_was_handed():
    params = {"w": Tensor([[0.5, -0.5]]), "b": Tensor([0.0])}
    arrays = {n: p.data for n, p in params.items()}
    state = AdamState.init(params)
    out = adam_step(params, {"w": Tensor([[1.0, -1.0]]), "b": Tensor([2.0])}, state)
    assert all(out[n] is params[n] and out[n].data is arrays[n] for n in params)
    assert out["w"].tolist() == [[np.float32(0.5 - 0.001), np.float32(-0.5 + 0.001)]]
    assert not any(p.data.flags.writeable for p in out.values())


def _small_specs():
    return {
        "frnet1": build_frnet1(feature_count=48, orientation=(7, 7), hidden=(16, 8)),
        "frnet2": build_frnet2(feature_count=64, hidden=(16, 8)),
    }


@pytest.mark.parametrize("kind", ["frnet1", "frnet2"])
def test_training_in_place_matches_the_allocating_path(kind):
    # the in-place step (gradients in the graph's buffers, parameters updated
    # where they are) against fresh gradients and fresh parameters each step
    spec = _small_specs()[kind]
    model, ref = compile_model(spec, init_seed=3), compile_model(spec, init_seed=3)
    params, ref_params = model.params(), ref.params()
    state, ref_state = AdamState.init(params, lr=0.01), ReferenceAdamState.init(ref_params, lr=0.01)
    rng = np.random.default_rng(9)
    h, w, _ = model.shapes[spec.input_layer.name]
    out_width = model.shapes[spec.output_layer.name][0]
    for step in range(4):
        x = rng.random((6, h, w, 1), dtype=np.float32)
        y = (rng.random((6, out_width)) < 0.5).astype(np.float32)
        _, _, grads = model.train_step_grads(x, y, dropout_seed=step)
        ref_grads = {name: Tensor(d) for name, d in allocating_train_grads(ref, x, y, step).items()}
        for name in params:
            assert grads[name].data.tobytes() == ref_grads[name].data.tobytes(), (step, name)
        params = adam_step(params, grads, state)
        model.set_params(params)
        ref_params = allocating_adam_step(ref_params, ref_grads, ref_state)
        ref.set_params(ref_params)
        for name in params:
            assert params[name].data.tobytes() == ref_params[name].data.tobytes(), (step, name)


def test_backward_reuses_its_gradient_buffers():
    model = compile_model(_small_specs()["frnet2"], init_seed=4)
    x = np.random.default_rng(1).random((4, 8, 8, 1), dtype=np.float32)
    y = np.array([[0.0], [1.0], [1.0], [0.0]], dtype=np.float32)
    first = model.train_step_grads(x, y, dropout_seed=0)[2]
    second = model.train_step_grads(x[::-1].copy(), y[::-1].copy(), dropout_seed=1)[2]
    assert all(np.shares_memory(first[n].data, second[n].data) for n in first)


def test_second_training_step_allocates_no_weight():
    # a 2 M-element dense weight with an l2 term: after the first step, the
    # gradient and parameter storage are reused, so a step allocates only
    # activations and CHUNK-sized scratch
    spec = NetworkSpec("dense", (
        Input("in", (), (32, 64, 1)),
        Flatten("flat", ("in",)),
        Dense("fc", ("flat",), 1024, "sigmoid", 0.001),
    ))
    model = compile_model(spec, init_seed=5)
    rng = np.random.default_rng(2)
    x = rng.random((8, 32, 64, 1), dtype=np.float32)
    y = (rng.random((8, 1024)) < 0.5).astype(np.float32)
    params = model.params()
    state = AdamState.init(params)

    def step(seed):
        _, _, grads = model.train_step_grads(x, y, dropout_seed=seed)
        model.set_params(adam_step(params, grads, state))

    step(0)
    _, peak = peak_alloc(lambda: step(1))
    nbytes = params["fc/w"].data.nbytes
    assert params["fc/w"].size >= 1 << 20
    assert peak < 0.5 * nbytes, f"step 2 allocated {peak / nbytes:.2f} weight sizes"


def test_adam_step_allocates_no_full_size_float64_temporaries():
    n = 1 << 22
    params = {"w": Tensor(np.linspace(-1.0, 1.0, n, dtype=np.float32))}
    grads = {"w": Tensor(np.linspace(2.0, -2.0, n, dtype=np.float32))}
    state = AdamState.init(params)
    out, peak = peak_alloc(lambda: adam_step(params, grads, state))
    budget = out["w"].data.nbytes + 4 * 2**20  # the float32 result plus 4 MB
    assert peak < budget, f"adam_step peaked at {peak / 2**20:.1f} MB"


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
