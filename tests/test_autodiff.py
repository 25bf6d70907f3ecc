"""Graph construction, forward/backward semantics, determinism."""

import numpy as np
import pytest

from conftest import allocating_backward, allocating_train_grads, peak_alloc
from frnet import autodiff
from frnet.autodiff import _REGISTRY, EVAL, TRAIN, Graph, OpDef, op_kinds, register_op
from frnet.errors import GraphError
from frnet.models import Conv, Dense, Flatten, Input, NetworkSpec, build_frnet1, build_frnet2, compile_model
from frnet.tensor import Tensor


def test_identity_graph():
    g = Graph()
    x = g.placeholder("x")
    vals = g.forward({x: Tensor([1.0, 2.0])})
    assert vals[x].tolist() == [1.0, 2.0]


def test_relu_graph():
    g = Graph()
    x = g.placeholder("x")
    y = g.apply("relu", [x])
    vals = g.forward({x: Tensor([-1.0, 2.0])})
    assert vals[y].tolist() == [0.0, 2.0]


def test_missing_feed():
    g = Graph()
    x = g.placeholder("x")
    g.apply("relu", [x])
    with pytest.raises(GraphError):
        g.forward({})


def test_sum_gradient_is_ones():
    g = Graph()
    x = g.parameter("x", Tensor([1.0, 5.0, -2.0]))
    loss = g.apply("reduce_sum", [x])
    g.forward({})
    grads = g.backward(loss)
    assert grads[x].tolist() == [1.0, 1.0, 1.0]


def test_square_sum_gradient():
    g = Graph()
    x = g.parameter("x", Tensor([1.0, 2.0]))
    sq = g.apply("mul", [x, x])
    loss = g.apply("reduce_sum", [sq])
    g.forward({})
    grads = g.backward(loss)
    assert grads[x].tolist() == [2.0, 4.0]


def test_backward_requires_forward():
    g = Graph()
    x = g.parameter("x", Tensor([1.0]))
    loss = g.apply("reduce_sum", [x])
    with pytest.raises(GraphError):
        g.backward(loss)


def test_backward_rejects_nonscalar_loss():
    g = Graph()
    x = g.parameter("x", Tensor([1.0, 2.0]))
    y = g.apply("relu", [x])
    g.forward({})
    with pytest.raises(GraphError):
        g.backward(y)


def test_backward_names_an_unset_parameter_it_does_not_reach():
    g = Graph()
    x = g.parameter("x", Tensor([3.0]))
    g.parameter("later", None)
    loss = g.apply("reduce_sum", [x])
    g.forward({}, outputs=[loss])
    with pytest.raises(GraphError, match="parameter 'later' has no value"):
        g.backward(loss)


@pytest.mark.parametrize("bad", [-1, 2, 0, 1.0, "w", None])
def test_set_parameter_rejects_ids_that_are_not_parameters(bad):
    g = Graph()
    g.placeholder("x")
    w = g.parameter("w", Tensor([1.0, 2.0]))
    with pytest.raises(GraphError, match=f"node {bad!r} is not a parameter"):
        g.set_parameter(bad, Tensor([3.0, 4.0]))
    assert g.nodes[w].value.tolist() == [1.0, 2.0]
    g.set_parameter(np.int64(w), Tensor([3.0, 4.0]))
    assert g.nodes[w].value.tolist() == [3.0, 4.0]


def test_disconnected_parameter_gets_zero_gradient():
    g = Graph()
    x = g.parameter("x", Tensor([3.0]))
    unused = g.parameter("unused", Tensor([[1.0, 2.0]]))
    loss = g.apply("reduce_sum", [x])
    g.forward({})
    grads = g.backward(loss)
    assert grads[unused].shape == (1, 2)
    assert grads[unused].tolist() == [[0.0, 0.0]]


def test_a_pass_that_raises_leaves_nothing_behind():
    g = Graph()
    w = g.parameter("w", Tensor([2.0]))
    x = g.placeholder("x")
    y = g.apply("mul", [w, x])
    loss = g.apply("reduce_sum", [y])
    g.forward({x: Tensor([3.0])})
    assert g.backward(loss)[w].tolist() == [3.0]
    with pytest.raises(GraphError, match="missing feed"):
        g.forward({})
    # the earlier pass is gone, not left for backward or value to read
    with pytest.raises(GraphError):
        g.backward(loss)
    with pytest.raises(GraphError):
        g.value(y)


def test_forward_computes_only_requested_ancestors():
    g = Graph()
    x = g.placeholder("x")
    y = g.placeholder("y")
    rx = g.apply("relu", [x])
    ry = g.apply("relu", [y])
    # y is not an ancestor of rx, so its feed is not required
    g.forward({x: Tensor([1.0])}, outputs=[rx])
    assert g.value(rx).tolist() == [1.0]
    with pytest.raises(GraphError):
        g.value(ry)


def test_forward_follows_a_growing_graph():
    g = Graph()
    x = g.placeholder("x")
    y = g.placeholder("y")
    a = g.apply("relu", [x])
    g.apply("relu", [y])
    g.forward({x: Tensor([2.0])}, outputs=[a])
    assert set(g._values) == {x, a}
    # a node appended after that pass is computed when asked for, and the
    # unrelated branch (with no feed for y) still is not
    b = g.apply("mul", [a, x])
    assert g.forward({x: Tensor([2.0])}, outputs=[b])[b].tolist() == [4.0]
    assert set(g._values) == {x, a, b}
    assert g.forward({x: Tensor([3.0])}, outputs=[a])[a].tolist() == [3.0]
    assert set(g._values) == {x, a}


def test_fanout_accumulates_adjoints():
    # loss = sum(concat(x*x, x)) -> dloss/dx = 2x + 1
    g = Graph()
    x = g.parameter("x", Tensor([[[[2.0, -3.0]]]]))
    sq = g.apply("mul", [x, x])
    loss = g.apply("reduce_sum", [g.apply("concat", [sq, x])])
    _assert_backward_matches_allocating_sums(g, loss)
    assert g.backward(loss)[x].tolist() == [[[[5.0, -5.0]]]]


def test_train_forward_backward_bitwise_deterministic():
    rng = np.random.default_rng(5)
    g = Graph()
    x = g.placeholder("x")
    w = g.parameter("w", Tensor(rng.standard_normal((8, 4)).astype(np.float32)))
    h = g.apply("matmul", [x, w])
    d = g.apply("dropout", [h], keep_prob=0.5, key=3)
    loss = g.apply("reduce_sum", [d])
    feed = {x: Tensor(rng.standard_normal((3, 8)).astype(np.float32))}

    def run():
        vals = g.forward(feed, mode=TRAIN, dropout_seed=17)
        grads = g.backward(loss)
        return vals[loss].data.tobytes(), grads[w].data.tobytes()

    assert run() == run()


def test_eval_forward_ignores_dropout_seed():
    g = Graph()
    x = g.placeholder("x")
    d = g.apply("dropout", [x], keep_prob=0.5, key=1)
    feed = {x: Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))}
    a = g.forward(feed, mode=EVAL, dropout_seed=1)[d]
    b = g.forward(feed, mode=EVAL, dropout_seed=999)[d]
    assert np.array_equal(a.data, b.data) and np.array_equal(a.data, feed[x].data)


def test_train_dropout_seed_changes_mask():
    g = Graph()
    x = g.placeholder("x")
    d = g.apply("dropout", [x], keep_prob=0.5, key=1)
    feed = {x: Tensor(np.ones((50, 20), dtype=np.float32))}
    a = g.forward(feed, mode=TRAIN, dropout_seed=1)[d]
    b = g.forward(feed, mode=TRAIN, dropout_seed=2)[d]
    assert not np.array_equal(a.data, b.data)


@pytest.mark.parametrize("attrs", [{}, {"key": -1}, {"key": 1.5}, {"key": None}],
                         ids=["missing", "negative", "float", "none"])
@pytest.mark.parametrize("mode", [TRAIN, EVAL])
def test_dropout_without_an_integer_key_is_a_graph_error(attrs, mode):
    g = Graph()
    x = g.placeholder("x")
    d = g.apply("dropout", [x], keep_prob=0.5, **attrs)
    with pytest.raises(GraphError, match="key"):
        g.forward({x: Tensor(np.ones((2, 3)))}, mode=mode, outputs=[d])


def test_unknown_op_and_bad_mode_rejected():
    g = Graph()
    x = g.placeholder("x")
    with pytest.raises(GraphError):
        g.apply("convolve3d", [x])
    with pytest.raises(GraphError):
        g.forward({x: Tensor([1.0])}, mode="training")


def test_apply_rejects_forward_references():
    g = Graph()
    with pytest.raises(GraphError):
        g.apply("relu", [3])


def test_registry_covers_operator_set():
    expected = {
        "conv2d", "maxpool2d", "matmul", "bias_add", "relu", "sigmoid",
        "dropout", "flatten", "concat", "mul", "reduce_sum", "bce",
    }
    assert set(op_kinds()) == expected


@pytest.mark.parametrize("kind", op_kinds())
def test_every_kind_is_used_by_a_model_or_the_gradient_checks(kind):
    # an operator kind stays registered only while a compiled FRnet-1 or
    # FRnet-2 graph applies it, or the gradient checks build their loss
    # (reduce_sum(mul(op, w))) from it
    applied = {
        node.op
        for spec in (build_frnet1(feature_count=48, orientation=(7, 7), hidden=(16, 8)),
                     build_frnet2(feature_count=16, hidden=(8, 4)))
        for node in compile_model(spec, init_seed=0).graph.nodes
    }
    assert kind in applied | {"mul", "reduce_sum"}


def test_a_plainly_registered_kind_is_handed_its_parameter_buffers(monkeypatch):
    # scale(x, w) = x * w, registered with no flag: its backward still gets
    # w's gradient buffer as `bufs` and may write w's gradient into it
    monkeypatch.setattr(autodiff, "_REGISTRY", dict(_REGISTRY))
    handed = []

    def fwd(args, attrs, ctx):
        return args[0] * args[1], None

    def bwd(grad, args, out, saved, attrs, bufs=None):
        handed.append(bufs)
        return grad * args[1], np.multiply(grad, args[0], out=bufs[1])

    register_op("scale", fwd, bwd)
    g = Graph()
    x = g.placeholder("x")
    w = g.parameter("w", Tensor([1.5, -2.0, 0.25]))
    loss = g.apply("reduce_sum", [g.apply("scale", [x, w])])
    for step in range(2):
        g.forward({x: Tensor([3.0, 4.0, 5.0 + step])}, outputs=[loss])
        dw = g.backward(loss)[w]
        assert handed[step][0] is None and np.shares_memory(handed[step][1], dw.data)
        assert dw.tolist() == [3.0, 4.0, 5.0 + step]
    assert np.shares_memory(handed[0][1], handed[1][1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_runs_at_the_dtype_of_its_tensors(dtype):
    g = Graph()
    x = g.placeholder("x")
    w = g.parameter("w", Tensor([[2.0], [1.0]], dtype=dtype))
    y = g.apply("matmul", [x, w])
    feed = Tensor([[1.0, 3.0]], dtype=dtype)
    vals = g.forward({x: feed}, outputs=[x, w, y])
    assert vals[y].dtype == dtype
    assert vals[y].tolist() == [[5.0]]
    # fed and held arrays are used as they are, not copied
    assert np.shares_memory(vals[x].data, feed.data)
    assert np.shares_memory(vals[w].data, g.nodes[w].value.data)


def test_forward_returns_only_requested_outputs_read_only():
    g = Graph()
    x = g.placeholder("x")
    w = g.parameter("w", Tensor([[2.0], [1.0]]))
    h = g.apply("matmul", [x, w])
    y = g.apply("relu", [h])
    vals = g.forward({x: Tensor([[1.0, 3.0]])}, outputs=[h])
    assert set(vals) == {h}
    assert not vals[h].data.flags.writeable
    with pytest.raises(ValueError):
        vals[h].data[0, 0] = 1.0
    assert set(g.forward({x: Tensor([[1.0, 3.0]])})) == {x, w, h, y}


def test_returned_tensors_survive_later_passes():
    rng = np.random.default_rng(8)
    g = Graph()
    x = g.placeholder("x")
    w = g.parameter("w", Tensor(rng.standard_normal((4, 3)).astype(np.float32)))
    h = g.apply("relu", [g.apply("matmul", [x, w])])
    loss = g.apply("reduce_sum", [g.apply("mul", [h, h])])
    first_feed = Tensor(rng.standard_normal((2, 4)).astype(np.float32))
    vals = g.forward({x: first_feed}, mode=TRAIN, outputs=[h, loss])
    grads = g.backward(loss)
    kept = [vals[h].data.copy(), vals[loss].data.copy()]
    first_grad = grads[w].data.copy()
    g.forward({x: Tensor(rng.standard_normal((2, 4)).astype(np.float32))}, mode=TRAIN)
    want = allocating_backward(g, loss)[w]
    g.backward(loss)
    assert [vals[h].data.tobytes(), vals[loss].data.tobytes()] == [a.tobytes() for a in kept]
    # parameter gradients live in the graph's buffers: the next backward overwrites them
    assert grads[w].data.tobytes() == want.tobytes() != first_grad.tobytes()
    assert not grads[w].data.flags.writeable


@pytest.mark.parametrize("bad", [5, 2, -1, "z", 1.0, None])
def test_forward_rejects_outputs_that_are_not_nodes(bad):
    g = Graph()
    x = g.placeholder("x")
    y = g.apply("relu", [x])
    with pytest.raises(GraphError, match=f"output {bad!r} is not a node"):
        g.forward({x: Tensor([1.0])}, outputs=[y, bad])
    assert g.forward({x: Tensor([-1.0])}, outputs=[np.int64(y)])[y].tolist() == [0.0]


# ---------------------------------------------------------------------------
# fan-in summed in place, against the backward pass that allocates every sum


def _assert_backward_matches_allocating_sums(g, loss):
    g.forward({}, outputs=[loss])
    before = {i: (v.dtype, v.tobytes()) for i, v in g._values.items()}
    want = allocating_backward(g, loss)
    got = g.backward(loss)
    assert set(got) == set(want)
    for i, w in want.items():
        assert got[i].data.dtype == w.dtype
        assert got[i].data.tobytes() == w.tobytes(), g.nodes[i].name
        # a first term that is a view of another adjoint is copied into the buffer
        assert np.shares_memory(got[i].data, g._grad_bufs[i]), g.nodes[i].name
    assert {i: (v.dtype, v.tobytes()) for i, v in g._values.items()} == before


def _param(g, name, shape, rng, dtype=np.float32):
    return g.parameter(name, Tensor(rng.standard_normal(shape), dtype=dtype))


def test_fan_in_of_one_grad_fed_to_both_inputs(monkeypatch):
    # add(x, x) hands x the same upstream adjoint twice, and that adjoint is
    # also w's gradient: summing into it in place would double w's gradient.
    # No registered kind returns one array for two inputs, so add is local.
    monkeypatch.setitem(_REGISTRY, "add", OpDef(
        lambda args, attrs, ctx: (args[0] + args[1], None),
        lambda grad, args, out, saved, attrs, bufs=None: (grad, grad),
    ))
    rng = np.random.default_rng(31)
    g = Graph()
    x, w, k = (_param(g, n, (3, 4), rng) for n in "xwk")
    y = g.apply("add", [x, x])
    z = g.apply("add", [y, w])
    loss = g.apply("reduce_sum", [g.apply("mul", [z, k])])
    _assert_backward_matches_allocating_sums(g, loss)


def test_fan_in_of_a_flatten_reshape_concat_diamond():
    # x reaches the output through flatten -> bias_add(., p) and through
    # concat(x, x) -> flatten -> matmul. The view branch arrives first: x's
    # term from it is a reshaped view of the adjoint bias_add passes through
    # unchanged, the adjoint p's gradient is summed from, so the sums into x
    # must not reuse it.
    rng = np.random.default_rng(32)
    g = Graph()
    x = _param(g, "x", (2, 3, 3, 2), rng)
    p = _param(g, "p", (18,), rng)
    m = _param(g, "m", (36, 18), rng)
    c = g.apply("matmul", [g.apply("flatten", [g.apply("concat", [x, x])]), m])
    e = g.apply("bias_add", [g.apply("flatten", [x]), p])
    k = _param(g, "k", (2, 18), rng)
    loss = g.apply("reduce_sum", [g.apply("mul", [g.apply("mul", [e, c]), k])])
    _assert_backward_matches_allocating_sums(g, loss)


def _three_way_fan_in(rng, dtype=np.float32):
    # x feeds a mul, a relu and a bias_add; the bias_add's term is the
    # upstream adjoint itself, which w's gradient is summed from, and arrives
    # first, the other two are fresh arrays
    g = Graph()
    x, k1 = (_param(g, n, (2, 4, 5, 1), rng, dtype) for n in ("x", "k1"))
    w = _param(g, "w", (1,), rng, dtype)
    t1 = g.apply("mul", [x, k1])
    t2 = g.apply("relu", [x])
    t3 = g.apply("bias_add", [x, w])
    s = g.apply("concat", [t2, t1, t3])
    k2 = _param(g, "k2", (2, 4, 5, 3), rng, dtype)
    return g, g.apply("reduce_sum", [g.apply("mul", [s, k2])])


def test_three_way_fan_in():
    g, loss = _three_way_fan_in(np.random.default_rng(33))
    _assert_backward_matches_allocating_sums(g, loss)


def test_fan_in_on_the_float64_shadow_pass():
    g, loss = _three_way_fan_in(np.random.default_rng(34), np.float64)
    _assert_backward_matches_allocating_sums(g, loss)
    assert all(g.value(i).dtype == np.float64 for i in g.parameters().values())


def test_dense_weight_with_l2_term_sums_its_gradient_in_place():
    # the matmul writes w's gradient into its buffer and the training step
    # adds the l2 term there, rather than into a second weight-sized array
    # and then their sum
    spec = NetworkSpec("dense", (
        Input("in", (), (32, 32, 1)),
        Flatten("flat", ("in",)),
        Dense("fc", ("flat",), 1024, "sigmoid", 0.001),
    ))
    model = compile_model(spec, init_seed=35)
    rng = np.random.default_rng(35)
    x = rng.standard_normal((8, 32, 32, 1)).astype(np.float32)
    y = (rng.random((8, 1024)) < 0.5).astype(np.float32)
    want = allocating_train_grads(model, x, y, 0)["fc/w"]
    grads, peak = peak_alloc(lambda: model.train_step_grads(x, y, dropout_seed=0)[2])
    nbytes = model.params()["fc/w"].data.nbytes
    assert peak < 2.5 * nbytes, f"training step peaked at {peak / nbytes:.2f} weight sizes"
    assert grads["fc/w"].data.tobytes() == want.tobytes()


def test_l2_terms_add_into_the_conv_and_matmul_weight_gradients(monkeypatch):
    # A training step adds each weight's l2 term into the gradient the conv
    # or matmul wrote into that weight's buffer, so it holds one gradient per
    # weight. The same must hold with every registry entry rebuilt around
    # pass-through *args, **kwargs wrappers, as a tracer does.
    spec = NetworkSpec("tiny", (
        Input("in", (), (16, 16, 1)),
        Conv("conv", ("in",), 3, 3, 8, 1, "relu", 0.01),
        Flatten("flat", ("conv",)),
        Dense("fc", ("flat",), 500, "sigmoid", 0.001),  # 15.6 CHUNKs: a partial last chunk
    ))
    model = compile_model(spec, init_seed=3)
    rng = np.random.default_rng(36)
    x = rng.random((4, 16, 16, 1), dtype=np.float32)
    y = (rng.random((4, 500)) < 0.5).astype(np.float32)
    want = allocating_train_grads(model, x, y, 1)

    def step():
        return model.train_step_grads(x, y, dropout_seed=1)[2]

    # the first step makes the gradient buffers; later steps reuse them
    _, first_peak = peak_alloc(step)
    plain, plain_peak = peak_alloc(step)
    plain = {name: t.data.copy() for name, t in plain.items()}

    kinds = []

    def passthrough(fn, kind):
        def wrapped(*args, **kwargs):
            kinds.append(kind)
            return fn(*args, **kwargs)
        return wrapped

    for kind, op in list(_REGISTRY.items()):
        monkeypatch.setitem(_REGISTRY, kind, OpDef(passthrough(op.forward, kind),
                                                   passthrough(op.backward, kind)))
    traced, traced_peak = peak_alloc(step)

    nbytes = max(v.data.nbytes for v in model.params().values())
    for peak in (first_peak, plain_peak, traced_peak):
        assert peak < 1.5 * nbytes, f"training step peaked at {peak / nbytes:.2f} weight sizes"
    assert abs(traced_peak - plain_peak) < 0.05 * nbytes
    assert {"conv2d", "matmul"} <= set(kinds)
    for name, w in want.items():
        assert plain[name].tobytes() == w.tobytes() == traced[name].data.tobytes(), name
