"""Graph construction, forward/backward semantics, determinism."""

import numpy as np
import pytest

from conftest import peak_alloc
from frnet.autodiff import _REGISTRY, EVAL, TRAIN, Graph, OpDef, op_kinds
from frnet.errors import GraphError
from frnet.models import Conv, Dense, Flatten, Input, NetworkSpec, compile_model
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


def test_disconnected_parameter_gets_zero_gradient():
    g = Graph()
    x = g.parameter("x", Tensor([3.0]))
    unused = g.parameter("unused", Tensor([[1.0, 2.0]]))
    loss = g.apply("reduce_sum", [x])
    g.forward({})
    grads = g.backward(loss)
    assert grads[unused].shape == (1, 2)
    assert grads[unused].tolist() == [[0.0, 0.0]]


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
    b = g.apply("add", [a, x])
    assert g.forward({x: Tensor([2.0])}, outputs=[b])[b].tolist() == [4.0]
    assert set(g._values) == {x, a, b}
    assert g.forward({x: Tensor([3.0])}, outputs=[a])[a].tolist() == [3.0]
    assert set(g._values) == {x, a}


def test_fanout_accumulates_adjoints():
    # loss = sum(x*x + x) -> dloss/dx = 2x + 1
    g = Graph()
    x = g.parameter("x", Tensor([2.0, -3.0]))
    sq = g.apply("mul", [x, x])
    s = g.apply("add", [sq, x])
    loss = g.apply("reduce_sum", [s])
    g.forward({})
    grads = g.backward(loss)
    assert grads[x].tolist() == [5.0, -5.0]


def test_train_forward_backward_bitwise_deterministic():
    rng = np.random.default_rng(5)
    g = Graph()
    x = g.placeholder("x")
    w = g.parameter("w", Tensor(rng.standard_normal((8, 4)).astype(np.float32)))
    h = g.apply("matmul", [x, w])
    d = g.apply("dropout", [h], keep_prob=0.5)
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
    d = g.apply("dropout", [x], keep_prob=0.5)
    feed = {x: Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))}
    a = g.forward(feed, mode=EVAL, dropout_seed=1)[d]
    b = g.forward(feed, mode=EVAL, dropout_seed=999)[d]
    assert a == b == feed[x]


def test_train_dropout_seed_changes_mask():
    g = Graph()
    x = g.placeholder("x")
    d = g.apply("dropout", [x], keep_prob=0.5)
    feed = {x: Tensor(np.ones((50, 20), dtype=np.float32))}
    a = g.forward(feed, mode=TRAIN, dropout_seed=1)[d]
    b = g.forward(feed, mode=TRAIN, dropout_seed=2)[d]
    assert a != b


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
        "dropout", "flatten", "reshape", "concat", "add", "sub", "mul",
        "reduce_sum", "reduce_mean", "bce", "l2_penalty",
    }
    assert expected <= set(op_kinds())


def test_double_precision_path_casts_feeds_and_params():
    g = Graph()
    x = g.placeholder("x")
    w = g.parameter("w", Tensor([[2.0], [1.0]]))
    y = g.apply("matmul", [x, w])
    vals = g.forward({x: Tensor([[1.0, 3.0]])}, outputs=[y], precision="double")
    assert vals[y].dtype == np.float64
    assert vals[y].tolist() == [[5.0]]


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
    kept = [vals[h].data.copy(), vals[loss].data.copy(), grads[w].data.copy()]
    g.forward({x: Tensor(rng.standard_normal((2, 4)).astype(np.float32))}, mode=TRAIN)
    g.backward(loss)
    assert [vals[h].data.tobytes(), vals[loss].data.tobytes(), grads[w].data.tobytes()] == [
        a.tobytes() for a in kept
    ]
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


def _allocating_backward(g, loss_id):
    # the backward pass as first written: every fan-in sum is a fresh a + g
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


def _assert_backward_matches_allocating_sums(g, loss, **forward):
    g.forward({}, outputs=[loss], **forward)
    before = {i: (v.dtype, v.tobytes()) for i, v in g._values.items()}
    want = _allocating_backward(g, loss)
    got = g.backward(loss)
    assert set(got) == set(want)
    for i, w in want.items():
        assert got[i].data.dtype == w.dtype
        assert got[i].data.tobytes() == w.tobytes(), g.nodes[i].name
    assert {i: (v.dtype, v.tobytes()) for i, v in g._values.items()} == before


def _param(g, name, shape, rng):
    return g.parameter(name, Tensor(rng.standard_normal(shape).astype(np.float32)))


def test_fan_in_of_one_grad_fed_to_both_inputs():
    # add(x, x) hands x the same upstream adjoint twice, and that adjoint is
    # also w's gradient: summing into it in place would double w's gradient
    rng = np.random.default_rng(31)
    g = Graph()
    x, w, k = (_param(g, n, (3, 4), rng) for n in "xwk")
    y = g.apply("add", [x, x])
    z = g.apply("add", [y, w])
    loss = g.apply("reduce_sum", [g.apply("mul", [z, k])])
    _assert_backward_matches_allocating_sums(g, loss)


def test_fan_in_of_a_flatten_reshape_concat_diamond():
    # x reaches the output through concat(x, x) and through flatten ->
    # reshape -> add(., p) views. The view branch arrives first, and it shares
    # memory with p's gradient, so the sums into x must not reuse it.
    rng = np.random.default_rng(32)
    g = Graph()
    x, p = (_param(g, n, (2, 3, 3, 2), rng) for n in "xp")
    c = g.apply("concat", [x, x])
    r = g.apply("reshape", [g.apply("flatten", [x])], item_shape=(3, 3, 2))
    e = g.apply("add", [r, p])
    k = _param(g, "k", (2, 3, 3, 6), rng)
    loss = g.apply("reduce_sum", [g.apply("mul", [g.apply("concat", [e, c]), k])])
    _assert_backward_matches_allocating_sums(g, loss)


def _three_way_fan_in(rng):
    # x feeds a mul, an l2 penalty and an add; the add's adjoint is an alias
    # of w's gradient and arrives first, the other two are fresh arrays
    g = Graph()
    x, w, k1, k2 = (_param(g, n, (4, 5), rng) for n in ("x", "w", "k1", "k2"))
    t1 = g.apply("mul", [x, k1])
    t2 = g.apply("l2_penalty", [x], scale=0.01)
    t3 = g.apply("add", [x, w])
    s = g.apply("add", [t1, t3])
    data = g.apply("reduce_sum", [g.apply("mul", [s, k2])])
    return g, g.apply("add", [data, t2])


def test_three_way_fan_in():
    g, loss = _three_way_fan_in(np.random.default_rng(33))
    _assert_backward_matches_allocating_sums(g, loss)


def test_fan_in_on_the_float64_shadow_pass():
    g, loss = _three_way_fan_in(np.random.default_rng(34))
    _assert_backward_matches_allocating_sums(g, loss, precision="double")
    assert all(g.value(i).dtype == np.float64 for i in g.parameters().values())


def test_dense_weight_with_l2_term_sums_its_gradient_in_place():
    # the matmul and the l2 penalty each hand w a weight-sized gradient; their
    # sum goes into one of them rather than into a third weight-sized array
    rng = np.random.default_rng(35)
    g = Graph()
    x = g.placeholder("x")
    w = _param(g, "w", (1024, 1024), rng)
    h = g.apply("matmul", [x, w])
    loss = g.apply("add", [g.apply("reduce_mean", [h]), g.apply("l2_penalty", [w], scale=0.001)])
    g.forward({x: Tensor(rng.standard_normal((8, 1024)).astype(np.float32))}, outputs=[loss])
    want = _allocating_backward(g, loss)[w]
    grads, peak = peak_alloc(lambda: g.backward(loss))
    nbytes = g.value(w).data.nbytes
    assert peak < 2.5 * nbytes, f"backward peaked at {peak / nbytes:.2f} weight sizes"
    assert grads[w].data.tobytes() == want.tobytes()


def test_l2_terms_add_into_the_conv_and_matmul_weight_gradients(monkeypatch):
    # As lowered, each l2 node precedes the conv or matmul reading its weight,
    # so it meets that op's fresh gradient and adds into it: backward holds
    # one gradient per weight. The same must hold with every registry entry
    # rebuilt around pass-through *args, **kwargs wrappers, as a tracer does.
    spec = NetworkSpec("tiny", (
        Input("in", (), (16, 16, 1)),
        Conv("conv", ("in",), 3, 3, 8, 1, "relu", 0.01),
        Flatten("flat", ("conv",)),
        Dense("fc", ("flat",), 500, "sigmoid", 0.001),  # 15.6 CHUNKs: a partial last chunk
    ))
    model = compile_model(spec, init_seed=3)
    rng = np.random.default_rng(36)
    feeds = {
        model.input_id: Tensor(rng.random((4, 16, 16, 1), dtype=np.float32)),
        model.target_id: Tensor((rng.random((4, 500)) < 0.5).astype(np.float32)),
    }
    g, loss = model.graph, model.loss_id
    g.forward(feeds, mode=TRAIN, dropout_seed=1, outputs=[loss])
    want = _allocating_backward(g, loss)
    plain, plain_peak = peak_alloc(lambda: g.backward(loss))

    l2_calls = []

    def passthrough(fn, kind):
        def wrapped(*args, **kwargs):
            if kind == "l2_penalty":
                l2_calls.append(set(kwargs))
            return fn(*args, **kwargs)
        return wrapped

    for kind, op in list(_REGISTRY.items()):
        monkeypatch.setitem(_REGISTRY, kind, OpDef(passthrough(op.forward, kind),
                                                   passthrough(op.backward, kind)))
    traced, traced_peak = peak_alloc(lambda: g.backward(loss))

    nbytes = max(v.data.nbytes for v in model.params().values())
    for peak in (plain_peak, traced_peak):
        assert peak < 1.5 * nbytes, f"backward peaked at {peak / nbytes:.2f} weight sizes"
    assert abs(traced_peak - plain_peak) < 0.05 * nbytes
    assert l2_calls == [{"into"}, {"into"}]
    for i, w in want.items():
        assert plain[i].data.tobytes() == w.tobytes() == traced[i].data.tobytes(), g.nodes[i].name
