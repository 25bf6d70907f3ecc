"""Neural operators as one-op graphs: SAME padding, forward oracles, gradient checks."""

import math

import numpy as np
import pytest

from conftest import GRAD_TOL, gradcheck_cases, op_gradcheck, peak_alloc, run_op
from frnet.autodiff import EVAL, TRAIN, Graph
from frnet.errors import GraphError, ShapeMismatchError
from frnet.models import Conv, Input, NetworkSpec, infer_shapes
from frnet.nnops import same_pad
from frnet.tensor import Tensor


def _pad_oracle(extent, filt, stride):
    # grow symmetric-ish padding until sliding windows cover ceil(extent/stride)
    out = math.ceil(extent / stride)
    total = 0
    while (extent + total - filt) // stride + 1 < out or extent + total < filt:
        total += 1
    return total


def test_same_pad_exhaustive():
    for extent in range(1, 9):
        for filt in range(1, 6):
            for stride in range(1, 4):
                before, after, out = same_pad(extent, filt, stride)
                assert out == math.ceil(extent / stride)
                assert before + after == _pad_oracle(extent, filt, stride)
                assert before == (before + after) // 2
                # windows fit exactly inside the padded extent
                assert (out - 1) * stride + filt <= extent + before + after


def _conv_oracle(x, w, stride):
    b, h, wd, cin = x.shape
    fh, fw, _, oc = w.shape
    oh, ow = math.ceil(h / stride), math.ceil(wd / stride)
    th = max((oh - 1) * stride + fh - h, 0)
    tw = max((ow - 1) * stride + fw - wd, 0)
    xp = np.zeros((b, h + th, wd + tw, cin), dtype=np.float64)
    xp[:, th // 2 : th // 2 + h, tw // 2 : tw // 2 + wd, :] = x
    out = np.zeros((b, oh, ow, oc), dtype=np.float64)
    for n in range(b):
        for i in range(oh):
            for j in range(ow):
                for o in range(oc):
                    acc = 0.0
                    for di in range(fh):
                        for dj in range(fw):
                            for c in range(cin):
                                acc += float(xp[n, i * stride + di, j * stride + dj, c]) * float(
                                    w[di, dj, c, o]
                                )
                    out[n, i, j, o] = acc
    return out


def test_conv2d_matches_sliding_window_oracle():
    rng = np.random.default_rng(23)
    for shape, fshape, stride in [
        ((2, 9, 5, 3), (3, 3, 3, 4), 2),
        ((1, 6, 6, 2), (2, 4, 2, 3), 1),
        ((2, 5, 7, 1), (5, 3, 1, 2), 3),
    ]:
        x = rng.standard_normal(shape).astype(np.float32)
        w = rng.standard_normal(fshape).astype(np.float32)
        b = rng.standard_normal(fshape[3]).astype(np.float32)
        got = run_op("conv2d", x, w, b, stride=stride)
        want = _conv_oracle(x, w, stride) + b
        # magnitude-relative: per-element ratios blow up at zero crossings
        assert np.max(np.abs(got - want)) < 1e-5 * max(np.max(np.abs(want)), 1.0)


def test_conv2d_paper_entry_shape():
    out = run_op("conv2d", np.zeros((2, 211, 7, 1)), np.zeros((1, 1, 1, 32)), np.zeros(32), stride=2)
    assert out.shape == (2, 106, 4, 32)


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 4, 3, 1)).astype(np.float32)
    out = run_op("conv2d", x, np.ones((1, 1, 1, 1)), np.zeros(1), stride=1)
    assert np.array_equal(out, x)


def test_conv2d_zero_weights_give_zeros():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 6, 5, 3)).astype(np.float32)
    out = run_op("conv2d", x, np.zeros((3, 3, 3, 4)), np.zeros(4), stride=1)
    assert not out.any()


def test_conv2d_relu_activation_and_channel_mismatch():
    conv = run_op("conv2d", np.full((1, 2, 2, 1), -1.0), np.ones((1, 1, 1, 1)), np.zeros(1), stride=1)
    assert not run_op("relu", conv).any()
    with pytest.raises(ShapeMismatchError):
        run_op("conv2d", np.zeros((1, 2, 2, 2)), np.ones((1, 1, 1, 1)), np.zeros(1), stride=1)


def test_conv2d_spec_validation():
    # conv layer specs are checked by infer_shapes, which builders and loads run
    def conv_spec(**overrides):
        fields = dict(filter_height=1, filter_width=1, out_channels=4, stride=1,
                      activation="relu", l2_scale=0.0)
        fields.update(overrides)
        conv = Conv("conv", ("in",), **fields)
        return NetworkSpec("frnet1", (Input("in", (), (4, 4, 1)), conv))

    infer_shapes(conv_spec())
    for bad in (dict(filter_height=0), dict(stride=0), dict(out_channels=-1),
                dict(filter_width=1.5), dict(activation="tanh"), dict(l2_scale=-0.1)):
        with pytest.raises(ShapeMismatchError):
            infer_shapes(conv_spec(**bad))


def _pool_oracle(x, k, stride):
    b, h, w, c = x.shape
    oh, ow = math.ceil(h / stride), math.ceil(w / stride)
    th = max((oh - 1) * stride + k - h, 0)
    tw = max((ow - 1) * stride + k - w, 0)
    xp = np.full((b, h + th, w + tw, c), -np.inf)
    xp[:, th // 2 : th // 2 + h, tw // 2 : tw // 2 + w, :] = x
    out = np.zeros((b, oh, ow, c))
    for n in range(b):
        for i in range(oh):
            for j in range(ow):
                for ch in range(c):
                    out[n, i, j, ch] = xp[
                        n, i * stride : i * stride + k, j * stride : j * stride + k, ch
                    ].max()
    return out


def test_maxpool_matches_window_oracle_exactly():
    rng = np.random.default_rng(31)
    for shape, k, s in [((1, 5, 5, 2), 2, 2), ((2, 7, 3, 1), 3, 2), ((1, 4, 6, 3), 2, 3)]:
        x = rng.standard_normal(shape).astype(np.float32)
        got = run_op("maxpool2d", x, kernel=k, stride=s)
        assert np.array_equal(got, _pool_oracle(x, k, s).astype(np.float32))


def test_maxpool_paper_shape_and_identity():
    out = run_op("maxpool2d", np.zeros((3, 106, 4, 32)), kernel=2, stride=2)
    assert out.shape == (3, 53, 2, 32)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 53, 2, 32)).astype(np.float32)
    assert np.array_equal(run_op("maxpool2d", x, kernel=1, stride=1), x)


def test_maxpool_dominates_window_elements():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 6, 6, 2)).astype(np.float32)
    out = run_op("maxpool2d", x, kernel=2, stride=2)
    # every strictly-inside element is <= the covering output cell
    for i in range(6):
        for j in range(6):
            assert np.all(x[:, i, j, :] <= out[:, i // 2, j // 2, :])


def _dense(x, w, b):
    return run_op("bias_add", run_op("matmul", x, w), b)


def test_dense_identity_sigmoid_and_oracle():
    x = np.array([[1.0, -2.0, 3.0]], dtype=np.float32)
    assert np.array_equal(_dense(x, np.eye(3), np.zeros(3)), x)
    z = run_op("sigmoid", _dense(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1)))
    assert z.tolist() == [[0.5]]
    rng = np.random.default_rng(14)
    xs = rng.standard_normal((3, 8)).astype(np.float32)
    ws = rng.standard_normal((8, 4)).astype(np.float32)
    bs = rng.standard_normal(4).astype(np.float32)
    want = xs.astype(np.float64) @ ws.astype(np.float64) + bs
    assert np.max(np.abs(_dense(xs, ws, bs) - want)) < 1e-5


def test_dense_shape_error():
    with pytest.raises(ShapeMismatchError):
        run_op("matmul", np.zeros((2, 3)), np.zeros((4, 2)))
    with pytest.raises(ShapeMismatchError):
        run_op("bias_add", np.zeros((2, 3)), np.zeros(2))


def test_dropout_identity_cases():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 5)).astype(np.float32)
    assert np.array_equal(run_op("dropout", x, keep_prob=1.0, mode=TRAIN, dropout_seed=3), x)
    assert np.array_equal(run_op("dropout", x, keep_prob=0.5, mode=EVAL, dropout_seed=3), x)
    assert np.array_equal(run_op("dropout", x, keep_prob=0.5, mode=EVAL, dropout_seed=99), x)


def test_dropout_mean_concentration():
    out = run_op("dropout", np.ones(10_000), keep_prob=0.5, mode=TRAIN, dropout_seed=7)
    assert 0.94 <= float(out.mean()) <= 1.06
    # survivors are scaled by 1/keep_prob
    assert np.all(out[out != 0] == 2.0)


def test_dropout_rejects_bad_keep_prob():
    for bad in (0.0, -0.5, 1.5):
        for mode in (TRAIN, EVAL):
            with pytest.raises(GraphError):
                run_op("dropout", np.array([1.0]), keep_prob=bad, mode=mode)


def test_flatten_row_major_and_inverse():
    flat = run_op("flatten", np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 2, 2, 1))
    assert flat.shape == (1, 4)
    assert flat.tolist() == [[1.0, 2.0, 3.0, 4.0]]
    assert 53 * 2 * 192 == 20352
    assert run_op("flatten", np.zeros((3, 53, 2, 192))).shape == (3, 20352)
    rng = np.random.default_rng(16)
    t = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
    assert np.array_equal(run_op("reshape", run_op("flatten", t), item_shape=(3, 4, 5)), t)
    with pytest.raises(ShapeMismatchError):
        run_op("flatten", np.zeros((2, 3)))


def test_activation_helpers():
    assert run_op("relu", np.array([-2.0, 0.0, 3.0])).tolist() == [0.0, 0.0, 3.0]
    s = run_op("sigmoid", np.array([0.0, 100.0, -100.0]))
    assert s[0] == 0.5 and 0.999 < s[1] <= 1.0 and 0.0 <= s[2] < 0.001


@pytest.mark.parametrize(
    "case", gradcheck_cases(), ids=lambda c: c["kind"] + "/" + str(c["inputs"][0].shape)
)
def test_operator_gradients_match_finite_differences(case):
    err = op_gradcheck(
        case["kind"],
        case["inputs"],
        case.get("attrs"),
        mode=case.get("mode", "eval"),
        dropout_seed=case.get("dropout_seed", 0),
    )
    assert err < GRAD_TOL


def _l2_graph(w, scale):
    g = Graph()
    node = g.apply("l2_penalty", [g.parameter("w", Tensor(w))], scale=scale)
    return g, node


@pytest.mark.parametrize("shape", [(3, 5), (1 << 16,), (700, 300)])
def test_l2_penalty_value_matches_float64_sum_of_squares(shape):
    w = np.random.default_rng(4).standard_normal(shape).astype(np.float32)
    g, node = _l2_graph(w, 1.0)
    got = float(g.forward({}, outputs=[node], precision="double")[node].data[0])
    want = float(np.sum(np.square(w, dtype=np.float64)))
    assert abs(got - want) <= 1e-12 * want


def test_l2_penalty_forward_builds_no_full_size_temporary():
    w = np.random.default_rng(5).standard_normal((2048, 1024)).astype(np.float32)
    g, node = _l2_graph(w, 0.001)
    _, peak = peak_alloc(lambda: g.forward({}, outputs=[node]))
    assert peak < 2**20, f"l2_penalty forward peaked at {peak / 2**20:.2f} MB"
