"""Neural operators as one-op graphs: SAME padding, forward oracles, gradient checks."""

import math

import numpy as np
import pytest

from conftest import DROPOUT_KEY, GRAD_TOL, gradcheck_cases, op_gradcheck, peak_alloc, run_op
from frnet.autodiff import EVAL, TRAIN, Graph
from frnet.errors import GraphError, ShapeMismatchError
from frnet.models import Conv, Input, NetworkSpec, _add_l2, infer_shapes
from frnet.nnops import same_pad
from frnet.tensor import CHUNK, Tensor


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
    for keep, mode, seed in ((1.0, TRAIN, 3), (0.5, EVAL, 3), (0.5, EVAL, 99)):
        out = run_op("dropout", x, keep_prob=keep, key=DROPOUT_KEY, mode=mode, dropout_seed=seed)
        assert np.array_equal(out, x)


def test_dropout_mean_concentration():
    out = run_op("dropout", np.ones(10_000), keep_prob=0.5, key=DROPOUT_KEY, mode=TRAIN, dropout_seed=7)
    assert 0.94 <= float(out.mean()) <= 1.06
    # survivors are scaled by 1/keep_prob
    assert np.all(out[out != 0] == 2.0)


def test_dropout_rejects_bad_keep_prob():
    for bad in (0.0, -0.5, 1.5):
        for mode in (TRAIN, EVAL):
            with pytest.raises(GraphError):
                run_op("dropout", np.array([1.0]), keep_prob=bad, key=DROPOUT_KEY, mode=mode)


def test_flatten_row_major_and_inverse():
    flat = run_op("flatten", np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 2, 2, 1))
    assert flat.shape == (1, 4)
    assert flat.tolist() == [[1.0, 2.0, 3.0, 4.0]]
    assert 53 * 2 * 192 == 20352
    assert run_op("flatten", np.zeros((3, 53, 2, 192))).shape == (3, 20352)
    rng = np.random.default_rng(16)
    t = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
    assert np.array_equal(run_op("flatten", t).reshape(2, 3, 4, 5), t)
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


# The l2 penalty, private to models.train_step_grads: the summation order of
# its value fixes the reported loss bits. Its gradient is checked against
# finite differences of the value in test_models.


@pytest.mark.parametrize("shape", [(3, 5), (1 << 16,), (700, 300)])
def test_l2_penalty_value_matches_float64_sum_of_squares(shape):
    w = np.random.default_rng(4).standard_normal(shape).astype(np.float32)
    got = float(_add_l2(w.astype(np.float64), 1.0, np.zeros(shape))[0])
    want = float(np.sum(np.square(w, dtype=np.float64)))
    assert abs(got - want) <= 1e-12 * want


def _sequential_l2_value(w, scale):
    # the single-threaded chunk loop: float64 sums of squares of each CHUNK,
    # added in chunk order
    flat, buf = w.reshape(-1), np.empty(CHUNK)
    total = 0.0
    for s in range(0, flat.size, CHUNK):
        c = buf[: min(CHUNK, flat.size - s)]
        np.copyto(c, flat[s : s + CHUNK])
        total += np.square(c, out=c).sum()
    return np.array([scale * total], dtype=w.dtype)


@pytest.mark.parametrize("n", [1, 129, CHUNK - 1, CHUNK + 5, 7 * CHUNK + 3, 17 * CHUNK - 17])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_l2_penalty_value_is_bitwise_equal_to_the_sequential_chunk_loop(n, dtype):
    # the reported loss, and so the loss curves, depend on this summation order
    rng = np.random.default_rng(n)
    # magnitudes over many binades, so that any change in summation order shows
    w = (rng.standard_normal(n) * 10.0 ** rng.integers(-4, 5, n)).astype(dtype)
    grad = rng.standard_normal(n).astype(dtype)
    want_grad = grad + dtype(1.0) * 2.0 * 0.001 * w
    got = _add_l2(w, 0.001, grad)
    assert got.tobytes() == _sequential_l2_value(w, 0.001).tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def test_l2_penalty_forward_builds_no_full_size_temporary():
    w = np.random.default_rng(5).standard_normal((2048, 1024)).astype(np.float32)
    grad = np.zeros_like(w)
    _, peak = peak_alloc(lambda: _add_l2(w, 0.001, grad))
    assert peak < 2**20, f"l2 penalty peaked at {peak / 2**20:.2f} MB"


# ---------------------------------------------------------------------------
# every kernel against the SAME-padded path as first written, byte for byte


def _ref_windows(x, fh, fw, stride, pad_value):
    # the generic path as first written: np.pad, then one copy per window offset
    pt, pb, oh = same_pad(x.shape[1], fh, stride)
    pl, pr, ow = same_pad(x.shape[2], fw, stride)
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)), constant_values=pad_value)
    cols = np.empty((x.shape[0], oh, ow, fh, fw, x.shape[3]), dtype=x.dtype)
    for i in range(fh):
        for j in range(fw):
            cols[:, :, :, i, j, :] = xp[:, i : i + stride * oh : stride, j : j + stride * ow : stride, :]
    return cols, (pt, pb, pl, pr)


def _ref_scatter(dcols, x_shape, stride, pads):
    b, h, w, c = x_shape
    _, oh, ow, fh, fw, _ = dcols.shape
    pt, pb, pl, pr = pads
    dxp = np.zeros((b, h + pt + pb, w + pl + pr, c), dtype=dcols.dtype)
    for i in range(fh):
        for j in range(fw):
            dxp[:, i : i + stride * oh : stride, j : j + stride * ow : stride, :] += dcols[:, :, :, i, j, :]
    return dxp[:, pt : pt + h, pl : pl + w, :]


def _ref_conv(x, w, b, stride, up):
    fh, fw, cin, cout = w.shape
    cols, pads = _ref_windows(x, fh, fw, stride, 0.0)
    bsz, oh, ow = cols.shape[:3]
    cols2 = cols.reshape(bsz * oh * ow, fh * fw * cin)
    y = (cols2 @ w.reshape(fh * fw * cin, cout) + b).reshape(bsz, oh, ow, cout)
    g2 = up.reshape(-1, cout)
    dw = (cols2.T @ g2).reshape(w.shape)
    dcols = (g2 @ w.reshape(fh * fw * cin, cout).T).reshape(up.shape[:3] + (fh, fw, cin))
    return y, [_ref_scatter(dcols, x.shape, stride, pads), dw, g2.sum(axis=0)]


def _ref_pool(x, k, stride, up):
    cols, pads = _ref_windows(x, k, k, stride, -np.inf)
    b, oh, ow = cols.shape[:3]
    c = x.shape[3]
    flat = cols.reshape(b, oh, ow, k * k, c)
    arg = flat.argmax(axis=3)
    y = np.take_along_axis(flat, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    dcols = np.zeros((b, oh, ow, k * k, c), dtype=up.dtype)
    np.put_along_axis(dcols, arg[:, :, :, None, :], up[:, :, :, None, :], axis=3)
    return y, [_ref_scatter(dcols.reshape(b, oh, ow, k, k, c), x.shape, stride, pads)]


def _graph_op(kind, inputs, up, precision, **attrs):
    """Forward value and input gradients of one op, given its upstream adjoint `up`.

    loss = reduce_sum(op * up): reduce_sum's adjoint is ones, so the op's
    adjoint is 1 * up, bitwise `up`.
    """
    dtype = np.float64 if precision == "double" else np.float32
    g = Graph()
    params = [g.parameter(f"p{i}", Tensor(a, dtype=dtype)) for i, a in enumerate(inputs)]
    node = g.apply(kind, params, **attrs)
    upn = g.placeholder("up")
    loss = g.apply("reduce_sum", [g.apply("mul", [node, upn])])
    y = g.forward({upn: Tensor(up, dtype=dtype)}, outputs=[node, loss])[node].data
    grads = g.backward(loss)
    return y, [grads[p].data for p in params]


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _upstream(rng, shape, dtype):
    # random adjoint with some exact zeros of both signs
    up = rng.standard_normal(shape).astype(dtype)
    up[rng.random(shape) < 0.2] = 0.0
    up[rng.random(shape) < 0.2] = -0.0
    return up


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize(
    "x_shape, cout, stride",
    [((2, 8, 6, 3), 4, 1), ((2, 7, 5, 3), 4, 1), ((3, 2, 2, 80), 16, 1),
     ((2, 8, 6, 3), 4, 2), ((1, 16, 16, 1), 32, 2), ((2, 7, 7, 8), 4, 2),
     ((2, 211, 7, 1), 32, 2), ((1, 7, 5, 2), 3, 3)],
)
def test_conv2d_1x1_is_bitwise_the_generic_path(x_shape, cout, stride, precision):
    dtype = np.float64 if precision == "double" else np.float32
    rng = np.random.default_rng(sum(x_shape) + cout + stride)
    x = rng.standard_normal(x_shape).astype(dtype)
    w = rng.standard_normal((1, 1, x_shape[3], cout)).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    oh, ow = math.ceil(x_shape[1] / stride), math.ceil(x_shape[2] / stride)
    up = _upstream(rng, (x_shape[0], oh, ow, cout), dtype)
    up[0, 0, 0, :] = -0.0  # a pixel whose whole adjoint is -0.0
    y, grads = _graph_op("conv2d", [x, w, b], up, precision, stride=stride)
    want_y, want_grads = _ref_conv(x, w, b, stride, up)
    _assert_same_bytes(y, want_y)
    for got, want in zip(grads, want_grads):
        _assert_same_bytes(got, want)


@pytest.mark.parametrize(
    "x_shape, fshape, stride",
    [((2, 9, 5, 3), (3, 3, 3, 4), 2), ((1, 6, 6, 2), (5, 5, 2, 3), 1), ((2, 4, 4, 2), (2, 2, 2, 2), 2),
     # 5x5 filters wider than the input: offsets that read only padding
     ((2, 2, 2, 3), (5, 5, 3, 4), 1), ((2, 2, 2, 3), (5, 5, 3, 4), 2),
     ((2, 53, 2, 4), (5, 5, 4, 3), 1), ((2, 53, 2, 4), (5, 5, 4, 3), 2)],
)
def test_conv2d_kxk_is_bitwise_the_padded_reference(x_shape, fshape, stride):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(x_shape).astype(np.float32)
    w = rng.standard_normal(fshape).astype(np.float32)
    b = rng.standard_normal(fshape[3]).astype(np.float32)
    oh, ow = math.ceil(x_shape[1] / stride), math.ceil(x_shape[2] / stride)
    up = _upstream(rng, (x_shape[0], oh, ow, fshape[3]), np.float32)
    up[0, 0, 0, :] = -0.0  # a pixel whose whole adjoint is -0.0
    y, grads = _graph_op("conv2d", [x, w, b], up, "single", stride=stride)
    want_y, want_grads = _ref_conv(x, w, b, stride, up)
    _assert_same_bytes(y, want_y)
    for got, want in zip(grads, want_grads):
        _assert_same_bytes(got, want)


_PAYLOAD_NAN = np.uint32(0x7FC00001).view(np.float32)  # a quiet NaN with payload 1
_NEGATIVE_NAN = np.uint32(0xFFC00000).view(np.float32)


def _tie_windows(shape, rng):
    # 2x2 windows of all-equal values, -inf, NaN and +-0.0 ties among random
    # ones; the window at rows and columns 2:4 holds two NaNs, the default
    # one twice in channel 0 and, in the others, a payload NaN before a
    # negative one
    x = rng.standard_normal(shape).astype(np.float32)
    x[:, 0:2, 0:2, :] = 1.5
    x[:, 0:2, 2:4, :] = -np.inf
    x[:, 2:4, 0:2, 0] = [[0.0, -0.0], [-0.0, 0.0]]
    x[:, 2:4, 0:2, 1:] = [[-0.0], [0.0]]
    x[:, 2:4, 2:4, :] = -1.0
    x[:, 3, 2, :] = np.nan
    x[:, 2, 3, :] = np.nan
    x[:, 2, 3, 1:] = _PAYLOAD_NAN
    x[:, 3, 2, 1:] = _NEGATIVE_NAN
    return x


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize(
    "x_shape, k, stride",
    [# windows that tile the input, with no padding
     ((2, 8, 8, 3), 2, 2), ((1, 4, 4, 2), 2, 2), ((2, 4, 6, 3), 2, 2), ((3, 106, 4, 32), 2, 2),
     ((1, 6, 9, 2), 3, 3), ((1, 2, 2, 3), 2, 2), ((2, 5, 4, 3), 1, 2),
     # padded windows (odd extents) and overlapping ones
     ((1, 5, 5, 2), 2, 2), ((2, 7, 4, 3), 2, 2), ((2, 4, 5, 2), 2, 2), ((2, 6, 6, 2), 3, 2),
     # identity
     ((2, 53, 2, 32), 1, 1), ((1, 4, 4, 2), 1, 1),
     # windows wider than the input: offsets that read only padding
     ((2, 2, 2, 3), 3, 1), ((2, 53, 2, 4), 3, 2)],
)
def test_maxpool_paths_are_bitwise_the_generic_path(x_shape, k, stride, precision):
    dtype = np.float64 if precision == "double" else np.float32
    rng = np.random.default_rng(x_shape[1] * 7 + k)
    x = _tie_windows(x_shape, rng) if x_shape[1] >= 4 and x_shape[2] >= 4 else rng.standard_normal(x_shape)
    x = x.astype(dtype)
    oh, ow = math.ceil(x_shape[1] / stride), math.ceil(x_shape[2] / stride)
    up = rng.standard_normal((x_shape[0], oh, ow, x_shape[3])).astype(dtype)
    if k > 1:  # the identity pool passes -0.0 through; the generic scatter gives +0.0
        up = _upstream(rng, up.shape, dtype)
    with np.errstate(invalid="ignore"):
        y, grads = _graph_op("maxpool2d", [x], up, precision, kernel=k, stride=stride)
        want_y, want_grads = _ref_pool(x, k, stride, up)
    _assert_same_bytes(y, want_y)
    _assert_same_bytes(grads[0], want_grads[0])


def test_identity_pool_passes_values_through_without_copying():
    x = np.random.default_rng(9).standard_normal((4, 64, 64, 16)).astype(np.float32)
    g = Graph()
    p = g.parameter("x", Tensor(x))
    node = g.apply("maxpool2d", [p], kernel=1, stride=1)
    out, peak = peak_alloc(lambda: g.forward({}, outputs=[node])[node])
    assert np.array_equal(out.data, x)
    assert peak < x.nbytes // 8, f"identity pool forward peaked at {peak / 2**20:.2f} MB"
