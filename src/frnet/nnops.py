"""Neural operators, registered with the graph engine on import.

Each kind (2-D convolution, max pooling, matmul, bias add, activations,
dropout, shape ops, elementwise arithmetic, reductions, the BCE loss and the
l2 penalty) is one forward kernel and one backward rule. They run as graph
nodes: build a `Graph`, `apply` the kind, and call `forward`.

Cross-correlation convention (no kernel flip). SAME padding on each spatial
axis: output extent = ceil(input / stride); total pad = max((out-1)*stride
+ filter - input, 0), split floor(total/2) before and the rest after.
"""

import math

import numpy as np

from .autodiff import TRAIN, register_op
from .errors import GraphError, ShapeMismatchError
from .tensor import CHUNK


def same_pad(extent: int, filt: int, stride: int) -> tuple[int, int, int]:
    """Return (pad_before, pad_after, out_extent) for SAME padding."""
    out = -(-extent // stride)
    total = max((out - 1) * stride + filt - extent, 0)
    before = total // 2
    return before, total - before, out


def _window_view(xp, fh, fw, stride, oh, ow):
    # (b, hp, wp, c) -> (b, oh, ow, fh, fw, c) copies of each sliding window
    b, _, _, c = xp.shape
    cols = np.empty((b, oh, ow, fh, fw, c), dtype=xp.dtype)
    for i in range(fh):
        for j in range(fw):
            cols[:, :, :, i, j, :] = xp[:, i : i + stride * oh : stride, j : j + stride * ow : stride, :]
    return cols


def _im2col(x, fh, fw, stride, pad_value=0.0):
    b, h, w, c = x.shape
    pt, pb, oh = same_pad(h, fh, stride)
    pl, pr, ow = same_pad(w, fw, stride)
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)), constant_values=pad_value)
    return _window_view(xp, fh, fw, stride, oh, ow), (pt, pl, oh, ow)


def _col2im(dcols, x_shape, fh, fw, stride, pads):
    b, h, w, c = x_shape
    pt, pl, oh, ow = pads
    _, pb, _ = same_pad(h, fh, stride)
    _, pr, _ = same_pad(w, fw, stride)
    dxp = np.zeros((b, h + pt + pb, w + pl + pr, c), dtype=dcols.dtype)
    for i in range(fh):
        for j in range(fw):
            dxp[:, i : i + stride * oh : stride, j : j + stride * ow : stride, :] += dcols[:, :, :, i, j, :]
    return dxp[:, pt : pt + h, pl : pl + w, :]


def _check_rank4(x, op):
    if x.ndim != 4:
        raise ShapeMismatchError(f"{op} expects a rank-4 [batch, h, w, c] input, got {x.shape}")


# ---------------------------------------------------------------------------
# conv2d


def _conv2d_check(x_shape, w_shape, b_shape):
    if len(w_shape) != 4:
        raise ShapeMismatchError(f"conv2d weights must be [fh, fw, cin, cout], got {w_shape}")
    if w_shape[2] != x_shape[3]:
        raise ShapeMismatchError(
            f"conv2d: input has {x_shape[3]} channels but weights expect {w_shape[2]}"
        )
    if b_shape != (w_shape[3],):
        raise ShapeMismatchError(f"conv2d bias shape {b_shape} does not match {w_shape[3]} filters")


def _conv2d_fwd(args, attrs, ctx):
    x, w, b = args
    _check_rank4(x, "conv2d")
    _conv2d_check(x.shape, w.shape, b.shape)
    fh, fw, cin, cout = w.shape
    stride = attrs["stride"]
    cols, pads = _im2col(x, fh, fw, stride, pad_value=0.0)
    bsz, oh, ow = cols.shape[:3]
    cols2 = cols.reshape(bsz * oh * ow, fh * fw * cin)
    y = cols2 @ w.reshape(fh * fw * cin, cout) + b
    return y.reshape(bsz, oh, ow, cout), (cols2, pads)


def _conv2d_bwd(grad, args, out, saved, attrs):
    x, w, b = args
    cols2, pads = saved
    fh, fw, cin, cout = w.shape
    stride = attrs["stride"]
    g2 = grad.reshape(-1, cout)
    dw = (cols2.T @ g2).reshape(w.shape)
    db = g2.sum(axis=0)
    dcols = (g2 @ w.reshape(fh * fw * cin, cout).T).reshape(grad.shape[:3] + (fh, fw, cin))
    dx = _col2im(dcols, x.shape, fh, fw, stride, pads)
    return dx, dw, db


# ---------------------------------------------------------------------------
# maxpool2d


def _maxpool2d_fwd(args, attrs, ctx):
    (x,) = args
    _check_rank4(x, "maxpool2d")
    k, stride = attrs["kernel"], attrs["stride"]
    cols, pads = _im2col(x, k, k, stride, pad_value=-np.inf)
    b, oh, ow = cols.shape[:3]
    c = x.shape[3]
    flat = cols.reshape(b, oh, ow, k * k, c)
    arg = flat.argmax(axis=3)  # first occurrence in row-major window order
    y = np.take_along_axis(flat, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return y, (arg, pads)


def _maxpool2d_bwd(grad, args, out, saved, attrs):
    (x,) = args
    arg, pads = saved
    k, stride = attrs["kernel"], attrs["stride"]
    b, oh, ow, c = grad.shape
    dcols = np.zeros((b, oh, ow, k * k, c), dtype=grad.dtype)
    np.put_along_axis(dcols, arg[:, :, :, None, :], grad[:, :, :, None, :], axis=3)
    return (_col2im(dcols.reshape(b, oh, ow, k, k, c), x.shape, k, k, stride, pads),)


# ---------------------------------------------------------------------------
# dense pieces


def _matmul_fwd(args, attrs, ctx):
    a, b = args
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    return a @ b, None


def _matmul_bwd(grad, args, out, saved, attrs):
    a, b = args
    return grad @ b.T, a.T @ grad


def _bias_add_fwd(args, attrs, ctx):
    x, b = args
    if b.ndim != 1 or x.ndim < 2 or x.shape[-1] != b.shape[0]:
        raise ShapeMismatchError(f"bias_add: bias {b.shape} does not fit last axis of {x.shape}")
    return x + b, None


def _bias_add_bwd(grad, args, out, saved, attrs):
    db = grad.reshape(-1, grad.shape[-1]).sum(axis=0)
    return grad, db


# ---------------------------------------------------------------------------
# activations


def _relu_fwd(args, attrs, ctx):
    (x,) = args
    return np.maximum(x, 0), None


def _relu_bwd(grad, args, out, saved, attrs):
    (x,) = args
    return (grad * (x > 0),)


def _sigmoid_fwd(args, attrs, ctx):
    (x,) = args
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out, None


def _sigmoid_bwd(grad, args, out, saved, attrs):
    return (grad * out * (1.0 - out),)


# ---------------------------------------------------------------------------
# dropout


def _dropout_mask(shape, keep_prob, seed, node_id):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, node_id])))
    return rng.random(shape) < keep_prob


def _dropout_fwd(args, attrs, ctx):
    (x,) = args
    keep = attrs["keep_prob"]
    if not 0.0 < keep <= 1.0:
        raise GraphError(f"dropout: keep_prob must be in (0, 1], got {keep}")
    if ctx.mode != TRAIN or keep == 1.0:
        return x.copy(), None
    mask = _dropout_mask(x.shape, keep, ctx.dropout_seed, ctx.node_id)
    scale = mask.astype(x.dtype) / x.dtype.type(keep)
    return x * scale, scale


def _dropout_bwd(grad, args, out, saved, attrs):
    if saved is None:
        return (grad,)
    return (grad * saved,)


# ---------------------------------------------------------------------------
# shape ops


def _flatten_fwd(args, attrs, ctx):
    (x,) = args
    _check_rank4(x, "flatten")
    return x.reshape(x.shape[0], -1), None


def _flatten_bwd(grad, args, out, saved, attrs):
    (x,) = args
    return (grad.reshape(x.shape),)


def _reshape_fwd(args, attrs, ctx):
    # item_shape excludes the batch axis so one graph serves any batch size
    (x,) = args
    item = tuple(attrs["item_shape"])
    if math.prod(x.shape[1:]) != math.prod(item):
        raise ShapeMismatchError(f"cannot reshape items of {x.shape} into {item}")
    return x.reshape((x.shape[0],) + item), None


def _reshape_bwd(grad, args, out, saved, attrs):
    (x,) = args
    return (grad.reshape(x.shape),)


def _concat_fwd(args, attrs, ctx):
    first = args[0]
    _check_rank4(first, "concat")
    for a in args[1:]:
        if a.ndim != 4 or a.shape[:3] != first.shape[:3]:
            raise ShapeMismatchError(
                f"concat: batch/height/width must match, got {first.shape} and {a.shape}"
            )
    return np.concatenate(args, axis=3), [a.shape[3] for a in args]


def _concat_bwd(grad, args, out, saved, attrs):
    splits = np.cumsum(saved[:-1])
    return tuple(np.ascontiguousarray(g) for g in np.split(grad, splits, axis=3))


# ---------------------------------------------------------------------------
# elementwise arithmetic (strict shapes, no broadcasting)


def _same_shape(a, b, op):
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{op}: shapes {a.shape} and {b.shape} differ")


def _add_fwd(args, attrs, ctx):
    a, b = args
    _same_shape(a, b, "add")
    return a + b, None


def _sub_fwd(args, attrs, ctx):
    a, b = args
    _same_shape(a, b, "sub")
    return a - b, None


def _mul_fwd(args, attrs, ctx):
    a, b = args
    _same_shape(a, b, "mul")
    return a * b, None


def _add_bwd(grad, args, out, saved, attrs):
    return grad, grad


def _sub_bwd(grad, args, out, saved, attrs):
    return grad, -grad


def _mul_bwd(grad, args, out, saved, attrs):
    a, b = args
    return grad * b, grad * a


# ---------------------------------------------------------------------------
# reductions and losses


def _sum_fwd(args, attrs, ctx):
    (x,) = args
    return np.array([x.sum(dtype=np.float64)], dtype=x.dtype), None


def _sum_bwd(grad, args, out, saved, attrs):
    (x,) = args
    return (np.full(x.shape, grad[0], dtype=grad.dtype),)


def _mean_fwd(args, attrs, ctx):
    (x,) = args
    return np.array([x.mean(dtype=np.float64)], dtype=x.dtype), None


def _mean_bwd(grad, args, out, saved, attrs):
    (x,) = args
    return (np.full(x.shape, grad[0] / x.size, dtype=grad.dtype),)


def _bce_fwd(args, attrs, ctx):
    pred, target = args
    _same_shape(pred, target, "bce")
    if not (np.isfinite(pred).all() and np.isfinite(target).all()):
        raise GraphError("bce: inputs must be finite")
    eps = attrs.get("eps", 1e-7)
    pc = np.clip(pred, eps, 1.0 - eps)
    loss = -np.mean(
        target.astype(np.float64) * np.log(pc, dtype=np.float64)
        + (1.0 - target.astype(np.float64)) * np.log1p(-pc.astype(np.float64))
    )
    inside = (pred >= eps) & (pred <= 1.0 - eps)
    return np.array([loss], dtype=pred.dtype), (pc, inside)


def _bce_bwd(grad, args, out, saved, attrs):
    pred, target = args
    pc, inside = saved
    n = pred.size
    dpred = grad[0] * inside * (pc - target) / (pc * (1.0 - pc) * n)
    dtarget = grad[0] * (np.log(1.0 - pc) - np.log(pc)) / n
    return dpred.astype(pred.dtype), dtarget.astype(pred.dtype)


def _l2_penalty_fwd(args, attrs, ctx):
    # float64 sum of squares over flat chunks: no full-size float64 temporary.
    # Only the reported loss reads this value; the backward rule uses w.
    (w,) = args
    flat, buf = w.reshape(-1), np.empty(CHUNK)
    total = 0.0
    for s in range(0, flat.size, CHUNK):
        c = buf[: min(CHUNK, flat.size - s)]
        np.copyto(c, flat[s : s + CHUNK])
        total += np.square(c, out=c).sum()
    return np.array([attrs["scale"] * total], dtype=w.dtype), None


def _l2_penalty_bwd(grad, args, out, saved, attrs):
    (w,) = args
    return (grad[0] * 2.0 * attrs["scale"] * w,)


register_op("conv2d", _conv2d_fwd, _conv2d_bwd)
register_op("maxpool2d", _maxpool2d_fwd, _maxpool2d_bwd)
register_op("matmul", _matmul_fwd, _matmul_bwd)
register_op("bias_add", _bias_add_fwd, _bias_add_bwd)
register_op("relu", _relu_fwd, _relu_bwd)
register_op("sigmoid", _sigmoid_fwd, _sigmoid_bwd)
register_op("dropout", _dropout_fwd, _dropout_bwd)
register_op("flatten", _flatten_fwd, _flatten_bwd)
register_op("reshape", _reshape_fwd, _reshape_bwd)
register_op("concat", _concat_fwd, _concat_bwd)
register_op("add", _add_fwd, _add_bwd)
register_op("sub", _sub_fwd, _sub_bwd)
register_op("mul", _mul_fwd, _mul_bwd)
register_op("reduce_sum", _sum_fwd, _sum_bwd)
register_op("reduce_mean", _mean_fwd, _mean_bwd)
register_op("bce", _bce_fwd, _bce_bwd)
register_op("l2_penalty", _l2_penalty_fwd, _l2_penalty_bwd)

