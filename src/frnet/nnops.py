"""Neural operators, registered with the graph engine on import.

Each kind (2-D convolution, max pooling, matmul, bias add, activations,
dropout, shape ops, elementwise arithmetic, reductions, the BCE loss and the
l2 penalty) is one forward kernel and one backward rule. They run as graph
nodes: build a `Graph`, `apply` the kind, and call `forward`.

Cross-correlation convention (no kernel flip). SAME padding on each spatial
axis: output extent = ceil(input / stride); total pad = max((out-1)*stride
+ filter - input, 0), split floor(total/2) before and the rest after.

A padded buffer is made only when padding is needed, which is never for a
1x1 filter. Convolutions take one strided view of every window of the
SAME-padded input (im2col) and make one matmul of it; reshaping that view
copies the windows, except for a 1x1 filter at stride 1, whose rows are the
input's pixels. The backward scatters the gradient back window by window
(col2im). Max pooling keeps a running maximum over the k*k window offsets,
each a strided view of the padded input, and its backward adds the adjoint
back one offset at a time. The identity pool (kernel 1, stride 1) that every
inception block holds returns its input, and its backward returns the
upstream adjoint.

Every path gives the same bytes, forward and backward, as the SAME-padded
path that copies each window and takes its argmax (the tests keep that path
as the reference), with one exception: the identity pool's backward passes a
-0.0 adjoint through, where a zero-filled scatter gives +0.0.

The l2 penalty is registered with `adds_into`: when its weight's gradient
already holds the conv's or matmul's term, the graph hands that array over
and the rule adds `c * w` into it (one CHUNK at a time for a weight larger
than one CHUNK), so a weight with an l2 term gets one weight-sized gradient,
not two and their sum. Float addition and multiplication are commutative,
so the bits equal `dw + c * w`.

conv2d, matmul and bias_add are registered with `writes_bufs`: handed a
parameter's gradient buffer, the rule computes the weight or bias gradient
straight into it (`np.matmul(..., out=)`, `.sum(..., out=)`, which give
the same bytes as the allocating forms), so a training step after the first
allocates no weight-sized gradient.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .autodiff import TRAIN, register_op
from .errors import GraphError, ShapeMismatchError
from .tensor import CHUNK


def same_pad(extent: int, filt: int, stride: int) -> tuple[int, int, int]:
    """Return (pad_before, pad_after, out_extent) for SAME padding."""
    out = -(-extent // stride)
    total = max((out - 1) * stride + filt - extent, 0)
    before = total // 2
    return before, total - before, out


def _pad_same(x, fh, fw, stride, pad_value):
    """x SAME-padded with pad_value (x itself when no padding is needed), and (pt, pl, oh, ow)."""
    b, h, w, c = x.shape
    pt, pb, oh = same_pad(h, fh, stride)
    pl, pr, ow = same_pad(w, fw, stride)
    if not (pt or pb or pl or pr):
        return x, (pt, pl, oh, ow)
    xp = np.full((b, h + pt + pb, w + pl + pr, c), pad_value, dtype=x.dtype)
    xp[:, pt : pt + h, pl : pl + w, :] = x
    return xp, (pt, pl, oh, ow)


def _padded_zeros(x_shape, fh, fw, stride, dtype):
    b, h, w, c = x_shape
    pt, pb, _ = same_pad(h, fh, stride)
    pl, pr, _ = same_pad(w, fw, stride)
    return np.zeros((b, h + pt + pb, w + pl + pr, c), dtype=dtype)


def _window(xp, i, j, stride, oh, ow):
    """The (b, oh, ow, c) view of padded xp at window offset (i, j)."""
    return xp[:, i : i + stride * oh : stride, j : j + stride * ow : stride, :]


def _im2col(x, fh, fw, stride):
    # (b, h, w, c) -> (b, oh, ow, fh, fw, c): a read-only view of every window
    # of the zero-padded input; same_pad keeps every window inside the buffer
    xp, pads = _pad_same(x, fh, fw, stride, 0.0)
    _, _, oh, ow = pads
    sb, sh, sw, sc = xp.strides
    windows = as_strided(xp, (x.shape[0], oh, ow, fh, fw, x.shape[3]),
                         (sb, stride * sh, stride * sw, sh, sw, sc), writeable=False)
    return windows, pads


def _col2im(dcols, x_shape, fh, fw, stride, pads):
    pt, pl, oh, ow = pads
    dxp = _padded_zeros(x_shape, fh, fw, stride, dcols.dtype)
    for i in range(fh):
        for j in range(fw):
            win = _window(dxp, i, j, stride, oh, ow)
            win += dcols[:, :, :, i, j, :]
    return dxp[:, pt : pt + x_shape[1], pl : pl + x_shape[2], :]


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
    cols, pads = _im2col(x, fh, fw, stride)
    bsz, oh, ow = cols.shape[:3]
    # copies the windows, except for a 1x1 filter at stride 1 on a contiguous
    # input, whose rows are the input's pixels
    cols2 = cols.reshape(bsz * oh * ow, fh * fw * cin)
    y = cols2 @ w.reshape(fh * fw * cin, cout) + b
    return y.reshape(bsz, oh, ow, cout), (cols2, pads)


def _conv2d_bwd(grad, args, out, saved, attrs, bufs=None):
    x, w, b = args
    cols2, pads = saved
    fh, fw, cin, cout = w.shape
    stride = attrs["stride"]
    _, dw, db = bufs or (None, None, None)
    g2 = grad.reshape(-1, cout)
    if dw is None:
        dw = np.empty(w.shape, np.result_type(cols2, g2))
    np.matmul(cols2.T, g2, out=dw.reshape(-1, cout))
    db = g2.sum(axis=0, out=db)
    dcols = (g2 @ w.reshape(fh * fw * cin, cout).T).reshape(grad.shape[:3] + (fh, fw, cin))
    dx = _col2im(dcols, x.shape, fh, fw, stride, pads)
    return dx, dw, db


# ---------------------------------------------------------------------------
# maxpool2d


def _maxpool2d_fwd(args, attrs, ctx):
    (x,) = args
    _check_rank4(x, "maxpool2d")
    k, stride = attrs["kernel"], attrs["stride"]
    if k == stride == 1:
        return x, None
    xp, pads = _pad_same(x, k, k, stride, -np.inf)
    _, _, oh, ow = pads
    best = _window(xp, 0, 0, stride, oh, ow)
    arg = np.zeros(best.shape, dtype=np.min_scalar_type(k * k - 1))
    for n in range(1, k * k):
        win = _window(xp, *divmod(n, k), stride, oh, ow)
        # argmax's first-occurrence rule in row-major window order: a later
        # element wins when it is greater, or a NaN over a number; np.where
        # selects elements, so signed zeros and NaN payloads pass as they are
        take = ~(win <= best) & (best == best)
        best = np.where(take, win, best)
        arg[take] = n
    return best, (arg, pads)


def _maxpool2d_bwd(grad, args, out, saved, attrs):
    if saved is None:  # identity pool
        return (grad,)
    (x,) = args
    k, stride = attrs["kernel"], attrs["stride"]
    arg, (pt, pl, oh, ow) = saved
    dxp = _padded_zeros(x.shape, k, k, stride, grad.dtype)
    for n in range(k * k):
        # the adjoint where offset n won and +0.0 elsewhere, added like col2im
        win = _window(dxp, *divmod(n, k), stride, oh, ow)
        win += np.where(arg == n, grad, 0)
    return (dxp[:, pt : pt + x.shape[1], pl : pl + x.shape[2], :],)


# ---------------------------------------------------------------------------
# dense pieces


def _matmul_fwd(args, attrs, ctx):
    a, b = args
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    return a @ b, None


def _matmul_bwd(grad, args, out, saved, attrs, bufs=None):
    a, b = args
    return grad @ b.T, np.matmul(a.T, grad, out=None if bufs is None else bufs[1])


def _bias_add_fwd(args, attrs, ctx):
    x, b = args
    if b.ndim != 1 or x.ndim < 2 or x.shape[-1] != b.shape[0]:
        raise ShapeMismatchError(f"bias_add: bias {b.shape} does not fit last axis of {x.shape}")
    return x + b, None


def _bias_add_bwd(grad, args, out, saved, attrs, bufs=None):
    return grad, grad.reshape(-1, grad.shape[-1]).sum(axis=0, out=None if bufs is None else bufs[1])


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


def _l2_penalty_bwd(grad, args, out, saved, attrs, into=None):
    # d/dw = c * w. Handed w's adjoint, the rule adds c * w into it: as one
    # product for a weight of at most one CHUNK (no larger than the scratch),
    # else one CHUNK at a time through one scratch buffer. It allocates a
    # weight-sized gradient only when there is no adjoint to add into.
    (w,) = args
    c = grad[0] * 2.0 * attrs["scale"]
    if into is None:
        return (c * w,)
    if w.size <= CHUNK:
        np.add(into, c * w, out=into)
        return (into,)
    flat, acc = w.reshape(-1), into.reshape(-1)
    buf = np.empty(CHUNK, dtype=into.dtype)
    for s in range(0, flat.size, CHUNK):
        a = acc[s : s + CHUNK]
        np.add(a, np.multiply(flat[s : s + CHUNK], c, out=buf[: a.size]), out=a)
    return (into,)


register_op("conv2d", _conv2d_fwd, _conv2d_bwd, writes_bufs=True)
register_op("maxpool2d", _maxpool2d_fwd, _maxpool2d_bwd)
register_op("matmul", _matmul_fwd, _matmul_bwd, writes_bufs=True)
register_op("bias_add", _bias_add_fwd, _bias_add_bwd, writes_bufs=True)
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
register_op("l2_penalty", _l2_penalty_fwd, _l2_penalty_bwd, adds_into=True)

