"""Neural operators, registered with the graph engine on import.

Each kind is one forward kernel and one backward rule. They run as graph
nodes: build a `Graph`, `apply` the kind, and call `forward`. The twelve
kinds are the ones something uses. The FRnet-1 and FRnet-2 graphs apply ten:
conv2d, maxpool2d, matmul, bias_add, relu, sigmoid, dropout, flatten, concat
and bce. The gradient checks build their loss from two more, mul and
reduce_sum.

Cross-correlation convention (no kernel flip). SAME padding on each spatial
axis: output extent = ceil(input / stride); total pad = max((out-1)*stride
+ filter - input, 0), split floor(total/2) before and the rest after.

Convolution and max pooling share one gather and one scatter. `_windows` is
one read-only strided view of every window of the SAME-padded input, and a
padded buffer is made only when padding is needed, which is never for a 1x1
filter. A convolution makes one matmul of that view; reshaping it copies the
windows, except for a 1x1 filter at stride 1, whose rows are the input's
pixels. Max pooling keeps a running maximum over the view's k*k window
offsets. It selects by bits, on the same-width unsigned view of the floats:
`best ^ ((win ^ best) * take)` is `win`'s bit pattern where `take` is 1 and
`best`'s where it is 0, and its backward multiplies the adjoint's bits by
0 or 1. Whole bit patterns are picked, never computed, so the result is
exactly `np.where`'s, signed zeros and NaN payloads included. Both
backwards call `_scatter`, which adds one adjoint term per window offset, in
row-major order, into zeros of the input's shape: only the rows and columns
whose windows read the unpadded input, and no term for an offset that reads
only padding.
The identity pool (kernel 1, stride 1) that every inception block holds
returns its input, and its backward returns the upstream adjoint.

Every path gives the same bytes, forward and backward, as the SAME-padded
path that copies each window and takes its argmax (the tests keep that path
as the reference), with one exception: the identity pool's backward passes a
-0.0 adjoint through, where a zero-filled scatter gives +0.0.

Dropout draws its mask from `(dropout_seed, key)`, where `key` is a node
attribute: the model lowering passes the dropout layer's index in the spec,
so a mask does not depend on where its node sits in the graph.

Every backward rule accepts the graph's `bufs`. Handed a parameter's
gradient buffer, conv2d, matmul and bias_add compute the weight or bias
gradient straight into it (`np.matmul(..., out=)`, `.sum(..., out=)`, which
give the same bytes as the allocating forms), so a training step after the
first allocates no weight-sized gradient; the other rules ignore it.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .autodiff import TRAIN, register_op
from .errors import GraphError, ShapeMismatchError
from .rng import stream


def same_pad(extent: int, filt: int, stride: int) -> tuple[int, int, int]:
    """Return (pad_before, pad_after, out_extent) for SAME padding."""
    out = -(-extent // stride)
    total = max((out - 1) * stride + filt - extent, 0)
    before = total // 2
    return before, total - before, out


def _windows(x, fh, fw, stride, fill):
    """The read-only (b, oh, ow, fh, fw, c) view of every window of x, SAME-padded with `fill`.

    x itself backs the view when no padding is needed, as for every 1x1 filter.
    """
    b, h, w, c = x.shape
    pt, pb, oh = same_pad(h, fh, stride)
    pl, pr, ow = same_pad(w, fw, stride)
    if pt or pb or pl or pr:
        xp = np.full((b, h + pt + pb, w + pl + pr, c), fill, dtype=x.dtype)
        xp[:, pt : pt + h, pl : pl + w, :] = x
        x = xp
    sb, sh, sw, sc = x.strides
    return as_strided(x, (b, oh, ow, fh, fw, c), (sb, stride * sh, stride * sw, sh, sw, sc),
                      writeable=False)


def _inside(offset, pad, extent, stride, out):
    """The output positions [lo, hi) whose window, at `offset`, reads inside the unpadded extent."""
    lo = max(-(-(pad - offset) // stride), 0)
    hi = min(-(-(pad + extent - offset) // stride), out)
    return lo, hi


def _scatter(x_shape, fh, fw, stride, term, dtype):
    """Add term(i, j) at every window offset, row-major, into zeros of x_shape.

    Only the part of each term whose windows read the unpadded input is
    added, and an offset that reads only SAME padding is skipped.
    """
    b, h, w, c = x_shape
    pt, _, oh = same_pad(h, fh, stride)
    pl, _, ow = same_pad(w, fw, stride)
    dx = np.zeros(x_shape, dtype=dtype)
    for i in range(fh):
        r0, r1 = _inside(i, pt, h, stride, oh)
        for j in range(fw):
            c0, c1 = _inside(j, pl, w, stride, ow)
            if r0 < r1 and c0 < c1:
                top, left = i + stride * r0 - pt, j + stride * c0 - pl
                bottom, right = top + stride * (r1 - r0), left + stride * (c1 - c0)
                win = dx[:, top:bottom:stride, left:right:stride, :]
                win += term(i, j)[:, r0:r1, c0:c1, :]
    return dx


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
    cols = _windows(x, fh, fw, stride, 0.0)
    bsz, oh, ow = cols.shape[:3]
    # copies the windows, except for a 1x1 filter at stride 1 on a contiguous
    # input, whose rows are the input's pixels
    cols2 = cols.reshape(bsz * oh * ow, fh * fw * cin)
    y = cols2 @ w.reshape(fh * fw * cin, cout) + b
    return y.reshape(bsz, oh, ow, cout), cols2


def _conv2d_bwd(grad, args, out, saved, attrs, bufs=None):
    x, w, b = args
    cols2 = saved
    fh, fw, cin, cout = w.shape
    stride = attrs["stride"]
    _, dw, db = bufs or (None, None, None)
    g2 = grad.reshape(-1, cout)
    if dw is None:
        dw = np.empty(w.shape, np.result_type(cols2, g2))
    np.matmul(cols2.T, g2, out=dw.reshape(-1, cout))
    db = g2.sum(axis=0, out=db)
    dcols = (g2 @ w.reshape(fh * fw * cin, cout).T).reshape(grad.shape[:3] + (fh, fw, cin))
    dx = _scatter(x.shape, fh, fw, stride, lambda i, j: dcols[:, :, :, i, j, :], dcols.dtype)
    return dx, dw, db


# ---------------------------------------------------------------------------
# maxpool2d


def _maxpool2d_fwd(args, attrs, ctx):
    (x,) = args
    _check_rank4(x, "maxpool2d")
    k, stride = attrs["kernel"], attrs["stride"]
    if k == stride == 1:
        return x, None
    wins = _windows(x, k, k, stride, -np.inf)
    bits = wins.view(f"u{x.itemsize}")
    best_bits = bits[:, :, :, 0, 0, :].copy()
    best = best_bits.view(x.dtype)  # follows best_bits, which the loop updates in place
    arg = np.zeros(best.shape, dtype=np.min_scalar_type(k * k - 1))
    for n in range(1, k * k):
        i, j = divmod(n, k)
        # argmax's first-occurrence rule in row-major window order: a later
        # element wins when it is greater, or a NaN over a number
        take = ~(wins[:, :, :, i, j, :] <= best) & (best == best)
        flip = bits[:, :, :, i, j, :] ^ best_bits
        flip *= take
        best_bits ^= flip
        np.maximum(arg, take * arg.dtype.type(n), out=arg)  # offsets rise: the last taken wins
    return best, arg


def _maxpool2d_bwd(grad, args, out, saved, attrs, bufs=None):
    if saved is None:  # identity pool
        return (grad,)
    (x,) = args
    k, stride = attrs["kernel"], attrs["stride"]
    # the adjoint's bits where offset i*k + j won and +0.0's (all zero) elsewhere
    grad_bits = grad.view(f"u{grad.itemsize}")
    return (_scatter(x.shape, k, k, stride,
                     lambda i, j: (grad_bits * (saved == i * k + j)).view(grad.dtype), grad.dtype),)


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


def _relu_bwd(grad, args, out, saved, attrs, bufs=None):
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


def _sigmoid_bwd(grad, args, out, saved, attrs, bufs=None):
    return (grad * out * (1.0 - out),)


# ---------------------------------------------------------------------------
# dropout


def _dropout_mask(shape, keep_prob, seed, key):
    return stream(seed, key).random(shape) < keep_prob


def _dropout_fwd(args, attrs, ctx):
    (x,) = args
    keep, key = attrs["keep_prob"], attrs.get("key")
    if not 0.0 < keep <= 1.0:
        raise GraphError(f"dropout: keep_prob must be in (0, 1], got {keep}")
    if not (isinstance(key, (int, np.integer)) and key >= 0):
        raise GraphError(f"dropout: the mask key must be an integer >= 0, got {key!r}")
    if ctx.mode != TRAIN or keep == 1.0:
        return x.copy(), None
    mask = _dropout_mask(x.shape, keep, ctx.dropout_seed, key)
    scale = mask.astype(x.dtype) / x.dtype.type(keep)
    return x * scale, scale


def _dropout_bwd(grad, args, out, saved, attrs, bufs=None):
    if saved is None:
        return (grad,)
    return (grad * saved,)


# ---------------------------------------------------------------------------
# flatten and channel concat


def _flatten_fwd(args, attrs, ctx):
    (x,) = args
    _check_rank4(x, "flatten")
    return x.reshape(x.shape[0], -1), None


def _flatten_bwd(grad, args, out, saved, attrs, bufs=None):
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


def _concat_bwd(grad, args, out, saved, attrs, bufs=None):
    splits = np.cumsum(saved[:-1])
    return tuple(np.ascontiguousarray(g) for g in np.split(grad, splits, axis=3))


# ---------------------------------------------------------------------------
# elementwise product (strict shapes, no broadcasting)


def _same_shape(a, b, op):
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{op}: shapes {a.shape} and {b.shape} differ")


def _mul_fwd(args, attrs, ctx):
    a, b = args
    _same_shape(a, b, "mul")
    return a * b, None


def _mul_bwd(grad, args, out, saved, attrs, bufs=None):
    a, b = args
    return grad * b, grad * a


# ---------------------------------------------------------------------------
# sum and the BCE loss


def _sum_fwd(args, attrs, ctx):
    (x,) = args
    return np.array([x.sum(dtype=np.float64)], dtype=x.dtype), None


def _sum_bwd(grad, args, out, saved, attrs, bufs=None):
    (x,) = args
    return (np.full(x.shape, grad[0], dtype=grad.dtype),)


BCE_EPS = 1e-7  # predictions are clipped to [BCE_EPS, 1 - BCE_EPS] before the logs


def _bce_fwd(args, attrs, ctx):
    pred, target = args
    _same_shape(pred, target, "bce")
    if not (np.isfinite(pred).all() and np.isfinite(target).all()):
        raise GraphError("bce: inputs must be finite")
    pc = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
    loss = -np.mean(
        target.astype(np.float64) * np.log(pc, dtype=np.float64)
        + (1.0 - target.astype(np.float64)) * np.log1p(-pc.astype(np.float64))
    )
    inside = (pred >= BCE_EPS) & (pred <= 1.0 - BCE_EPS)
    return np.array([loss], dtype=pred.dtype), (pc, inside)


def _bce_bwd(grad, args, out, saved, attrs, bufs=None):
    pred, target = args
    pc, inside = saved
    n = pred.size
    dpred = grad[0] * inside * (pc - target) / (pc * (1.0 - pc) * n)
    dtarget = grad[0] * (np.log(1.0 - pc) - np.log(pc)) / n
    return dpred.astype(pred.dtype), dtarget.astype(pred.dtype)


register_op("conv2d", _conv2d_fwd, _conv2d_bwd)
register_op("maxpool2d", _maxpool2d_fwd, _maxpool2d_bwd)
register_op("matmul", _matmul_fwd, _matmul_bwd)
register_op("bias_add", _bias_add_fwd, _bias_add_bwd)
register_op("relu", _relu_fwd, _relu_bwd)
register_op("sigmoid", _sigmoid_fwd, _sigmoid_bwd)
register_op("dropout", _dropout_fwd, _dropout_bwd)
register_op("flatten", _flatten_fwd, _flatten_bwd)
register_op("concat", _concat_fwd, _concat_bwd)
register_op("mul", _mul_fwd, _mul_bwd)
register_op("reduce_sum", _sum_fwd, _sum_bwd)
register_op("bce", _bce_fwd, _bce_bwd)

