"""Tensor construction and ownership; the graph's reshape, elementwise,
matmul and channel-concat ops against oracles."""

import numpy as np
import pytest

from conftest import run_op
from frnet.errors import ShapeMismatchError
from frnet.tensor import Tensor


def test_construction_and_flat_order():
    t = Tensor([[1, 2], [3, 4]])
    assert t.shape == (2, 2)
    assert t.dtype == np.float32
    assert t.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]


def test_construction_rejects_bad_extents():
    with pytest.raises(ShapeMismatchError):
        Tensor.zeros((2, 0, 3))
    with pytest.raises(ShapeMismatchError):
        Tensor([1.0, 2.0], shape=(3,))


def test_scalar_input_becomes_rank_one():
    t = Tensor(5.0)
    assert t.shape == (1,)
    assert t.tolist() == [5.0]


def test_tensor_is_immutable():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 9.0


def test_wrap_takes_ownership_without_copying():
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    t = Tensor._wrap(a)
    assert t.data is a and not a.flags.writeable
    # only a non-contiguous array is copied, into row-major layout
    b = np.arange(6, dtype=np.float32).reshape(2, 3).T
    u = Tensor._wrap(b)
    assert u.data.flags.c_contiguous and not u.data.flags.writeable
    assert u.tolist() == b.tolist()


def test_reshape_padded_instance_width():
    x = np.arange(1477, dtype=np.float32).reshape(1, 1477)
    r = run_op("reshape", x, item_shape=(211, 7, 1))
    assert r.shape == (1, 211, 7, 1)
    assert np.array_equal(r.reshape(-1), x.reshape(-1))


def test_reshape_identity_and_mismatch():
    x = np.array([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32)
    assert np.array_equal(run_op("reshape", x, item_shape=(4,)), x)
    with pytest.raises(ShapeMismatchError):
        run_op("reshape", np.arange(12, dtype=np.float32).reshape(1, 12), item_shape=(5, 3))


def test_reshape_round_trip_is_identity():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 4, 5)).astype(np.float32)
    flat = run_op("reshape", x, item_shape=(20,))
    assert np.array_equal(run_op("reshape", flat, item_shape=(4, 5)), x)


def test_elementwise_examples():
    a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    assert run_op("add", a, b).tolist() == [4.0, 6.0]
    t = np.array([[1.5, -2.0], [0.25, 7.0]], dtype=np.float32)
    assert np.array_equal(run_op("add", t, np.zeros_like(t)), t)
    assert run_op("sub", np.array([5.0, 1.0]), np.array([2.0, 4.0])).tolist() == [3.0, -3.0]


def test_elementwise_matches_scalar_loop_exactly():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 5)).astype(np.float32)
    b = rng.standard_normal((6, 5)).astype(np.float32)
    for op in ("add", "sub", "mul"):
        got = run_op(op, a, b).reshape(-1)
        want = [
            {"add": x + y, "sub": x - y, "mul": x * y}[op]
            for x, y in zip(a.reshape(-1).tolist(), b.reshape(-1).tolist())
        ]
        assert got.tolist() == [np.float32(v) for v in want]


def test_elementwise_shape_mismatch():
    for op in ("add", "sub", "mul"):
        with pytest.raises(ShapeMismatchError):
            run_op(op, np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def test_matmul_identity_and_small_product():
    m = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], dtype=np.float32)
    assert np.array_equal(run_op("matmul", np.eye(3), m), m)
    prod = run_op("matmul", np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
    assert prod.tolist() == [[3.0], [7.0]]


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(3)
    for m, k, n in [(7, 5, 3), (64, 64, 64), (1, 9, 1)]:
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        got = run_op("matmul", a, b)
        want = np.zeros((m, n), dtype=np.float64)
        for i in range(m):
            for j in range(n):
                for kk in range(k):
                    want[i, j] += float(a[i, kk]) * float(b[kk, j])
        # relative to the result's magnitude; float32 cancellation makes
        # per-element ratios meaningless at zero crossings
        assert np.max(np.abs(got - want)) < 1e-5 * max(np.max(np.abs(want)), 1.0)


def test_matmul_shape_errors():
    with pytest.raises(ShapeMismatchError):
        run_op("matmul", np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
    with pytest.raises(ShapeMismatchError):
        run_op("matmul", np.array([1.0, 2.0]), np.array([[1.0], [2.0]]))


def test_concat_inception_widths():
    parts = [np.zeros((2, 53, 2, c), dtype=np.float32) for c in (64, 64, 32, 32)]
    assert run_op("concat", *parts).shape == (2, 53, 2, 192)


def test_concat_single_part_identity():
    t = np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4)
    assert np.array_equal(run_op("concat", t), t)


def test_concat_spatial_mismatch():
    with pytest.raises(ShapeMismatchError):
        run_op("concat", np.zeros((2, 4, 4, 3)), np.zeros((2, 5, 4, 3)))


def test_concat_then_slice_recovers_parts_bitwise():
    rng = np.random.default_rng(19)
    parts = [rng.standard_normal((2, 3, 2, c)).astype(np.float32) for c in (3, 1, 5)]
    out = run_op("concat", *parts)
    start = 0
    for p in parts:
        c = p.shape[3]
        assert np.array_equal(out[:, :, :, start : start + c], p)
        start += c
