"""Tensor construction, reshape, elementwise math, matmul, channel concat."""

import numpy as np
import pytest

from frnet.errors import ShapeMismatchError
from frnet.tensor import Tensor, add, concat_channels, elementwise, matmul, mul, reshape, sub


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
    t = Tensor(np.arange(1477, dtype=np.float32))
    r = reshape(t, (1, 211, 7, 1))
    assert r.shape == (1, 211, 7, 1)
    assert np.array_equal(r.ravel(), t.ravel())


def test_reshape_identity_and_mismatch():
    t = Tensor([1.0, 2.0, 3.0, 4.0])
    assert reshape(t, (4,)) == t
    with pytest.raises(ShapeMismatchError):
        reshape(Tensor(np.arange(12, dtype=np.float32)), (5, 3))


def test_reshape_round_trip_is_identity():
    rng = np.random.default_rng(11)
    t = Tensor(rng.standard_normal((3, 4, 5)).astype(np.float32))
    back = reshape(reshape(t, (60,)), (3, 4, 5))
    assert back == t


def test_elementwise_examples():
    assert add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).tolist() == [4.0, 6.0]
    t = Tensor([[1.5, -2.0], [0.25, 7.0]])
    assert add(t, Tensor.zeros(t.shape)) == t
    assert sub(Tensor([5.0, 1.0]), Tensor([2.0, 4.0])).tolist() == [3.0, -3.0]


def test_elementwise_matches_scalar_loop_exactly():
    rng = np.random.default_rng(7)
    a = Tensor(rng.standard_normal((6, 5)).astype(np.float32))
    b = Tensor(rng.standard_normal((6, 5)).astype(np.float32))
    for op in ("add", "sub", "mul"):
        got = elementwise(a, b, op).ravel()
        want = [
            {"add": x + y, "sub": x - y, "mul": x * y}[op]
            for x, y in zip(a.ravel().tolist(), b.ravel().tolist())
        ]
        assert got.tolist() == [np.float32(v) for v in want]


def test_elementwise_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        mul(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        elementwise(Tensor([1.0]), Tensor([1.0]), "div")


def test_matmul_identity_and_small_product():
    m = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    eye = Tensor(np.eye(3, dtype=np.float32))
    assert matmul(eye, m) == m
    prod = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert prod.tolist() == [[3.0], [7.0]]


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(3)
    for m, k, n in [(7, 5, 3), (64, 64, 64), (1, 9, 1)]:
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        got = matmul(Tensor(a), Tensor(b)).data
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
        matmul(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]))
    with pytest.raises(ShapeMismatchError):
        matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))


def test_concat_channels_inception_widths():
    parts = [Tensor.zeros((2, 53, 2, c)) for c in (64, 64, 32, 32)]
    out = concat_channels(parts)
    assert out.shape == (2, 53, 2, 192)


def test_concat_channels_single_part_identity():
    t = Tensor(np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4))
    assert concat_channels([t]) == t


def test_concat_channels_spatial_mismatch():
    with pytest.raises(ShapeMismatchError):
        concat_channels([Tensor.zeros((2, 4, 4, 3)), Tensor.zeros((2, 5, 4, 3))])


def test_concat_then_slice_recovers_parts_bitwise():
    rng = np.random.default_rng(19)
    widths = (3, 1, 5)
    parts = [Tensor(rng.standard_normal((2, 3, 2, c)).astype(np.float32)) for c in widths]
    out = concat_channels(parts).data
    start = 0
    for p in parts:
        c = p.shape[3]
        assert np.array_equal(out[:, :, :, start : start + c], p.data)
        start += c
