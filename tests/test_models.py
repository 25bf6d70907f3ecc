"""Network builders: shape traces, parameter counts, weight init, extraction."""

import math

import numpy as np
import pytest

from conftest import GRAD_STEP, GRAD_TOL, peak_alloc
from frnet import tensor
from frnet.autodiff import TRAIN, Graph
from frnet.errors import ShapeMismatchError
from frnet.models import (
    DEEP_FEATURES,
    Conv,
    Dense,
    Dropout,
    Flatten,
    Inception,
    Input,
    NetworkSpec,
    Pool,
    _add_l2,
    _glorot,
    build_frnet1,
    build_frnet2,
    compile_model,
    extract_features,
    infer_shapes,
    parameter_count,
    parameter_manifest,
    spec_from_dict,
    spec_to_dict,
)
from frnet.rng import INIT, stream
from frnet.tensor import CHUNK, PARALLEL_MIN, Tensor

FRNET1_TRACE = {
    "in": (211, 7, 1),
    "conv1": (106, 4, 32),
    "pool1": (53, 2, 32),
    "incep1": (53, 2, 192),
    "flat": (20352,),
    "fc1": (4096,),
    "fc2": (2048,),
    "drop": (2048,),
    "out": (1476,),
}

FRNET2_TRACE = {
    "in": (64, 64, 1),
    "conv1": (32, 32, 32),
    "pool1": (16, 16, 32),
    "incep_s1": (16, 16, 192),
    "pool_s1": (8, 8, 192),
    "incep_s2": (8, 8, 192),
    "merge": (8, 8, 384),
    "incep_top": (8, 8, 544),
    "flat": (34816,),
    "fc1": (2048,),
    "fc2": (512,),
    "drop": (512,),
    "out": (1,),
}


def test_frnet1_shape_trace_is_exact():
    assert infer_shapes(build_frnet1()) == FRNET1_TRACE


def test_frnet2_shape_trace_is_exact():
    assert infer_shapes(build_frnet2()) == FRNET2_TRACE


def _conv_params(fh, fw, cin, cout):
    return fh * fw * cin * cout + cout


def _inception_params(cin, bottleneck=16, branches=((3, 3, 64), (2, 2, 64), (5, 5, 32))):
    total = 0
    for fh, fw, oc in branches:
        total += _conv_params(1, 1, cin, bottleneck)
        total += _conv_params(fh, fw, bottleneck, oc)
    return total


def test_frnet1_parameter_count_closed_form():
    want = (
        _conv_params(1, 1, 1, 32)
        + _inception_params(32)
        + (20352 * 4096 + 4096)
        + (4096 * 2048 + 2048)
        + (2048 * 1476 + 1476)
    )
    assert parameter_count(build_frnet1()) == want == 94_808_788


def test_frnet2_parameter_count_closed_form():
    want = (
        _conv_params(1, 1, 1, 32)
        + _inception_params(32)  # stride-1 block
        + _inception_params(32)  # stride-2 block
        + _inception_params(384)
        + (34816 * 2048 + 2048)
        + (2048 * 512 + 512)
        + (512 * 1 + 1)
    )
    assert parameter_count(build_frnet2()) == want == 72_455_345


def test_inception_channel_formula():
    spec = Inception("incep", ("x",))
    assert spec.out_channels(32) == 192 == 160 + 32
    assert spec.out_channels(384) == 544 == 160 + 384


def test_manifest_matches_compiled_parameters():
    for spec in (
        build_frnet1(feature_count=48, orientation=(7, 7), hidden=(32, 16)),
        # parallel inception blocks and a channel merge
        build_frnet2(feature_count=16, hidden=(8, 4), bottleneck_channels=4),
    ):
        model = compile_model(spec, init_seed=3, random_init=False)
        manifest = parameter_manifest(spec)
        params = model.params()
        assert list(manifest) == list(params)
        assert all(params[k].shape == manifest[k] for k in manifest)


def test_manifest_allocates_nothing_sized_by_the_spec():
    # checkpoint loads run the manifest on untrusted specs
    spec = NetworkSpec("huge", (
        Input("in", (), (1, 1, 1)),
        Flatten("flat", ("in",)),
        Dense("fc", ("flat",), 10**12),
    ))
    manifest, peak = peak_alloc(lambda: parameter_manifest(spec))
    assert manifest == {"fc/w": (1, 10**12), "fc/b": (10**12,)}
    assert peak < 1 << 20


def test_repeated_layer_name_is_rejected():
    # two layers named "fc" would declare two "fc/w" nodes, and only one is saved
    spec = NetworkSpec("dup", (
        Input("in", (), (1, 1, 3)),
        Flatten("flat", ("in",)),
        Dense("fc", ("flat",), 3),
        Dense("fc", ("fc",), 3),
    ))
    with pytest.raises(ShapeMismatchError, match="'fc'"):
        infer_shapes(spec)


def test_input_that_names_no_earlier_layer_is_rejected():
    spec = NetworkSpec("dangling", (
        Input("in", (), (1, 1, 3)),
        Flatten("flat", ("nope",)),
    ))
    with pytest.raises(ShapeMismatchError, match="layer flat: input 'nope' names no earlier layer"):
        infer_shapes(spec)
    with pytest.raises(ShapeMismatchError, match="'nope'"):
        compile_model(spec, init_seed=0)


@pytest.mark.parametrize("layer", [
    Conv("conv", ("flat",), 1, 1, 4, 1),
    Pool("pool", ("flat",), 2, 2),
    Inception("incep", ("flat",)),
], ids=["conv", "pool", "inception"])
def test_spatial_layer_on_a_flat_input_is_rejected(layer):
    spec = NetworkSpec("flat-then-spatial", (Input("in", (), (4, 4, 1)), Flatten("flat", ("in",)), layer))
    with pytest.raises(ShapeMismatchError, match=f"{layer.name} needs an \\(h, w, c\\) input"):
        infer_shapes(spec)


@pytest.mark.parametrize("batch", [1, 2, 7])
def test_forward_shapes_match_static_inference(batch):
    for build, image in [
        (build_frnet1, (211, 7, 1)),
        (build_frnet2, (64, 64, 1)),
    ]:
        spec = build()
        model = compile_model(spec, init_seed=0, random_init=False)
        x = np.zeros((batch,) + image, dtype=np.float32)
        out = model.predict(x)
        assert out.shape == (batch,) + model.shapes[spec.output_layer.name]


def test_deep_feature_rows_are_4096_and_finite():
    model = compile_model(build_frnet1(), init_seed=1, random_init=False)
    x = np.random.default_rng(0).random((1, 211, 7, 1), dtype=np.float32)
    rows = extract_features(model, x)
    assert rows.shape == (1, 4096)
    assert np.isfinite(rows).all()


def _small_ae_model(seed=11):
    spec = build_frnet1(feature_count=48, orientation=(7, 7), hidden=(32, 16))
    return compile_model(spec, init_seed=seed)


def test_identical_instances_give_identical_rows():
    model = _small_ae_model()
    x = np.random.default_rng(1).random((1, 7, 7, 1), dtype=np.float32)
    both = extract_features(model, np.concatenate([x, x], axis=0))
    assert np.array_equal(both[0], both[1])


def test_extract_is_invariant_to_batch_partitioning():
    model = _small_ae_model()
    x = np.random.default_rng(2).random((37, 7, 7, 1), dtype=np.float32)
    whole = extract_features(model, x)
    by_ones = np.concatenate([extract_features(model, x[i : i + 1]) for i in range(37)])
    assert whole.shape == (37, 32)
    assert np.array_equal(whole, by_ones)
    # an uneven split must agree too
    split = np.concatenate([extract_features(model, x[:5]), extract_features(model, x[5:])])
    assert np.array_equal(whole, split)
    # no rows still give the (0, width) float32 matrix
    empty = extract_features(model, x[:0])
    assert empty.shape == (0, 32) and empty.dtype == np.float32


def test_zero_weight_model_gives_equal_rows():
    spec = build_frnet1(feature_count=48, orientation=(7, 7), hidden=(32, 16))
    model = compile_model(spec, init_seed=0, random_init=False)
    x = np.random.default_rng(3).random((6, 7, 7, 1), dtype=np.float32)
    rows = extract_features(model, x)
    assert np.array_equal(rows, np.broadcast_to(rows[0], rows.shape))
    preds = model.predict(x)
    # zero logits: sigmoid gives 0.5 everywhere
    assert np.all(preds == 0.5)


def test_compile_is_seed_deterministic():
    spec = build_frnet1(feature_count=48, orientation=(7, 7), hidden=(32, 16))
    a = compile_model(spec, init_seed=5).params()
    b = compile_model(spec, init_seed=5).params()
    c = compile_model(spec, init_seed=6).params()
    assert all(np.array_equal(a[k].data, b[k].data) for k in a)
    assert not all(np.array_equal(a[k].data, c[k].data) for k in a)


def _glorot_reference(rng, shape):
    # the one-call draw _glorot replaced: every double at once, then rounded
    fan_in, fan_out = math.prod(shape[:-1]), math.prod(shape[:-2]) * shape[-1]
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
@pytest.mark.parametrize("shape", [
    (3, 5), (1, 1, 4, 8), (3, CHUNK // 2 + 7), (2, 2, 4, CHUNK // 8 + 3),
    (PARALLEL_MIN // 4, 4), (3, PARALLEL_MIN // 2 + 5), (1, 1, 32, 17 * CHUNK // 32 + 1),
], ids=["small", "small-kernel", "straddling-chunks", "kernel-straddling-chunks",
        "at-threshold", "above-threshold", "kernel-above-threshold"])
def test_glorot_is_bitwise_the_one_call_draw(shape, cpus, helper_threads, monkeypatch):
    monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: cpus)
    got_rng, want_rng = stream(11, INIT), stream(11, INIT)
    got_rng.uniform(size=3), want_rng.uniform(size=3)  # a stream part way through
    got, want = _glorot(got_rng, shape), _glorot_reference(want_rng, shape)
    assert got.shape == shape and got.data.dtype == np.float32
    assert got.data.tobytes() == want.tobytes()
    # the stream ends past the whole weight, so every later draw keeps its bits
    assert got_rng.uniform(size=5).tobytes() == want_rng.uniform(size=5).tobytes()
    assert len(helper_threads) == (1 if math.prod(shape) >= PARALLEL_MIN and len(cpus) > 1 else 0)


def test_compiled_weights_are_the_init_streams_one_call_draws():
    spec = build_frnet2(feature_count=64, hidden=(16, 8))
    model = compile_model(spec, init_seed=4)
    rng = stream(4, INIT)
    for name, p in model.params().items():  # creation order
        want = _glorot_reference(rng, p.shape) if p.data.ndim > 1 else np.zeros(p.shape, np.float32)
        assert p.data.tobytes() == want.tobytes(), name


def test_train_step_returns_gradients_for_all_parameters():
    model = _small_ae_model()
    rng = np.random.default_rng(4)
    x = rng.random((3, 7, 7, 1), dtype=np.float32)
    y = rng.random((3, 48), dtype=np.float32)
    total, data, grads = model.train_step_grads(x, y, dropout_seed=1)
    assert set(grads) == set(model.params())
    assert total >= data > 0.0


def test_l2_gradient_matches_finite_differences_of_the_value():
    # the value/gradient pair train_step_grads adds after the backward pass,
    # in float64 so that rounding does not drown the finite differences
    w = np.random.default_rng(42).uniform(-1.0, 1.0, (4, 3))
    grad = np.zeros_like(w)
    _add_l2(w, 0.003, grad)
    numeric = np.empty(w.size)
    for j in range(w.size):
        hi, lo = w.copy(), w.copy()
        hi.flat[j] += GRAD_STEP
        lo.flat[j] -= GRAD_STEP
        value = [_add_l2(v, 0.003, np.zeros_like(v))[0] for v in (hi, lo)]
        numeric[j] = (value[0] - value[1]) / (2 * GRAD_STEP)
    err = np.abs(grad.reshape(-1) - numeric) / np.maximum(np.abs(numeric), 1e-8)
    assert err.max() < GRAD_TOL


def _two_dropout_spec():
    return NetworkSpec("two_drops", (
        Input("in", (), (4, 4, 1)),
        Flatten("flat", ("in",)),
        Dense("fc1", ("flat",), 8, "relu"),
        Dropout("drop1", ("fc1",), 0.5),
        Dense("fc2", ("drop1",), 8, "relu"),
        Dropout("drop2", ("fc2",), 0.5),
        Dense("out", ("drop2",), 1, "sigmoid"),
    ))


@pytest.mark.parametrize("spec, want", [
    (build_frnet1(feature_count=255, orientation=(16, 16), hidden=(256, 128)), [("drop", 7)]),
    (build_frnet2(feature_count=256, hidden=(64, 32)), [("drop", 11)]),
    (_two_dropout_spec(), [("drop1", 3), ("drop2", 5)]),
], ids=["frnet1", "frnet2", "two-dropouts"])
def test_each_dropout_is_keyed_by_its_layer_index(spec, want):
    g = compile_model(spec, init_seed=0, random_init=False).graph
    assert [(n.name, n.attrs["key"]) for n in g.nodes if n.op == "dropout"] == want
    assert [spec.layers[k].name for _, k in want] == [name for name, _ in want]


def test_a_dropout_mask_depends_only_on_the_seed_and_the_key():
    ones = Tensor(np.ones((40, 25), dtype=np.float32))

    def mask(key, unused=0, seed=5):
        # `unused` placeholders ahead of x put the dropout at node id unused + 1
        g = Graph()
        for i in range(unused):
            g.placeholder(f"unused{i}")
        x = g.placeholder("x")
        d = g.apply("dropout", [x], keep_prob=0.5, key=key)
        return g.forward({x: ones}, mode=TRAIN, dropout_seed=seed, outputs=[d])[d].data

    same = mask(3)
    assert np.array_equal(mask(3, unused=6), same)
    assert not np.array_equal(mask(4), same)
    assert not np.array_equal(mask(3, seed=6), same)


def test_spec_dict_round_trip():
    for spec in (build_frnet1(), build_frnet2()):
        again = spec_from_dict(spec_to_dict(spec))
        assert again == spec
        assert infer_shapes(again) == infer_shapes(spec)


def test_builder_validation():
    with pytest.raises(ShapeMismatchError):
        build_frnet1(feature_count=10, orientation=(3, 3))
    with pytest.raises(ShapeMismatchError):
        build_frnet2(feature_count=4095)


def test_bottleneck_is_configurable():
    spec = build_frnet1(bottleneck_channels=8)
    assert infer_shapes(spec)["incep1"] == (53, 2, 192)  # merge width is unchanged
    manifest = parameter_manifest(spec)
    assert manifest["incep1/b0/reduce/w"] == (1, 1, 32, 8)
