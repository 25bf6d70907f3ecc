"""Network builders: shape traces, parameter counts, extraction."""

import numpy as np
import pytest

from conftest import peak_alloc
from frnet.errors import ShapeMismatchError
from frnet.models import (
    DEEP_FEATURES,
    Dense,
    Flatten,
    InceptionSpec,
    Input,
    NetworkSpec,
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
    spec = InceptionSpec()
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
    assert all(a[k] == b[k] for k in a)
    assert any(a[k] != c[k] for k in a)


def test_train_step_returns_gradients_for_all_parameters():
    model = _small_ae_model()
    rng = np.random.default_rng(4)
    x = rng.random((3, 7, 7, 1), dtype=np.float32)
    y = rng.random((3, 48), dtype=np.float32)
    total, data, grads = model.train_step_grads(x, y, dropout_seed=1)
    assert set(grads) == set(model.params())
    assert total >= data > 0.0


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
