"""Orchestration tests on desk-scale networks.

Everything here runs the real two-stage pipeline, shrunk: 48-feature
datasets viewed as 7x7 images, a 16-unit representation viewed as 4x4,
one or two epochs. Small enough that a full cross-validated run takes
seconds, large enough that every layer kind participates.
"""

import dataclasses
import json
import math
import os
import shutil
import weakref

import numpy as np
import pytest

from frnet import checkpoint, pipeline
from frnet.data import Dataset, fit_scaling, make_folds, read_feature_file, subset
from frnet.errors import (
    CheckpointError,
    ConfigError,
    DataError,
    MissingArtifactError,
    PipelineError,
)
from frnet.models import build_frnet1, build_frnet2, compile_model, spec_to_dict
from frnet.pipeline import (
    CONFIG_KEYS,
    RunConfig,
    TrainLog,
    _STAGE_GLOBAL_AE,
    _fit,
    _predict_batched,
    _recon_accuracy_fn,
    _threshold_accuracy_fn,
    _train,
    cmd_cv_run,
    cmd_extract,
    cmd_ingest,
    cmd_rank_candidates,
    cmd_rank_files,
    cmd_report,
    cmd_train_ae,
    cmd_train_clf,
    config_digest,
    config_from_dict,
    config_to_dict,
    parse_pair,
)
from frnet.rng import FOLDS, derive_key
from frnet.synth import synth_blobs
from frnet.tensor import Tensor


def _files_under(path) -> list[str]:
    return [os.path.join(root, name) for root, _, names in os.walk(path) for name in names]


def tiny_cfg(out_dir, **overrides) -> RunConfig:
    base = dict(
        orientation=(7, 7),
        ae_hidden=(16, 4),
        clf_hidden=(8, 4),
        batch_size=16,
        epochs_ae=1,
        epochs_clf=1,
        folds=2,
        repeats=1,
        out_dir=str(out_dir),
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def blobs48():
    return synth_blobs(n=50, width=48, seed=3)


@pytest.fixture(scope="module")
def trained(tmp_path_factory, blobs48):
    """One train-ae / extract / train-clf chain shared by read-only tests."""
    out = tmp_path_factory.mktemp("trained")
    cfg = tiny_cfg(out)
    ae = cmd_train_ae(cfg, dataset=blobs48)
    features = cmd_extract(cfg, ae["checkpoint"], dataset=blobs48)
    clf = cmd_train_clf(cfg, features)
    return {"cfg": cfg, "ae": ae, "features": features, "clf": clf}


@pytest.fixture(scope="module")
def cv5(tmp_path_factory, blobs48):
    """One 5-fold single-repeat run shared by bookkeeping and report tests."""
    out = tmp_path_factory.mktemp("cv5")
    cfg = tiny_cfg(out, folds=5)
    report, report_dict = cmd_cv_run(cfg, dataset=blobs48)
    return {"cfg": cfg, "report": report, "dict": report_dict, "out": str(out)}


# ---------------------------------------------------------------------------
# configuration plumbing


class TestRunConfig:
    def test_defaults_validate(self):
        cfg = RunConfig()
        assert cfg.validate() is cfg

    def test_zero_epochs_are_allowed(self):
        RunConfig(epochs_ae=0, epochs_clf=0).validate()

    @pytest.mark.parametrize(
        "field, value, phrase",
        [
            ("batch_size", 0, "batch-size"),
            ("epochs_ae", -1, "epochs-ae"),
            ("epochs_clf", -3, "epochs-clf"),
            ("lr", 0.0, "lr"),
            ("keep_prob", 0.0, "keep-prob"),
            ("keep_prob", 1.5, "keep-prob"),
            ("l2_scale", -0.1, "l2-scale"),
            ("folds", 1, "folds"),
            ("repeats", 0, "repeats"),
            ("bottleneck_channels", 0, "bottleneck-channels"),
            ("threshold", 0.0, "threshold"),
            ("threshold", 1.0, "threshold"),
            ("orientation", (0, 7), "orientation"),
            ("ae_hidden", (16, 0), "ae-hidden"),
            ("clf_hidden", (0, 4), "clf-hidden"),
            ("lr", math.inf, "lr must be finite"),
            ("l2_scale", math.inf, "l2-scale must be finite"),
        ],
    )
    def test_validate_rejects(self, field, value, phrase):
        cfg = dataclasses.replace(RunConfig(), **{field: value})
        with pytest.raises(ConfigError, match=phrase):
            cfg.validate()

    def test_square_representation(self):
        assert RunConfig(ae_hidden=(16, 4)).require_square_representation() == 4
        assert RunConfig().require_square_representation() == 64
        with pytest.raises(ConfigError, match="perfect square"):
            RunConfig(ae_hidden=(20, 4)).require_square_representation()

    def test_config_keys_cover_every_field(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert set(CONFIG_KEYS) == fields

    def test_dict_round_trip(self):
        cfg = RunConfig(
            dataset_path="x.tsv",
            dataset_name="nr",
            orientation=(7, 211),
            seed=11,
            stratified=False,
            global_ae=True,
            ae_hidden=(64, 16),
            lr=0.01,
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_from_dict_coerces_strings(self):
        cfg = config_from_dict(
            {
                "seed": "7",
                "lr": "0.01",
                "stratified": "no",
                "global-ae": "yes",
                "orientation": "7x211",
                "ae-hidden": "64,16",
                "dataset-name": "nr",
            }
        )
        assert cfg.seed == 7
        assert cfg.lr == 0.01
        assert cfg.stratified is False
        assert cfg.global_ae is True
        assert cfg.orientation == (7, 211)
        assert cfg.ae_hidden == (64, 16)
        assert cfg.dataset_name == "nr"

    @pytest.mark.parametrize(
        "values, phrase",
        [
            ({"epoch-count": 3}, "unknown config key"),
            ({"seed": "eleven"}, "expected an integer"),
            ({"lr": "fast"}, "expected a number"),
            ({"stratified": "maybe"}, "expected a boolean"),
            ({"orientation": "7"}, "two integers"),
            ({"ae-hidden": [1, 2, 3]}, "two integers"),
            ({"orientation": ["a", "b"]}, "two integers"),
            ({"ae-hidden": [1.5, 2]}, "two integers"),
        ],
    )
    def test_from_dict_rejects(self, values, phrase):
        with pytest.raises(ConfigError, match=phrase):
            config_from_dict(values)

    def test_parse_pair(self):
        assert parse_pair("211x7", "orientation") == (211, 7)
        assert parse_pair("4096,2048", "ae-hidden") == (4096, 2048)
        for bad in ("211", "ax7", "1x2x3"):
            with pytest.raises(ConfigError):
                parse_pair(bad, "orientation")

    def test_digest_tracks_content(self):
        a = RunConfig(seed=1)
        assert config_digest(a) == config_digest(RunConfig(seed=1))
        assert config_digest(a) != config_digest(RunConfig(seed=2))
        assert config_digest(a) == config_digest(RunConfig(seed=1, out_dir="elsewhere"))
        assert len(config_digest(a)) == 64
        assert set(config_digest(a)) <= set("0123456789abcdef")


class TestTrainLog:
    def test_epochs_must_increase(self):
        log = TrainLog()
        log.add(0, 1.0, 0.5, 0.1)
        log.add(3, 0.9, 0.6, 0.1)
        with pytest.raises(PipelineError, match="epoch 3"):
            log.add(3, 0.8, 0.7, 0.1)
        with pytest.raises(PipelineError):
            log.add(1, 0.8, 0.7, 0.1)

    def test_file_format(self, tmp_path):
        log = TrainLog()
        log.add(0, 0.6931471805599453, 0.5, 0.1234)
        log.add(1, 0.25, 1.0, 2.0)
        path = str(tmp_path / "log.tsv")
        log.write(path)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[0] == "epoch\tloss\taccuracy\tseconds"
        assert lines[1] == "0\t0.6931471806\t0.5\t0.123"
        assert lines[2] == "1\t0.25\t1\t2.000"


# ---------------------------------------------------------------------------
# training loop


class _Echo:
    """Stands in for a CompiledModel whose predictions are its inputs."""

    def predict(self, x):
        return x


def test_recon_accuracy_examples():
    t = np.array([[1.0, 0.0, 1.0, 0.0]], dtype=np.float32)
    assert _recon_accuracy_fn(t, t)(_Echo()) == 1.0
    assert _recon_accuracy_fn(1.0 - t, t)(_Echo()) == 0.0


def test_recon_accuracy_matches_counting_oracle():
    rng = np.random.default_rng(9)
    pred = rng.random((4, 25)).astype(np.float32)
    target = rng.random((4, 25)).astype(np.float32)
    got = _recon_accuracy_fn(pred, target)(_Echo())
    agree = sum(
        1
        for p, t in zip(pred.ravel().tolist(), target.ravel().tolist())
        if (p >= 0.5) == (t >= 0.5)
    )
    assert got == agree / 100


def test_threshold_accuracy_examples():
    # 2 positives in 10 rows, predictions in the classifier's (n, 1) column
    y = np.zeros((10, 1), dtype=np.float32)
    y[[2, 7]] = 1.0
    assert _threshold_accuracy_fn(y, y, 0.5)(_Echo()) == 1.0
    assert _threshold_accuracy_fn(1.0 - y, y, 0.5)(_Echo()) == 0.0
    # 1-d labels are compared row by row, not broadcast against the column
    assert _threshold_accuracy_fn(y, y[:, 0], 0.5)(_Echo()) == 1.0


def test_prediction_does_not_depend_on_how_rows_are_split():
    model = compile_model(build_frnet2(feature_count=256, hidden=(64, 32)), init_seed=5)
    x = np.random.default_rng(4).random((70, 16, 16, 1), dtype=np.float32)
    together = _predict_batched(model, x)
    one_at_a_time = np.concatenate([_predict_batched(model, x[i : i + 1]) for i in range(len(x))])
    assert together.shape == (70, 1)
    assert one_at_a_time.tobytes() == together.tobytes()


def test_non_finite_loss_fails_closed():
    # zero inputs keep the prediction at 0.5, but the l2 term of huge output
    # weights overflows float32, so only the total loss is not finite
    model = compile_model(build_frnet1(feature_count=48, orientation=(7, 7), hidden=(16, 4)),
                          init_seed=0, random_init=False)
    model.set_params({"out/w": Tensor.full(model.params()["out/w"].shape, 1e20)})
    x = np.zeros((4, 7, 7, 1), dtype=np.float32)
    y = np.full((4, 48), 0.5, dtype=np.float32)
    with pytest.raises(PipelineError, match="frnet1 epoch 0 batch 0: loss is inf"):
        _train(model, x, y, epochs=1, batch_size=4, lr=0.001, master_seed=0, path=(1,),
               accuracy_fn=lambda m: 0.0)


# ---------------------------------------------------------------------------
# individual commands


class TestIngest:
    def test_stats(self, blobs48):
        stats = cmd_ingest(tiny_cfg("unused"), dataset=blobs48)
        assert stats["name"] == "synth-blobs"
        assert stats["pairs"] == 50
        assert stats["positives"] == 5
        assert stats["features"] == 48
        assert stats["imbalance-ratio"] == 9.0

    def test_requires_a_dataset(self):
        with pytest.raises(ConfigError, match="no dataset"):
            cmd_ingest(tiny_cfg("unused"))


class TestTrainAutoencoder:
    def test_zero_epochs_leaves_initialization(self, tmp_path, blobs48):
        cfg = tiny_cfg(tmp_path, epochs_ae=0)
        result = cmd_train_ae(cfg, dataset=blobs48)
        assert result["train_log"].entries == []
        assert open(result["log"], encoding="utf-8").read() == "epoch\tloss\taccuracy\tseconds\n"

        state = checkpoint.load(result["checkpoint"])
        fresh = compile_model(
            build_frnet1(feature_count=48, orientation=(7, 7), hidden=(16, 4)),
            init_seed=derive_key(cfg.seed, _STAGE_GLOBAL_AE),
        )
        for name, tensor in fresh.params().items():
            assert state.params[name].tobytes() == tensor.data.tobytes()
        assert state.scaling is not None

    def test_training_changes_parameters(self, trained, tmp_path, blobs48):
        cfg0 = tiny_cfg(tmp_path, epochs_ae=0)
        untrained = checkpoint.load(cmd_train_ae(cfg0, dataset=blobs48)["checkpoint"])
        one_epoch = checkpoint.load(trained["ae"]["checkpoint"])
        changed = any(
            untrained.params[name].tobytes() != one_epoch.params[name].tobytes()
            for name in untrained.params
        )
        assert changed
        assert len(trained["ae"]["train_log"].entries) == 1

    def test_reruns_are_bitwise_identical(self, tmp_path, blobs48):
        cfg = tiny_cfg(tmp_path)
        first = open(cmd_train_ae(cfg, dataset=blobs48)["checkpoint"], "rb").read()
        second = open(cmd_train_ae(cfg, dataset=blobs48)["checkpoint"], "rb").read()
        assert first == second

    @pytest.mark.parametrize("orientation", [(4, 7), (7, 4)])
    def test_either_orientation_runs(self, tmp_path, orientation):
        d = synth_blobs(n=10, width=27, seed=1)
        cfg = tiny_cfg(tmp_path / f"{orientation[0]}x{orientation[1]}",
                       orientation=orientation, epochs_ae=0)
        state = checkpoint.load(cmd_train_ae(cfg, dataset=d)["checkpoint"])
        in_layer = state.spec_dict["layers"][0]
        assert tuple(in_layer["item_shape"]) == orientation + (1,)

    def test_diverging_run_fails_closed(self, tmp_path):
        cfg = RunConfig(orientation=(16, 16), ae_hidden=(64, 32), epochs_ae=3, batch_size=32,
                        lr=1e12, out_dir=str(tmp_path))
        with pytest.raises(PipelineError, match=r"frnet1 epoch \d+ batch \d+: bce"):
            cmd_train_ae(cfg, dataset=synth_blobs(n=64, width=255, seed=0))
        assert not os.path.exists(tmp_path / "ae.ckpt")


def test_trained_model_releases_its_gradient_buffers(tmp_path):
    cfg = tiny_cfg(tmp_path)
    spec = build_frnet2(feature_count=16, hidden=(8, 4))
    x = np.random.default_rng(2).random((20, 4, 4, 1), dtype=np.float32)
    y = (np.arange(20) % 4 == 0).astype(np.float32).reshape(-1, 1)
    model, _ = _fit(cfg, spec, x, y, 2, (9,), lambda m: 0.0)
    assert model.graph._grad_bufs == {}

    # the next backward pass rebuilds them, with the gradients of a model never trained
    twin = compile_model(spec, init_seed=0, random_init=False)
    twin.set_params({name: Tensor(t.data.copy()) for name, t in model.params().items()})
    _, _, grads = model.train_step_grads(x[:8], y[:8], 5)
    _, _, expected = twin.train_step_grads(x[:8], y[:8], 5)
    assert model.graph._grad_bufs
    for name, g in expected.items():
        assert grads[name].data.tobytes() == g.data.tobytes()


class TestExtract:
    def test_writes_representation_file(self, trained, blobs48):
        d = read_feature_file(trained["features"])
        assert d.features.shape == (50, 16)
        assert d.drug_ids == blobs48.drug_ids
        assert d.target_ids == blobs48.target_ids
        assert np.array_equal(d.labels, blobs48.labels)
        assert np.all(np.isfinite(d.features))

    def test_rerun_is_byte_identical(self, trained, tmp_path, blobs48):
        cfg = tiny_cfg(tmp_path)
        path = cmd_extract(cfg, trained["ae"]["checkpoint"], dataset=blobs48)
        assert open(path, "rb").read() == open(trained["features"], "rb").read()

    def test_empty_dataset_writes_nothing(self, trained, tmp_path, blobs48):
        empty = Dataset(
            "empty", (), (),
            np.zeros((0, 48), dtype=np.float32), np.zeros((0,), dtype=np.int64),
        )
        cfg = tiny_cfg(tmp_path)
        with pytest.raises(DataError, match="no rows"):
            cmd_extract(cfg, trained["ae"]["checkpoint"], dataset=empty)
        assert not os.path.exists(tmp_path / "features.tsv")

    def test_width_mismatch_is_rejected(self, trained, tmp_path):
        wrong = synth_blobs(n=5, width=27, seed=1)
        with pytest.raises(CheckpointError, match="expects 48 features"):
            cmd_extract(tiny_cfg(tmp_path), trained["ae"]["checkpoint"], dataset=wrong)

    def test_checkpoint_without_scaling_is_rejected(self, tmp_path, blobs48):
        spec = build_frnet1(feature_count=48, orientation=(7, 7), hidden=(16, 4))
        model = compile_model(spec, init_seed=5)
        bare = checkpoint.ModelState(
            spec_dict=spec_to_dict(spec),
            params={name: t.data for name, t in model.params().items()},
        )
        path = str(tmp_path / "bare.ckpt")
        checkpoint.save(bare, path)
        with pytest.raises(CheckpointError, match="no scaling record"):
            cmd_extract(tiny_cfg(tmp_path), path, dataset=blobs48)

    def test_classifier_checkpoint_is_rejected(self, trained, tmp_path, blobs48):
        with pytest.raises(CheckpointError, match="frnet2.*expected frnet1"):
            cmd_extract(tiny_cfg(tmp_path), trained["clf"]["checkpoint"], dataset=blobs48)


class TestTrainClassifier:
    def test_artifacts(self, trained):
        state = checkpoint.load(trained["clf"]["checkpoint"])
        assert state.spec_dict["model_kind"] == "frnet2"
        assert len(trained["clf"]["train_log"].entries) == 1
        lines = open(trained["clf"]["log"], encoding="utf-8").read().splitlines()
        assert lines[0] == "epoch\tloss\taccuracy\tseconds"
        assert len(lines) == 2


# ---------------------------------------------------------------------------
# cross-validation


class TestCvRun:
    def test_bookkeeping_five_folds(self, cv5, blobs48):
        out = cv5["out"]
        rd = cv5["dict"]

        models = sorted(os.listdir(os.path.join(out, "models")))
        assert models == sorted(
            [f"ae_r0_f{f}.ckpt" for f in range(5)] + [f"clf_r0_f{f}.ckpt" for f in range(5)]
        )
        curves = sorted(os.listdir(os.path.join(out, "curves")))
        assert curves == sorted(
            [f"synth-blobs_r0_f{f}_roc.tsv" for f in range(5)]
            + [f"synth-blobs_r0_f{f}_pr.tsv" for f in range(5)]
        )
        logs = sorted(os.listdir(os.path.join(out, "logs")))
        assert len(logs) == 10

        assert rd["dataset"] == "synth-blobs"
        assert rd["pairs"] == 50
        assert rd["positives"] == 5
        assert rd["mode"] == "per-fold-ae"
        assert [(m["repeat"], m["fold"]) for m in rd["fold_metrics"]] == [
            (0, f) for f in range(5)
        ]
        for m in rd["fold_metrics"]:
            assert {"auROC", "auPR", "sensitivity", "specificity"} <= set(m)
        assert len(rd["curve_files"]) == 10
        assert len(rd["checkpoint_files"]) == 10
        for rel in rd["curve_files"] + rd["checkpoint_files"]:
            assert os.path.exists(os.path.join(out, rel))

    def test_curve_files_named_by_dataset_repeat_and_fold(self, tmp_path, blobs48, monkeypatch):
        # each curve file holds the points its fold's roc_points / pr_points
        # gave, under a header, one %.10g pair per line
        points = []

        def recording(real):
            def fn(s):
                points.append(real(s))
                return points[-1]
            return fn

        for name in ("roc_points", "pr_points"):
            monkeypatch.setattr(pipeline, name, recording(getattr(pipeline, name)))
        _, rd = cmd_cv_run(tiny_cfg(tmp_path, repeats=2, epochs_ae=0, epochs_clf=0), dataset=blobs48)
        names = [os.path.join("curves", f"synth-blobs_r{r}_f{f}_{kind}.tsv")
                 for r in range(2) for f in range(2) for kind in ("roc", "pr")]
        assert rd["curve_files"] == names and len(points) == len(names)
        for rel, pts in zip(names, points):
            lines = (tmp_path / rel).read_text(encoding="utf-8").splitlines()
            assert lines[0] == ("fpr\ttpr" if rel.endswith("_roc.tsv") else "recall\tprecision")
            assert lines[1:] == ["%.10g\t%.10g" % p for p in pts]
            got = np.array([[float(v) for v in ln.split("\t")] for ln in lines[1:]])
            np.testing.assert_allclose(got, np.array(pts), rtol=1e-9, atol=0)
        roc = (tmp_path / names[0]).read_text(encoding="utf-8").splitlines()
        assert roc[1] == "0\t0" and roc[-1] == "1\t1"

    def test_report_json_matches_return_value(self, cv5):
        with open(os.path.join(cv5["out"], "report.json"), encoding="utf-8") as fh:
            assert json.load(fh) == cv5["dict"]

    def test_means_cover_both_areas(self, cv5):
        report = cv5["report"]
        assert report.means["auROC"] is not None
        assert report.means["auPR"] is not None
        assert 0.0 <= report.means["auROC"] <= 1.0

    def test_reruns_are_bitwise_identical(self, tmp_path, blobs48):
        cfg = tiny_cfg(tmp_path)

        def run():
            cmd_cv_run(cfg, dataset=blobs48)
            blob = {"report.json": open(tmp_path / "report.json", "rb").read()}
            models = os.path.join(str(tmp_path), "models")
            for name in sorted(os.listdir(models)):
                blob[name] = open(os.path.join(models, name), "rb").read()
            return blob

        assert run() == run()

    def test_output_directory_is_not_part_of_the_run(self, tmp_path, blobs48):
        # the same run written to two directories has one config digest, and
        # its checkpoints (which record that digest) are byte-identical
        runs = []
        for where in ("a", "b"):
            _, rd = cmd_cv_run(tiny_cfg(tmp_path / where), dataset=blobs48)
            ckpts = {rel: open(tmp_path / where / rel, "rb").read() for rel in rd["checkpoint_files"]}
            runs.append((rd["config_digest"], ckpts))
            assert rd["config"]["out-dir"] == str(tmp_path / where)
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 4

    def test_no_test_fold_leakage(self, tmp_path, blobs48):
        cfg = tiny_cfg(tmp_path)
        plan = make_folds(blobs48, k=2, seed=derive_key(cfg.seed, FOLDS, 0))
        held_out = plan.test_indices(0)

        poisoned_feats = blobs48.features.copy()
        noise = np.random.default_rng(99)
        poisoned_feats[held_out] = noise.uniform(
            0.0, 1.0, size=poisoned_feats[held_out].shape
        ).astype(np.float32)
        poisoned = Dataset(
            blobs48.name, blobs48.drug_ids, blobs48.target_ids,
            poisoned_feats, blobs48.labels,
        )

        def fold_bytes(dataset):
            cmd_cv_run(cfg, dataset=dataset)
            read = lambda name: open(tmp_path / "models" / name, "rb").read()
            return {name: read(name) for name in
                    ("ae_r0_f0.ckpt", "clf_r0_f0.ckpt", "ae_r0_f1.ckpt")}

        clean = fold_bytes(blobs48)
        dirty = fold_bytes(poisoned)
        # fold 0 never saw the perturbed rows during training
        assert clean["ae_r0_f0.ckpt"] == dirty["ae_r0_f0.ckpt"]
        assert clean["clf_r0_f0.ckpt"] == dirty["clf_r0_f0.ckpt"]
        # the same rows are fold 1's training data, so that model must move
        assert clean["ae_r0_f1.ckpt"] != dirty["ae_r0_f1.ckpt"]

    @pytest.mark.parametrize("global_ae", [False, True])
    def test_a_per_fold_autoencoder_is_freed_before_the_classifier_trains(
        self, tmp_path, blobs48, monkeypatch, global_ae
    ):
        autoencoders, alive_at_classifier = [], []
        train_ae, train_clf = pipeline._train_autoencoder, pipeline._train_classifier

        def tracked_ae(*args, **kwargs):
            out = train_ae(*args, **kwargs)
            autoencoders.append(weakref.ref(out[0]))
            return out

        def checked_clf(*args, **kwargs):
            alive_at_classifier.append(sum(ref() is not None for ref in autoencoders))
            return train_clf(*args, **kwargs)

        monkeypatch.setattr(pipeline, "_train_autoencoder", tracked_ae)
        monkeypatch.setattr(pipeline, "_train_classifier", checked_clf)
        cmd_cv_run(tiny_cfg(tmp_path, global_ae=global_ae), dataset=blobs48)
        # the shared autoencoder serves every fold, so only it stays
        assert alive_at_classifier == ([1, 1] if global_ae else [0, 0])

    def test_global_ae_mode(self, tmp_path, blobs48):
        cfg = tiny_cfg(tmp_path, global_ae=True)
        _, rd = cmd_cv_run(cfg, dataset=blobs48)
        models = sorted(os.listdir(tmp_path / "models"))
        assert models == ["ae_global.ckpt", "clf_r0_f0.ckpt", "clf_r0_f1.ckpt"]
        assert rd["mode"] == "global-ae"
        assert os.path.join("models", "ae_global.ckpt") in rd["checkpoint_files"]
        assert os.path.exists(tmp_path / "logs" / "ae_global.tsv")

    def test_failed_fold_names_repeat_and_fold(self, tmp_path):
        # plain shuffling with exactly k positives usually starves some test
        # fold; scan for a master seed where that happens on repeat 0
        n, k = 20, 4
        rng = np.random.default_rng(7)
        features = rng.uniform(0.0, 1.0, size=(n, 48)).astype(np.float32)
        labels = np.zeros(n, dtype=np.int64)
        labels[:k] = 1
        d = Dataset("starved", tuple(f"d{i}" for i in range(n)),
                     tuple(f"t{i}" for i in range(n)), features, labels)

        bad_seed = bad_fold = None
        for seed in range(100):
            plan = make_folds(d, k=k, seed=derive_key(seed, FOLDS, 0), stratified=False)
            for f in range(k):
                test_pos = labels[plan.test_indices(f)].sum()
                if test_pos == 0 or test_pos == k:
                    bad_seed, bad_fold = seed, f
                    break
            if bad_seed is not None:
                break
        assert bad_seed is not None, "no starving seed in range; widen the scan"

        cfg = tiny_cfg(tmp_path, folds=k, stratified=False, seed=bad_seed,
                       epochs_ae=0, epochs_clf=0)
        with pytest.raises(PipelineError, match=rf"repeat 0 fold {bad_fold}:"):
            cmd_cv_run(cfg, dataset=d)
        # every fold is checked before any fold trains
        assert _files_under(tmp_path / "models") == []

    def test_too_few_negatives_for_the_folds_is_a_data_error(self, tmp_path):
        # 36 positives and 4 negatives: some test fold of 5 would hold no negative
        d = synth_blobs(n=40, width=48, positive_fraction=0.9, seed=3)
        assert (d.positives, len(d) - d.positives) == (36, 4)
        with pytest.raises(DataError, match="4 negative instances cannot stratify 5 folds"):
            cmd_cv_run(tiny_cfg(tmp_path, folds=5), dataset=d)
        assert _files_under(tmp_path / "models") == []


# ---------------------------------------------------------------------------
# candidate ranking


def _save_model_state(path, spec, params, scaling=None):
    state = checkpoint.ModelState(
        spec_dict=spec_to_dict(spec), params=params, scaling=scaling,
    )
    checkpoint.save(state, path)


def _zeroed_params(spec):
    model = compile_model(spec, init_seed=0, random_init=False)
    return {name: np.array(t.data, copy=True) for name, t in model.params().items()}


class TestRank:
    def test_k_zero_short_circuits(self, tmp_path, blobs48):
        rows = cmd_rank_candidates(
            tiny_cfg(tmp_path), "no-such.ckpt", "no-such.ckpt", 0, dataset=blobs48
        )
        assert rows == []

    def test_negative_k_is_rejected(self, tmp_path, blobs48):
        with pytest.raises(ConfigError, match="k must be"):
            cmd_rank_candidates(
                tiny_cfg(tmp_path), "no-such.ckpt", "no-such.ckpt", -1, dataset=blobs48
            )

    def test_orders_and_truncates(self, trained, blobs48):
        cfg = trained["cfg"]
        ae, clf = trained["ae"]["checkpoint"], trained["clf"]["checkpoint"]
        negative_ids = {
            (d, t)
            for d, t, y in zip(blobs48.drug_ids, blobs48.target_ids, blobs48.labels)
            if y == 0
        }

        rows = cmd_rank_candidates(cfg, ae, clf, 3, dataset=blobs48)
        assert len(rows) == 3
        assert all((d, t) in negative_ids for d, t, _ in rows)
        scores = [s for _, _, s in rows]
        assert scores == sorted(scores, reverse=True)

        everything = cmd_rank_candidates(cfg, ae, clf, 45, dataset=blobs48)
        assert len(everything) == 45
        assert everything[:3] == rows

        with pytest.warns(UserWarning, match="exceeds the 45 negative"):
            overflow = cmd_rank_candidates(cfg, ae, clf, 46, dataset=blobs48)
        assert overflow == everything

    def test_many_files_load_each_checkpoint_once_and_match_one_file_calls(
        self, trained, monkeypatch
    ):
        cfg = trained["cfg"]
        ae, clf = trained["ae"]["checkpoint"], trained["clf"]["checkpoint"]
        files = [synth_blobs(n=n, width=48, seed=s) for n, s in ((30, 11), (50, 12), (12, 13))]
        alone = [cmd_rank_candidates(cfg, ae, clf, 8, dataset=d) for d in files]

        loads = []
        load = checkpoint.load

        def counted(path):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(checkpoint, "load", counted)
        together = cmd_rank_files(cfg, ae, clf, 8, files)
        assert loads == [ae, clf]
        assert [len(rows) for rows in together] == [8, 8, 8]
        assert together == alone  # float for float

    def test_the_autoencoder_is_freed_before_the_classifier_loads(self, trained, monkeypatch):
        cfg = trained["cfg"]
        ae, clf = trained["ae"]["checkpoint"], trained["clf"]["checkpoint"]
        built, loaded, alive_at_clf_load = [], [], []
        load, compile_ = checkpoint.load, pipeline.compile_model

        def tracked_load(path):
            if path == clf:
                alive_at_clf_load.append(sum(ref() is not None for ref in built + loaded))
            state = load(path)
            loaded.extend(weakref.ref(a) for a in state.params.values())
            return state

        def tracked_compile(*args, **kwargs):
            model = compile_(*args, **kwargs)
            built.append(weakref.ref(model))
            return model

        monkeypatch.setattr(checkpoint, "load", tracked_load)
        monkeypatch.setattr(pipeline, "compile_model", tracked_compile)
        d = synth_blobs(n=20, width=48, seed=5)
        assert len(cmd_rank_files(cfg, ae, clf, 3, [d, d])) == 2
        # neither the autoencoder nor any array of its checkpoint outlives its stage
        assert alive_at_clf_load == [0]
        assert len(built) == 2

    def test_a_missing_checkpoint_fails_before_either_is_read(self, trained, tmp_path, monkeypatch):
        reads = []
        monkeypatch.setattr(checkpoint, "load", reads.append)
        for ae, clf in ((trained["ae"]["checkpoint"], str(tmp_path / "absent.ckpt")),
                        (str(tmp_path / "absent.ckpt"), trained["clf"]["checkpoint"])):
            with pytest.raises(CheckpointError, match="absent.ckpt: .*No such file"):
                cmd_rank_files(trained["cfg"], ae, clf, 3, [synth_blobs(n=20, width=48, seed=5)])
        assert reads == []

    def test_score_does_not_depend_on_other_candidates(self, tmp_path):
        # random-init checkpoints at the acceptance-sanity widths
        d = synth_blobs(n=70, width=255, seed=3)
        record = fit_scaling(d.features)
        ae, clf = str(tmp_path / "ae.ckpt"), str(tmp_path / "clf.ckpt")
        for path, spec, scaling in (
            (ae, build_frnet1(feature_count=255, orientation=(16, 16), hidden=(256, 128)),
             (record.mins, record.maxs)),
            (clf, build_frnet2(feature_count=256, hidden=(64, 32)), None),
        ):
            params = compile_model(spec, init_seed=2).params()
            _save_model_state(path, spec, {name: t.data for name, t in params.items()}, scaling)
        cfg = tiny_cfg(tmp_path)
        negatives = np.flatnonzero(d.labels == 0)
        together = cmd_rank_candidates(cfg, ae, clf, len(negatives), dataset=d)
        alone = [cmd_rank_candidates(cfg, ae, clf, 1, dataset=subset(d, [i]))[0] for i in negatives]
        assert sorted(alone, key=lambda row: (-row[2], row[0], row[1])) == together

    def test_equal_scores_fall_back_to_lexicographic_ids(self, tmp_path):
        # all-zero weights collapse every score to sigmoid(0) = 0.5
        ae_spec = build_frnet1(feature_count=48, orientation=(7, 7), hidden=(16, 4))
        clf_spec = build_frnet2(feature_count=16, hidden=(8, 4))
        scaling = (np.zeros(48, dtype=np.float32), np.ones(48, dtype=np.float32))
        ae_path = str(tmp_path / "ae.ckpt")
        clf_path = str(tmp_path / "clf.ckpt")
        _save_model_state(ae_path, ae_spec, _zeroed_params(ae_spec), scaling)
        _save_model_state(clf_path, clf_spec, _zeroed_params(clf_spec))

        n = 15
        rng = np.random.default_rng(4)
        d = Dataset(
            "ties",
            tuple(f"d{i}" for i in range(n)),
            tuple(f"t{i}" for i in range(n)),
            rng.uniform(0.0, 1.0, size=(n, 48)).astype(np.float32),
            np.array([1, 1, 1] + [0] * (n - 3)),
        )
        rows = cmd_rank_candidates(tiny_cfg(tmp_path), ae_path, clf_path, n - 3, dataset=d)
        assert all(s == 0.5 for _, _, s in rows)
        assert [r[0] for r in rows] == sorted(f"d{i}" for i in range(3, n))

    def test_hand_set_weights_rank_the_planted_pair_first(self, tmp_path):
        # Both inception stacks carry a weight-free max-pool passthrough, so a
        # single unit 1x1 kernel in each conv1 threads one scalar all the way
        # through: the score becomes a hand-computable function of the max
        # over input pixels (0,0), (0,2), (2,0), (2,2) of the 7x7 image, i.e.
        # features 0, 2, 14, 16. Branch convs stay zero and contribute nothing.
        ae_spec = build_frnet1(feature_count=48, orientation=(7, 7), hidden=(16, 4))
        ae_params = _zeroed_params(ae_spec)
        ae_params["conv1/w"][0, 0, 0, 0] = 1.0
        # flat layout of [2, 2, 192]: position (0,0), passthrough channel 160
        ae_params["fc1/w"][160, :] = 1.0

        clf_spec = build_frnet2(feature_count=16, hidden=(8, 4))
        clf_params = _zeroed_params(clf_spec)
        clf_params["conv1/w"][0, 0, 0, 0] = 1.0
        # merge stacks pooled-s1 (192) before s2 (192); incep_top appends its
        # passthrough after 160 branch channels, so merge channel 160 lands at
        # flat index 320 of the 544-channel output
        clf_params["fc1/w"][320, 0] = 6.0
        clf_params["fc2/w"][0, 0] = 1.0
        clf_params["out/w"][0, 0] = 1.0
        clf_params["out/b"][0] = -2.0

        scaling = (np.zeros(48, dtype=np.float32), np.ones(48, dtype=np.float32))
        ae_path = str(tmp_path / "ae.ckpt")
        clf_path = str(tmp_path / "clf.ckpt")
        _save_model_state(ae_path, ae_spec, ae_params, scaling)
        _save_model_state(clf_path, clf_spec, clf_params)

        n = 12
        features = np.full((n, 48), 0.1, dtype=np.float32)
        features[5, 0] = 1.0  # the planted pair (d5, t5)
        labels = np.zeros(n, dtype=np.int64)
        labels[:2] = 1
        d = Dataset("planted", tuple(f"d{i}" for i in range(n)),
                    tuple(f"t{i}" for i in range(n)), features, labels)

        rows = cmd_rank_candidates(tiny_cfg(tmp_path), ae_path, clf_path, 5, dataset=d)
        assert rows[0][:2] == ("d5", "t5")
        # score = sigmoid(6 * max_feature - 2), by hand
        assert math.isclose(rows[0][2], 1.0 / (1.0 + math.exp(-4.0)), rel_tol=1e-5)
        for _, _, score in rows[1:]:
            assert math.isclose(score, 1.0 / (1.0 + math.exp(1.4)), rel_tol=1e-5)
        # the runners-up all tie, so ids break the order
        assert [r[0] for r in rows[1:]] == ["d10", "d11", "d2", "d3"]


# ---------------------------------------------------------------------------
# reporting


class TestReport:
    def test_writes_summary_and_table(self, cv5):
        result = cmd_report(cv5["out"])
        table = open(result["table"], encoding="utf-8").read().splitlines()
        assert table[0] == "dataset\tmode\tmetric\tmean\tsd"
        assert len(table) == 1 + len(cv5["report"].means)
        for line in table[1:]:
            cells = line.split("\t")
            assert cells[0] == "synth-blobs"
            assert cells[1] == "per-fold-ae"
        summary = open(result["summary"], encoding="utf-8").read()
        assert "dataset synth-blobs: 50 pairs, 5 positive" in summary
        assert "folds x repeats evaluated: 5" in summary
        assert result["report"] == cv5["dict"]

    def test_reruns_are_byte_identical(self, cv5):
        first = cmd_report(cv5["out"])
        snap = {p: open(first[p], "rb").read() for p in ("summary", "table")}
        second = cmd_report(cv5["out"])
        for p in ("summary", "table"):
            assert open(second[p], "rb").read() == snap[p]

    def test_missing_curve_fails_closed(self, cv5, tmp_path):
        clone = str(tmp_path / "clone")
        shutil.copytree(cv5["out"], clone)
        victim = cv5["dict"]["curve_files"][3]
        os.remove(os.path.join(clone, victim))
        with pytest.raises(MissingArtifactError, match="missing artifacts") as err:
            cmd_report(clone)
        assert victim in str(err.value)

    def test_missing_report_fails_closed(self, tmp_path):
        with pytest.raises(MissingArtifactError, match=r"\['report.json'\]"):
            cmd_report(str(tmp_path))

    def test_failed_report_write_leaves_no_file(self, tmp_path, blobs48, monkeypatch):
        def broken_dump(obj, fh, **kwargs):
            fh.write("{")
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", broken_dump)
        with pytest.raises(OSError, match="disk full"):
            cmd_cv_run(tiny_cfg(tmp_path, epochs_ae=0, epochs_clf=0), dataset=blobs48)
        assert [f for f in os.listdir(tmp_path) if f.startswith("report.json")] == []

    def test_report_is_fsynced_before_it_is_renamed(self, tmp_path, blobs48, monkeypatch):
        events = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def recording_replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, os.path.basename(dst)))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        cmd_cv_run(tiny_cfg(tmp_path, epochs_ae=0, epochs_clf=0), dataset=blobs48)
        [i] = [i for i, e in enumerate(events) if e[0] == "replace" and e[2] == "report.json"]
        assert events[i - 1] == ("fsync", events[i][1])


def _disk_full_at_fsync_of(monkeypatch, path) -> None:
    """Make os.fsync fail, as a full disk would, on the temp file that a write of `path` fsyncs."""
    folder, name = os.path.split(str(path))
    fsync = os.fsync

    def failing(fd):
        ino = os.fstat(fd).st_ino
        with os.scandir(folder) as entries:
            if any(e.name.startswith(name + ".") and e.inode() == ino for e in entries):
                raise OSError("disk full")
        fsync(fd)

    monkeypatch.setattr(os, "fsync", failing)


def _temp_files(folder) -> list[str]:
    return [n for n in os.listdir(folder) if ".tmp" in n]


class TestInterruptedWrites:
    """A write that fails leaves the earlier file as it was and no temp file beside it."""

    def test_curve_file(self, tmp_path, blobs48, monkeypatch):
        curve = tmp_path / "curves" / "synth-blobs_r0_f1_pr.tsv"
        curve.parent.mkdir()
        curve.write_text("old\n")
        _disk_full_at_fsync_of(monkeypatch, curve)
        with pytest.raises(OSError, match="disk full"):
            cmd_cv_run(tiny_cfg(tmp_path, epochs_ae=0, epochs_clf=0), dataset=blobs48)
        assert curve.read_text() == "old\n"
        assert _temp_files(curve.parent) == [] and not (tmp_path / "report.json").exists()

    def test_training_log(self, tmp_path, blobs48, monkeypatch):
        log = tmp_path / "ae_train_log.tsv"
        log.write_text("old\n")
        _disk_full_at_fsync_of(monkeypatch, log)
        with pytest.raises(OSError, match="disk full"):
            cmd_train_ae(tiny_cfg(tmp_path), dataset=blobs48)
        assert log.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["ae_train_log.tsv"]  # nor is the checkpoint written

    @pytest.mark.parametrize("name", ["metrics.tsv", "summary.txt"])
    def test_report_file(self, cv5, tmp_path, monkeypatch, name):
        clone = tmp_path / "clone"
        shutil.copytree(cv5["out"], clone)
        (clone / name).write_text("old\n")
        _disk_full_at_fsync_of(monkeypatch, clone / name)
        with pytest.raises(OSError, match="disk full"):
            cmd_report(str(clone))
        assert (clone / name).read_text() == "old\n"
        assert _temp_files(clone) == []
