"""Command-line surface: flags, INI files, the environment, exit codes.

Runs go through main() with tiny zero- or one-epoch configs; this file
checks plumbing and process contracts, not learning behavior.
"""

import json
import os

import pytest

from frnet.cli import build_parser, main
from frnet.data import write_feature_file
from frnet.synth import synth_blobs


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "blobs.tsv"
    write_feature_file(str(path), synth_blobs(n=30, width=48, seed=3))
    return str(path)


def _report_bytes(**overrides):
    """A report.json with every key `report` reads, some replaced by `overrides`."""
    report = {"dataset": "blobs", "pairs": 30, "positives": 3, "mode": "frnet",
              "config_digest": "0" * 64, "fold_metrics": [], "means": {"auPR": 0.9, "auROC": 0.8},
              "sds": {"auPR": 0.0, "auROC": 0.0}, "curve_files": [], "checkpoint_files": []}
    report.update(overrides)
    return json.dumps(report).encode()


def tiny_flags(dataset_file, out_dir, **extra):
    values = {
        "dataset-path": dataset_file,
        "orientation": "7x7",
        "ae-hidden": "16,4",
        "clf-hidden": "8,4",
        "batch-size": "16",
        "epochs-ae": "0",
        "epochs-clf": "0",
        "folds": "2",
        "repeats": "1",
        "out-dir": str(out_dir),
    }
    values.update(extra)
    flags = []
    for key, value in values.items():
        flags += [f"--{key}", value]
    return flags


class TestExitCodes:
    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main([]) == 1
        assert main(["ingest", "--bogus-flag", "1"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "ingest" in capsys.readouterr().out

    def test_invalid_config_value_exits_one(self, dataset_file, capsys):
        rc = main(["ingest", "--dataset-path", dataset_file, "--folds", "1"])
        assert rc == 1
        assert "folds" in capsys.readouterr().err

    def test_missing_dataset_file_exits_one(self, tmp_path, capsys):
        rc = main(["ingest", "--dataset-path", str(tmp_path / "absent.tsv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_checkpoint_is_a_runtime_failure(self, dataset_file, tmp_path, capsys):
        flags = tiny_flags(dataset_file, tmp_path)
        rc = main(["extract", *flags, "--ae-checkpoint", str(tmp_path / "absent.ckpt")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_report_on_empty_directory_is_a_runtime_failure(self, tmp_path, capsys):
        assert main(["report", "--run-dir", str(tmp_path)]) == 2
        assert "report.json" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_training_is_a_runtime_failure(self, tmp_path, capsys):
        data = tmp_path / "blobs64.tsv"
        write_feature_file(str(data), synth_blobs(n=64, width=255, seed=0))
        rc = main(["train-ae", "--dataset-path", str(data), "--orientation", "16x16",
                   "--ae-hidden", "64,32", "--epochs-ae", "3", "--batch-size", "32",
                   "--lr", "1e12", "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: frnet1 epoch" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "ae.ckpt").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("lr", ["1e6", "1e3"])
    def test_exploding_finite_loss_is_a_runtime_failure(self, tmp_path, capsys, lr):
        # the loss stays finite (about 2e14 and 2e8 at batch 1), so only the
        # divergence factor stops the run
        data = tmp_path / "blobs64.tsv"
        write_feature_file(str(data), synth_blobs(n=64, width=255, seed=0))
        rc = main(["train-ae", "--dataset-path", str(data), "--orientation", "16x16",
                   "--ae-hidden", "64,32", "--epochs-ae", "3", "--batch-size", "32",
                   "--lr", lr, "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: frnet1 epoch 0 batch 1: loss" in err and "training diverged" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "ae.ckpt").exists()

    @pytest.mark.parametrize("key", ["lr", "l2-scale"])
    def test_non_finite_rate_exits_one(self, dataset_file, tmp_path, key, capsys):
        rc = main(["train-ae", *tiny_flags(dataset_file, tmp_path, **{key: "inf"})])
        assert rc == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "ae.ckpt").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_last_update_is_a_runtime_failure(self, tmp_path, capsys):
        # 20 rows are one batch, so the loss guard never sees the updated parameters
        data = tmp_path / "blobs20.tsv"
        write_feature_file(str(data), synth_blobs(n=20, width=48, seed=3))
        flags = tiny_flags(str(data), tmp_path / "out", **{"epochs-ae": "1", "batch-size": "32", "lr": "1e300"})
        rc = main(["train-ae", *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: frnet1 epoch 0: parameters are not finite" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "ae.ckpt").exists()

    @pytest.mark.parametrize("content", [
        b'{"dataset": "blobs", "pairs": 3', b"{}", b"\xff\xfe{}",
        _report_bytes(means=5), _report_bytes(means={"auPR": "0.9", "auROC": 0.8}),
        _report_bytes(curve_files="roc.tsv"),
    ], ids=["truncated", "empty-object", "not-utf8", "means-not-object", "means-non-number",
            "curve-files-not-list"])
    def test_malformed_report_is_a_runtime_failure(self, tmp_path, content, capsys):
        (tmp_path / "report.json").write_bytes(content)
        assert main(["report", "--run-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "report.json: malformed report" in err and "Traceback" not in err


class TestCommands:
    def test_ingest_prints_statistics(self, dataset_file, capsys):
        rc = main(["ingest", "--dataset-path", dataset_file, "--dataset-name", "blobs"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dataset blobs: 30 pairs, 3 positive, 48 features" in out
        assert "imbalance ratio: 9.00" in out

    def test_full_chain(self, dataset_file, tmp_path, capsys):
        flags = tiny_flags(dataset_file, tmp_path)
        ae = str(tmp_path / "ae.ckpt")
        clf = str(tmp_path / "clf.ckpt")

        assert main(["train-ae", *flags]) == 0
        assert os.path.exists(ae)
        assert "checkpoint:" in capsys.readouterr().out

        assert main(["extract", *flags, "--ae-checkpoint", ae]) == 0
        features = str(tmp_path / "features.tsv")
        assert os.path.exists(features)
        capsys.readouterr()

        assert main(["train-clf", *flags, "--features", features]) == 0
        assert os.path.exists(clf)
        capsys.readouterr()

        rc = main(["rank", *flags, "--ae-checkpoint", ae,
                   "--clf-checkpoint", clf, "--k", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "drug-id\ttarget-id\tscore"
        assert len(lines) == 4

    def test_cv_run_and_report(self, dataset_file, tmp_path, capsys):
        flags = tiny_flags(dataset_file, tmp_path)
        assert main(["cv-run", *flags]) == 0
        out = capsys.readouterr().out
        assert "auROC: mean" in out
        assert "report:" in out

        assert main(["report", *flags]) == 0
        out = capsys.readouterr().out
        assert "summary:" in out
        assert os.path.exists(tmp_path / "metrics.tsv")

    def test_rank_defaults_to_five(self):
        args = build_parser().parse_args(
            ["rank", "--ae-checkpoint", "a", "--clf-checkpoint", "b"]
        )
        assert args.k == 5


class TestConfigSources:
    def write_ini(self, tmp_path, dataset_file, out_dir, name="ini-name"):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\n"
            f"dataset-path = {dataset_file}\n"
            f"dataset-name = {name}\n"
            "orientation = 7x7\n"
            "ae-hidden = 16,4\n"
            "clf-hidden = 8,4\n"
            "epochs-ae = 0\n"
            "epochs-clf = 0\n"
            f"out-dir = {out_dir}\n",
            encoding="utf-8",
        )
        return str(path)

    def test_ini_section_supplies_values(self, dataset_file, tmp_path, capsys):
        ini = self.write_ini(tmp_path, dataset_file, tmp_path)
        assert main(["ingest", "--config", ini]) == 0
        assert "dataset ini-name:" in capsys.readouterr().out

    def test_flags_override_the_file(self, dataset_file, tmp_path, capsys):
        ini = self.write_ini(tmp_path, dataset_file, tmp_path)
        assert main(["ingest", "--config", ini, "--dataset-name", "flag-name"]) == 0
        assert "dataset flag-name:" in capsys.readouterr().out

    def test_env_var_sets_default_out_dir(self, dataset_file, tmp_path, monkeypatch):
        env_out = tmp_path / "from-env"
        monkeypatch.setenv("FRNET_OUT_DIR", str(env_out))
        flags = tiny_flags(dataset_file, tmp_path)
        # drop the --out-dir flag so the environment decides
        cut = flags.index("--out-dir")
        assert main(["train-ae", *flags[:cut]]) == 0
        assert os.path.exists(env_out / "ae.ckpt")

    def test_file_overrides_env_and_flag_overrides_file(
        self, dataset_file, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("FRNET_OUT_DIR", str(tmp_path / "from-env"))
        ini_out = tmp_path / "from-ini"
        flag_out = tmp_path / "from-flag"
        ini = self.write_ini(tmp_path, dataset_file, ini_out)

        assert main(["train-ae", "--config", ini]) == 0
        assert os.path.exists(ini_out / "ae.ckpt")
        assert not os.path.exists(tmp_path / "from-env")

        assert main(["train-ae", "--config", ini, "--out-dir", str(flag_out)]) == 0
        assert os.path.exists(flag_out / "ae.ckpt")

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        assert main(["ingest", "--config", str(tmp_path / "absent.ini")]) == 1
        capsys.readouterr()

    def test_config_without_run_section_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[other]\nseed = 1\n", encoding="utf-8")
        assert main(["ingest", "--config", str(path)]) == 1
        assert "[run] section" in capsys.readouterr().err

    def test_unknown_key_in_config_exits_one(self, dataset_file, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(
            f"[run]\ndataset-path = {dataset_file}\nepoch-count = 3\n", encoding="utf-8"
        )
        assert main(["ingest", "--config", str(path)]) == 1
        assert "unknown config key" in capsys.readouterr().err
