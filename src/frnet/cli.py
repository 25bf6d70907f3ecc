"""Command-line front end.

Every subcommand accepts the same configuration surface: an optional INI
file (keys under a [run] section) overridden by kebab-case flags that
mirror the config keys, e.g. `--keep-prob 0.5`, `--orientation 7x211`.
The FRNET_OUT_DIR environment variable supplies the default output
directory when neither file nor flag sets one.

Exit codes: 0 success, 1 validation error (bad flags, config, or input
files), 2 runtime failure (including running out of memory and a failed
write). Warnings print as one `warning: ...` line each on stderr.
"""

import argparse
import configparser
import os
import sys
import warnings
from dataclasses import replace

from .errors import ConfigError, DataError, FrnetError
from .pipeline import (
    CONFIG_KEYS,
    ENV_OUT_DIR,
    RunConfig,
    cmd_cv_run,
    cmd_extract,
    cmd_ingest,
    cmd_rank_files,
    cmd_report,
    cmd_train_ae,
    cmd_train_clf,
    config_from_dict,
)


def _read_ini(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as e:
        raise ConfigError(f"{path}: {e}") from None
    except configparser.Error as e:
        raise ConfigError(f"{path}: {e}") from None
    if not parser.has_section("run"):
        raise ConfigError(f"{path}: expected a [run] section")
    return dict(parser.items("run"))


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="INI config file with a [run] section")
    for key in CONFIG_KEYS.values():
        # every --dataset-path given is kept for rank; the config takes the last
        action = "append" if key == "dataset-path" else "store"
        common.add_argument(f"--{key}", metavar="VALUE", action=action, help=argparse.SUPPRESS)
    return common


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    env_out = os.environ.get(ENV_OUT_DIR)
    if env_out:
        cfg = replace(cfg, out_dir=env_out)
    if args.config:
        cfg = config_from_dict(_read_ini(args.config), cfg)
    flag_values = {}
    for key in CONFIG_KEYS.values():
        value = getattr(args, key.replace("-", "_"), None)
        if isinstance(value, list):
            value = value[-1]
        if value is not None:
            flag_values[key] = value
    cfg = config_from_dict(flag_values, cfg)
    return cfg.validate()


def _cmd_ingest(args) -> int:
    stats = cmd_ingest(_build_config(args))
    print(f"dataset {stats['name']}: {stats['pairs']} pairs, "
          f"{stats['positives']} positive, {stats['features']} features")
    print(f"imbalance ratio: {stats['imbalance-ratio']:.2f}")
    return 0


def _cmd_train_ae(args) -> int:
    result = cmd_train_ae(_build_config(args))
    print(f"checkpoint: {result['checkpoint']}")
    print(f"train log:  {result['log']}")
    return 0


def _cmd_extract(args) -> int:
    path = cmd_extract(_build_config(args), args.ae_checkpoint)
    print(f"feature file: {path}")
    return 0


def _cmd_train_clf(args) -> int:
    result = cmd_train_clf(_build_config(args), args.features)
    print(f"checkpoint: {result['checkpoint']}")
    print(f"train log:  {result['log']}")
    return 0


def _cmd_cv_run(args) -> int:
    cfg = _build_config(args)
    report, report_dict = cmd_cv_run(cfg)
    for key in ("auROC", "auPR"):
        mean, sd = report.means.get(key), report.sds.get(key)
        if mean is not None:
            print(f"{key}: mean {mean:.4f} sd {sd:.4f}")
    print(f"report: {os.path.join(cfg.out_dir, 'report.json')}")
    return 0


def _cmd_rank(args) -> int:
    cfg = _build_config(args)
    paths = args.dataset_path or [cfg.dataset_path]
    blocks = cmd_rank_files(cfg, args.ae_checkpoint, args.clf_checkpoint, args.k, paths)
    for i, (path, rows) in enumerate(zip(paths, blocks)):
        if len(paths) > 1:  # blank-line separated blocks, each headed by its file
            if i:
                print()
            print(f"# {path}")
        print("drug-id\ttarget-id\tscore")
        for drug, target, score in rows:
            print(f"{drug}\t{target}\t{score:.6f}")
    return 0


def _cmd_report(args) -> int:
    cfg = _build_config(args)
    run_dir = args.run_dir if args.run_dir else cfg.out_dir
    result = cmd_report(run_dir)
    print(f"summary: {result['summary']}")
    print(f"table:   {result['table']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="frnet",
        description="Two-stage drug-target interaction pipeline: "
        "autoencoder feature distillation plus an inception classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ingest", parents=[common],
                   help="load and validate a dataset, print statistics").set_defaults(fn=_cmd_ingest)
    sub.add_parser("train-ae", parents=[common],
                   help="train the autoencoder on the full dataset").set_defaults(fn=_cmd_train_ae)

    p = sub.add_parser("extract", parents=[common],
                       help="write the learned representation for every pair")
    p.add_argument("--ae-checkpoint", required=True, metavar="FILE")
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("train-clf", parents=[common],
                       help="train the classifier on an extracted-feature file")
    p.add_argument("--features", required=True, metavar="FILE")
    p.set_defaults(fn=_cmd_train_clf)

    sub.add_parser("cv-run", parents=[common],
                   help="full cross-validated two-stage run").set_defaults(fn=_cmd_cv_run)

    p = sub.add_parser("rank", parents=[common],
                       help="rank unlabeled pairs by predicted interaction probability; "
                       "repeat --dataset-path to rank several files with one load of each checkpoint")
    p.add_argument("--ae-checkpoint", required=True, metavar="FILE")
    p.add_argument("--clf-checkpoint", required=True, metavar="FILE")
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("report", parents=[common],
                       help="summarize a finished run directory")
    p.add_argument("--run-dir", metavar="DIR")
    p.set_defaults(fn=_cmd_report)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage problems; those are validation errors here
        return 0 if e.code in (0, None) else 1
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", UserWarning)
            warnings.showwarning = _print_warning
            return args.fn(args)
    except (ConfigError, DataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (FrnetError, MemoryError, OSError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
