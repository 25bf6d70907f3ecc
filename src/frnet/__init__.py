"""Drug-target interaction pipeline: an autoencoder that distills pair
features into a 4096-wide representation, and an inception-style classifier
trained on it, built on a small from-scratch autodiff engine."""

from .autodiff import EVAL, TRAIN, Graph
from .data import (
    Dataset,
    FoldPlan,
    ScalingRecord,
    dataset_stats,
    load_dataset,
    make_folds,
)
from .errors import FrnetError
from .metrics import EvalReport, ScoredLabels, aggregate, aupr, auroc, confusion_rates
from .models import (
    DEEP_FEATURES,
    NetworkSpec,
    build_frnet1,
    build_frnet2,
    compile_model,
    extract_features,
    infer_shapes,
)
from .optim import AdamState, adam_step, bce_loss
from .pipeline import (
    RunConfig,
    cmd_cv_run,
    cmd_extract,
    cmd_ingest,
    cmd_rank_candidates,
    cmd_report,
    cmd_train_ae,
    cmd_train_clf,
)
from .tensor import Tensor

__version__ = "0.1.0"

__all__ = [
    "EVAL",
    "TRAIN",
    "Graph",
    "Dataset",
    "FoldPlan",
    "ScalingRecord",
    "dataset_stats",
    "load_dataset",
    "make_folds",
    "FrnetError",
    "EvalReport",
    "ScoredLabels",
    "aggregate",
    "aupr",
    "auroc",
    "confusion_rates",
    "DEEP_FEATURES",
    "NetworkSpec",
    "build_frnet1",
    "build_frnet2",
    "compile_model",
    "extract_features",
    "infer_shapes",
    "AdamState",
    "adam_step",
    "bce_loss",
    "RunConfig",
    "cmd_cv_run",
    "cmd_extract",
    "cmd_ingest",
    "cmd_rank_candidates",
    "cmd_report",
    "cmd_train_ae",
    "cmd_train_clf",
    "Tensor",
    "__version__",
]
