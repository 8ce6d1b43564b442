"""Discriminative dictionary-pair learning toolkit.

Learns per-class synthesis/analysis dictionary pairs by alternating
minimization with robust row-sum-norm fitting, locality-adaptive
reconstruction weights, and discriminative code means; classifies by
class-specific reconstruction residual.
"""

from .classify import EvalReport, classify_sample, evaluate
from .data import (
    LabeledDataset,
    load_labels,
    load_matrix,
    make_synthetic,
    normalize_unit_l2,
    partition_by_class,
    random_projection_features,
    save_labels,
    save_matrix,
    split,
)
from .model import (
    ClassState,
    CodingState,
    DictionaryPair,
    Hyperparams,
    WeightState,
    init_state,
    load_model,
    save_model,
)
from .solver import (
    TrainHistory,
    objective_model,
    objective_relaxed,
    surrogate_relaxed,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ClassState",
    "CodingState",
    "DictionaryPair",
    "EvalReport",
    "Hyperparams",
    "LabeledDataset",
    "TrainHistory",
    "WeightState",
    "classify_sample",
    "evaluate",
    "init_state",
    "load_labels",
    "load_matrix",
    "load_model",
    "make_synthetic",
    "normalize_unit_l2",
    "objective_model",
    "objective_relaxed",
    "partition_by_class",
    "random_projection_features",
    "save_labels",
    "save_matrix",
    "save_model",
    "split",
    "surrogate_relaxed",
    "train",
]
