"""Class-residual classification with a trained dictionary pair.

A sample y is assigned to the class whose pair reconstructs it best:
argmin_l ||y - D_l (P_l y)||_2. Ties break to the lowest class index.

One sample (``classify_sample``) costs two small matrix-vector products per
class, never forming D_l P_l. ``evaluate`` batches the whole test matrix Y in
Gram form, with z_l = P_l y:

    ||y - D_l z_l||^2 = ||y||^2 + z_l' (D_l' D_l z_l - 2 D_l' y)

The bracket is (D_l' D_l P_l - 2 D_l') y, so one GEMM of the stacked
2K x n rows [P; D'D P - 2D'] with Y gives both factors for every class and
column, and only k_l x n blocks are formed. Its absolute error in r^2 is about
eps * ||y||^2, so residuals below about 1e-8 * ||y|| are not resolved (they
read as 0). Batching changes no interface: ``classify_sample`` still takes one
vector, and ``dictpair eval`` prints the same stdout/CSV.
"""

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .model import DictionaryPair


@dataclass
class EvalReport:
    accuracy: float
    confusion: np.ndarray
    per_class_accuracy: np.ndarray


def class_residuals(y: np.ndarray, model: DictionaryPair) -> np.ndarray:
    """Reconstruction residual ||y - D_l (P_l y)||_2 for every class.

    A vector y gives a length-c array. An n x N matrix gives the c x N matrix
    of residuals of its columns, computed in the stacked Gram form of the
    module docstring; it never forms D_l P_l or a per-class reconstruction.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        y = y.reshape(-1)
    if y.shape[0] != model.n_features:
        raise ValueError(f"sample dimension {y.shape[0]} != model dimension {model.n_features}")
    if y.ndim == 1:
        return np.array([np.linalg.norm(y - D_l @ (P_l @ y)) for D_l, P_l in zip(model.D, model.P)])
    ks = model.atoms_per_class
    if 0 in ks:
        raise ValueError(f"class {ks.index(0) + 1} has no atoms")
    K = sum(ks)
    # rows [P; Q] with Q_l = D_l' D_l P_l - 2 D_l' (k_l x n): one GEMM gives
    # Z = P Y and D'D Z - 2 D'Y, whose product summed over each class's atoms
    # is r^2 - ||y||^2
    Q = [(D_l.T @ D_l) @ P_l - 2.0 * D_l.T for D_l, P_l in zip(model.D, model.P)]
    ZW = np.concatenate(model.P + Q) @ y
    starts = np.cumsum([0] + ks[:-1])
    r2 = np.einsum("ij,ij->j", y, y) + np.add.reduceat(ZW[:K] * ZW[K:], starts, axis=0)
    return np.sqrt(np.maximum(r2, 0.0))


def classify_sample(y: np.ndarray, model: DictionaryPair) -> int:
    """1-based label of the minimum-residual class (first on ties)."""
    return int(np.argmin(class_residuals(y, model))) + 1


def evaluate(testset: LabeledDataset, model) -> EvalReport:
    """Confusion matrix and accuracy over a labeled test set.

    model is a DictionaryPair, classified with one batched ``class_residuals``
    call over all test columns, or any object with a classify(y) -> label
    method (the sanity baselines qualify), called once per column.
    """
    c = testset.n_classes
    if hasattr(model, "classify"):
        predicted = np.array([model.classify(testset.X[:, j]) for j in range(testset.n_samples)], dtype=int)
        bad = predicted[(predicted < 1) | (predicted > c)]
        if bad.size:
            raise ValueError(f"classifier returned label {bad[0]}, expected 1..{c}")
    else:
        if model.n_classes > c:
            raise ValueError(f"model has {model.n_classes} classes, test labels have {c}")
        predicted = np.argmin(class_residuals(testset.X, model), axis=0) + 1
    confusion = np.zeros((c, c), dtype=int)
    np.add.at(confusion, (testset.labels - 1, predicted - 1), 1)
    row_sums = confusion.sum(axis=1)
    accuracy = float(np.trace(confusion)) / float(testset.n_samples)
    per_class = np.diag(confusion) / row_sums
    return EvalReport(accuracy=accuracy, confusion=confusion, per_class_accuracy=per_class)
