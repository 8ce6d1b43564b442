"""Class-residual classification with a trained dictionary pair.

A sample y is assigned to the class whose pair reconstructs it best:
argmin_l ||y - D_l (P_l y)||_2. Residuals that are equal in floating point
tie to the lowest class index; residuals that differ by less than the rounding
error below (about 1e-8 * ||y||) are decided by that rounding noise, not by
class order.

Every residual, of one sample or of a test matrix Y, is computed in one Gram
form, with z_l = P_l y:

    ||y - D_l z_l||^2 = ||y||^2 + z_l' (D_l' D_l z_l - 2 D_l' y)

The bracket is (D_l' D_l P_l - 2 D_l') y, so one product of the 2K x n rows
[P; D'D P - 2D'] (``DictionaryPair.residual_operator``) with Y gives both
factors for every class and column; D_l P_l is never formed. The absolute
error in r^2 is about eps * ||y||^2: residuals below about 1e-8 * ||y|| are
not resolved and read as 0 (a tie) or as rounding noise.

A vector, or a matrix of at most EVAL_BLOCK columns, is one call of the
kernel (_block_residuals). A wider matrix is cut into fixed blocks of
EVAL_BLOCK columns, the last one narrower, which solver._map_classes runs on
solver._worker_count(blocks) threads, the class workers of training; each
block's c x B residuals are copied into its columns of one c x N result. The
cut does not depend on the worker count, so the residuals are bitwise the same
for any count. Once the operator is cached, a call on N columns allocates the
c x N result and the N squared norms, and each running block one 2K x B
product and its c x B residuals: the products Z_l * W_l overwrite Z in
place, and the shift by ||y||^2, the clamp and the square root run in the
residuals. The broadcast shift takes only NumPy's ufunc iterator buffer, of
a fixed size (66,640 B, measured by tracemalloc at c x B = 38 x 256 and at
100 x 1024). The whole 2K x N product is never formed.
"""

from dataclasses import dataclass

import numpy as np

from . import solver
from .data import LabeledDataset
from .model import DictionaryPair

# columns per block of a batched class_residuals call, a multiple of 8; at
# N = 1216 and 2432 (n = 504, one BLAS thread, two workers) 256 and 512 were
# about as fast and 1024 slower at 1216; 256 holds less memory per worker
EVAL_BLOCK = 256


@dataclass
class EvalReport:
    accuracy: float
    confusion: np.ndarray
    per_class_accuracy: np.ndarray


def class_residuals(y: np.ndarray, model: DictionaryPair) -> np.ndarray:
    """Reconstruction residual ||y - D_l (P_l y)||_2 for every class.

    A vector y gives a length-c array, an n x N matrix the c x N residuals of
    its columns, both in the Gram form of the module docstring; a matrix of
    more than EVAL_BLOCK columns is computed in column blocks on the class
    workers. Bad samples are a ValueError raised first (_checked_samples).
    """
    y, sq = _checked_samples(y, model.n_features)
    # cached_property takes no lock: the operator is built before any helper starts
    rows, starts = model.residual_operator
    if y.ndim == 1 or y.shape[1] <= EVAL_BLOCK:
        return _block_residuals(rows, starts, y, sq)
    N = y.shape[1]
    out = np.empty((len(starts), N))
    blocks = range(0, N, EVAL_BLOCK)

    def block(i):
        cols = slice(blocks[i], blocks[i] + EVAL_BLOCK)
        out[:, cols] = _block_residuals(rows, starts, y[:, cols], sq[cols])

    solver._map_classes(block, len(blocks))
    return out


def _checked_samples(y, n: int) -> tuple[np.ndarray, np.ndarray]:
    """y as a float vector or n x N matrix of samples of dimension n, and its squared column
    norms; anything else, or a NaN, an inf or an overflowing norm, is a ValueError."""
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError(f"expected one sample vector or an n x N sample matrix, got shape {y.shape}")
    if y.shape[0] != n:
        raise ValueError(f"sample dimension {y.shape[0]} != model dimension {n}")
    sq = np.einsum("i...,i...->...", y, y)
    if not np.isfinite(sq).all():
        raise ValueError(f"sample column {int(np.argmin(np.isfinite(sq)))} has a NaN, an inf or an overflowing norm")
    return y, sq


def _block_residuals(rows, starts, y, sq):
    """class_residuals of the columns y with squared norms sq, from the
    residual operator's rows and class starts."""
    # ZW stacks Z = P y over W = D'D Z - 2 D'y; Z * W summed over a class's
    # atoms is r^2 - ||y||^2. Z * W overwrites Z, and r^2 its reduction
    ZW = rows @ y
    K = rows.shape[0] // 2
    Z = np.multiply(ZW[:K], ZW[K:], out=ZW[:K])
    r2 = np.add.reduceat(Z, starts, axis=0)
    r2 += sq
    return np.sqrt(np.maximum(r2, 0.0, out=r2), out=r2)


def classify_sample(y: np.ndarray, model: DictionaryPair) -> int:
    """1-based label of the minimum-residual class of one sample: the first
    of residuals equal in floating point; near-ties within about 1e-8 * ||y||
    are decided by rounding noise (see the module docstring)."""
    if np.shape(y)[1:] not in ((), (1,)):
        raise ValueError(f"classify_sample takes one vector or n x 1 column, got shape {np.shape(y)}")
    return int(np.argmin(class_residuals(y, model))) + 1


def evaluate(testset: LabeledDataset, model: DictionaryPair) -> EvalReport:
    """Confusion matrix and accuracy over a labeled test set, from one batched
    ``class_residuals`` call over all test columns."""
    c = testset.n_classes
    if model.n_classes > c:
        raise ValueError(f"model has {model.n_classes} classes, test labels have {c}")
    predicted = np.argmin(class_residuals(testset.X, model), axis=0) + 1
    confusion = np.zeros((c, c), dtype=int)
    np.add.at(confusion, (testset.labels - 1, predicted - 1), 1)
    row_sums = confusion.sum(axis=1)
    accuracy = float(np.trace(confusion)) / float(testset.n_samples)
    per_class = np.diag(confusion) / row_sums
    return EvalReport(accuracy=accuracy, confusion=confusion, per_class_accuracy=per_class)
