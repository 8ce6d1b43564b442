"""Reference classifiers: two sanity baselines that serve as accuracy floors.
The subspace one is a DictionaryPair, classified like a trained pair.
The pair without the locality and lam terms is train at beta = lam = 0."""

import numpy as np

from .data import LabeledDataset
from .model import DictionaryPair


class NearestClassMean:
    """Assign each sample to the class with the nearest Euclidean mean."""

    def __init__(self, means: np.ndarray):
        self.means = means  # n x c

    def classify(self, y: np.ndarray) -> int:
        """1-based label of the nearest mean; a sample that is not a vector of
        the means' length, or has a NaN, an inf or an overflowing norm, is a
        ValueError (it would otherwise tie every distance at NaN or inf)."""
        y = np.asarray(y, dtype=float)
        if y.ndim != 1:
            raise ValueError(f"expected one sample vector, got shape {y.shape}")
        if y.shape[0] != self.means.shape[0]:
            raise ValueError(f"sample dimension {y.shape[0]} != model dimension {self.means.shape[0]}")
        if not np.isfinite(np.einsum("i,i->", y, y)):
            raise ValueError("sample has a NaN, an inf or an overflowing norm")
        d = np.linalg.norm(self.means - y[:, None], axis=0)
        return int(np.argmin(d)) + 1


def nearest_class_mean(ds_train: LabeledDataset) -> NearestClassMean:
    means = np.stack(
        [ds_train.class_matrix(l).mean(axis=1) for l in range(1, ds_train.n_classes + 1)],
        axis=1,
    )
    return NearestClassMean(means)


def least_squares_subspace(ds_train: LabeledDataset, k: int) -> DictionaryPair:
    """Pair D_l = B_l, P_l = B_l' of each class's rank-k principal subspace B_l
    (n x k orthonormal columns): the class residual is ||y - B_l B_l' y||."""
    bases = []
    for l in range(1, ds_train.n_classes + 1):
        X_l = ds_train.class_matrix(l)
        if k > min(X_l.shape):
            raise ValueError(
                f"subspace rank k={k} exceeds min(n, N_l)={min(X_l.shape)} for class {l}"
            )
        U, _, _ = np.linalg.svd(X_l, full_matrices=False)
        bases.append(U[:, :k])
    return DictionaryPair(D=bases, P=[B.T for B in bases])
