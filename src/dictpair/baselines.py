"""Reference classifiers: two sanity baselines that serve as accuracy floors.
The subspace one is a DictionaryPair, classified like a trained pair.
The reduced dictionary pair is train(..., mode="reduced" or "frobenius")."""

import numpy as np

from .data import LabeledDataset
from .model import DictionaryPair


class NearestClassMean:
    """Assign each sample to the class with the nearest Euclidean mean."""

    def __init__(self, means: np.ndarray):
        self.means = means  # n x c

    def classify(self, y: np.ndarray) -> int:
        d = np.linalg.norm(self.means - np.asarray(y, dtype=float)[:, None], axis=0)
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
