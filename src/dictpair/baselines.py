"""Reference classifiers: two sanity baselines that serve as accuracy floors.
Nearest-class-mean labels a whole test matrix; the subspace baseline is a
DictionaryPair, classified like a trained pair. The pair without the locality
and lam terms is train at beta = lam = 0."""

import numpy as np

from .classify import _checked_samples
from .data import LabeledDataset
from .model import DictionaryPair


class NearestClassMean:
    """Assign each sample to the class with the nearest Euclidean mean."""

    def __init__(self, means: np.ndarray):
        self.means = means  # n x c

    def classify(self, y: np.ndarray) -> np.ndarray | int:
        """1-based labels of the nearest means, by the exact distances ||y - mu_l||, of the columns
        of an n x N matrix, or the label of one vector; samples are checked as in class_residuals."""
        y, _ = _checked_samples(y, self.means.shape[0])
        Y = y.reshape(y.shape[0], -1)
        d = np.stack([np.linalg.norm(Y - mu[:, None], axis=0) for mu in self.means.T])
        labels = np.argmin(d, axis=0) + 1
        return labels if y.ndim == 2 else int(labels[0])


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
