"""Reference classifiers: two sanity baselines that serve as accuracy floors.
The reduced dictionary pair is train(..., mode="reduced" or "frobenius")."""

import numpy as np

from .data import LabeledDataset


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


class LeastSquaresSubspace:
    """Assign each sample to the class whose rank-k principal subspace
    reconstructs it with the smallest residual."""

    def __init__(self, bases: list[np.ndarray]):
        self.bases = bases  # per class: n x k orthonormal columns

    def classify(self, y: np.ndarray) -> int:
        y = np.asarray(y, dtype=float)
        res = [np.linalg.norm(y - B @ (B.T @ y)) for B in self.bases]
        return int(np.argmin(res)) + 1


def least_squares_subspace(ds_train: LabeledDataset, k: int) -> LeastSquaresSubspace:
    bases = []
    for l in range(1, ds_train.n_classes + 1):
        X_l = ds_train.class_matrix(l)
        if k > min(X_l.shape):
            raise ValueError(
                f"subspace rank k={k} exceeds min(n, N_l)={min(X_l.shape)} for class {l}"
            )
        U, _, _ = np.linalg.svd(X_l, full_matrices=False)
        bases.append(U[:, :k])
    return LeastSquaresSubspace(bases)
