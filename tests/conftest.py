"""Shared fixtures: the standard synthetic benchmarks and trained models.

The "standard" fixture is 3 classes in 20 dimensions, 25 samples per class at
noise 0.1 (seed 7), split 15 train / 10 test per class (seed 7), trained with
alpha=1.0, beta=0.01, lambda=1e-3, tau=1e-6, 2 atoms per class, init seed 10.
The "corrupted" variant replaces 10% of entries with uniform outliers and is
trained with init seed 4. final_states rebuilds the per-class training records
of a trained model for the tests that score one with an objective, and
traced_peak measures the peak memory of one call. solve_kernels and
inject_solve_fault let a test run, and fault, each solve path of
solver._checked_solve: NumPy's dposv kernel where it resolves, and the LU.
"""

import tracemalloc

import numpy as np
import pytest

from dictpair import ClassState, Hyperparams, make_synthetic, solver, split, train
from dictpair.solver import relaxed_row_norms, update_reweights

STANDARD_HP = dict(alpha=1.0, beta=0.01, lam=1e-3, tau=1e-6, atoms_per_class=2, seed=10)
CORRUPT_HP = dict(alpha=1.0, beta=0.01, lam=1e-3, tau=1e-6, atoms_per_class=2, seed=4)


def final_states(ds, trained, hp):
    """The ClassState records that train's last sweep left, from its
    (pair, codes, weights, history) result: the final blocks and the
    diagonals update_reweights computed from them."""
    pair, codes, weights, _ = trained
    return [
        ClassState(
            D_l, P_l, S_l, W_l, *update_reweights(relaxed_row_norms(ds.class_matrix(l), D_l, P_l, S_l), hp.tau)
        )
        for l, (D_l, P_l, S_l, W_l) in enumerate(zip(pair.D, pair.P, codes.S, weights.W), start=1)
    ]


def traced_peak(f, *args) -> int:
    """Peak bytes that tracemalloc sees allocated during f(*args)."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def solve_kernels() -> list:
    """The kernels solver._checked_solve can run, as solver._dposv returns
    them: NumPy's dposv where it resolves, then None, the LU path."""
    posv = solver._dposv()
    return [None] if posv is None else [posv, None]


def inject_solve_fault(monkeypatch, posv, fault) -> None:
    """Route every solve of solver._checked_solve through `posv` (None: the
    LU path, np.linalg.solve) and replace each solution X by fault(shape,
    X), shape that of the system matrix; where fault returns None the
    factorization fails instead (a pivot that is not positive, or a singular
    matrix). X is the solution in the layout the path computes it, k x n for
    the kernel and n x k for the LU, so a fault must not depend on it."""
    if posv is None:
        solve = np.linalg.solve

        def lu(A, B):
            X = fault(A.shape, solve(A, B))
            if X is None:
                raise np.linalg.LinAlgError("Singular matrix")
            return X

        monkeypatch.setattr(np.linalg, "solve", lu)
        monkeypatch.setattr(solver, "_dposv", lambda: None)
        return

    def kernel(F, Y):
        info = posv(F, Y)
        X = fault(F.shape, Y)
        if X is None:
            return 1
        Y[...] = X
        return info

    monkeypatch.setattr(solver, "_dposv", lambda: kernel)


@pytest.fixture(scope="session")
def standard_split():
    ds = make_synthetic(3, 20, 25, 0.1, 0.0, 7)
    return split(ds, 15, 7)


@pytest.fixture(scope="session")
def standard_hp():
    return Hyperparams(**STANDARD_HP)


@pytest.fixture(scope="session")
def trained_standard(standard_split, standard_hp):
    train_ds, _ = standard_split
    return train(train_ds, standard_hp)


@pytest.fixture(scope="session")
def corrupt_split():
    ds = make_synthetic(3, 20, 25, 0.1, 0.1, 7)
    return split(ds, 15, 7)


@pytest.fixture(scope="session")
def corrupt_hp():
    return Hyperparams(**CORRUPT_HP)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
