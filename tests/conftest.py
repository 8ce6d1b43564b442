"""Shared fixtures: the standard synthetic benchmarks and trained models.

The "standard" fixture is 3 classes in 20 dimensions, 25 samples per class at
noise 0.1 (seed 7), split 15 train / 10 test per class (seed 7), trained with
alpha=1.0, beta=0.01, lambda=1e-3, tau=1e-6, 2 atoms per class, init seed 10.
The "corrupted" variant replaces 10% of entries with uniform outliers and is
trained with init seed 4. final_states rebuilds the per-class training records
of a trained model for the tests that score one with an objective, and
traced_peak measures the peak memory of one call.
"""

import tracemalloc

import numpy as np
import pytest

from dictpair import ClassState, Hyperparams, make_synthetic, split, train
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
