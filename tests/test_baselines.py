import numpy as np
import pytest

from dictpair import Hyperparams, evaluate, make_synthetic, objective_relaxed, train
from dictpair import baselines
from dictpair.model import WeightState


def test_reduced_matches_full_with_zero_terms():
    # with beta = lam = 0 the weight blocks never feed back into P, S, or D,
    # so skipping the W updates changes nothing
    ds = make_synthetic(2, 6, 5, 0.1, 0.0, seed=2)
    hp = Hyperparams(alpha=0.3, beta=0.0, lam=0.0, atoms_per_class=2, seed=5)
    pair_red, _, _, hist_red = train(ds, hp, mode="reduced")
    pair_full, codes_full, weights_full, hist_full = train(ds, hp, mode="full")
    assert abs(hist_red.objective_model[-1] - hist_full.objective_model[-1]) < 1e-10
    for l in range(2):
        np.testing.assert_allclose(pair_red.D[l], pair_full.D[l], rtol=0, atol=1e-12)
        np.testing.assert_allclose(pair_red.P[l], pair_full.P[l], rtol=0, atol=1e-12)


def test_reduced_objective_invariant_to_weights():
    ds = make_synthetic(2, 6, 5, 0.1, 0.0, seed=2)
    hp = Hyperparams(alpha=0.3, beta=0.0, lam=0.0, atoms_per_class=2, seed=5)
    pair, codes, weights, _ = train(ds, hp, mode="reduced")
    base = objective_relaxed(ds, pair, codes, weights, hp)
    rng = np.random.default_rng(3)
    bumped = WeightState(W=[W + rng.standard_normal(W.shape) for W in weights.W])
    assert objective_relaxed(ds, pair, codes, bumped, hp) == base
    assert base >= 0.0


def test_frobenius_mode_runs():
    ds = make_synthetic(2, 6, 5, 0.1, 0.0, seed=2)
    hp = Hyperparams(alpha=0.3, beta=0.0, lam=0.0, atoms_per_class=2, seed=5)
    pair = train(ds, hp, mode="frobenius")[0]
    for D_l in pair.D:
        np.testing.assert_allclose(D_l.sum(axis=0), 1.0, rtol=0, atol=1e-10)


def test_nearest_class_mean_zero_noise():
    ds = make_synthetic(3, 12, 6, 0.0, 0.0, seed=4)
    clf = baselines.nearest_class_mean(ds)
    assert evaluate(ds, clf).accuracy == 1.0


def test_nearest_class_mean_single_sample():
    # one training sample per class: the mean is that sample
    from dictpair import partition_by_class

    X = np.array([[1.0, 5.0], [2.0, -1.0]])
    ds = partition_by_class(X, np.array([1, 2]))
    clf = baselines.nearest_class_mean(ds)
    assert np.array_equal(clf.means, X)


def test_subspace_full_rank_reconstructs_training_samples():
    ds = make_synthetic(2, 4, 6, 0.5, 0.0, seed=8)
    clf = baselines.least_squares_subspace(ds, 4)
    for l in (1, 2):
        X_l = ds.class_matrix(l)
        B = clf.bases[l - 1]
        for j in range(X_l.shape[1]):
            y = X_l[:, j]
            assert np.linalg.norm(y - B @ (B.T @ y)) < 1e-10


def test_subspace_rank_validation():
    ds = make_synthetic(2, 5, 3, 0.1, 0.0, seed=9)
    with pytest.raises(ValueError, match="exceeds"):
        baselines.least_squares_subspace(ds, 4)


def test_subspace_classifies_clean_data():
    ds = make_synthetic(3, 10, 8, 0.05, 0.0, seed=10)
    clf = baselines.least_squares_subspace(ds, 2)
    assert evaluate(ds, clf).accuracy == 1.0
