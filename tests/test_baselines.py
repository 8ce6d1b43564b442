import dataclasses

import numpy as np
import pytest

from dictpair import Hyperparams, LabeledDataset, evaluate, make_synthetic, objective_relaxed, train
from dictpair import baselines, solver

from conftest import final_states


def test_zero_beta_training_ignores_initial_weights(monkeypatch):
    # at beta = 0 W enters neither the analysis system nor an objective and is
    # never updated, so where it starts changes nothing else that train returns
    ds = make_synthetic(2, 6, 5, 0.1, 0.0, seed=2)
    hp = Hyperparams(alpha=0.3, beta=0.0, lam=1e-3, atoms_per_class=2, seed=5)
    plain = train(ds, hp)
    init_state, rng = solver.init_state, np.random.default_rng(3)

    def bumped_init(ds, hp):
        states = init_state(ds, hp)
        for st in states:
            st.W = st.W + rng.standard_normal(st.W.shape)
        return states

    monkeypatch.setattr(solver, "init_state", bumped_init)
    bumped = train(ds, hp)
    (pa, ca, wa, ha), (pb, cb, wb, hb) = plain, bumped
    blocks = [(pa.P, pb.P), (pa.D, pb.D), (ca.S, cb.S)]
    assert all(a.tobytes() == b.tobytes() for xs, ys in blocks for a, b in zip(xs, ys, strict=True))
    assert dataclasses.asdict(ha) == dataclasses.asdict(hb)
    assert ha.delta_W == [0.0] * ha.iterations_run
    assert not any(np.array_equal(a, b) for a, b in zip(wa.W, wb.W))


def test_reduced_objective_invariant_to_weights():
    # the reduced objective: beta = lam = 0
    ds = make_synthetic(2, 6, 5, 0.1, 0.0, seed=2)
    hp = Hyperparams(alpha=0.3, beta=0.0, lam=0.0, atoms_per_class=2, seed=5)
    states = final_states(ds, train(ds, hp), hp)
    base = objective_relaxed(ds, states, hp)
    rng = np.random.default_rng(3)
    bumped = [dataclasses.replace(st, W=st.W + rng.standard_normal(st.W.shape)) for st in states]
    assert objective_relaxed(ds, bumped, hp) == base
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_nearest_class_mean_rejects_non_finite_sample(bad):
    # a NaN column used to be counted as a class-1 prediction by evaluate;
    # 1e200 is finite, but its squared norm overflows
    ds = make_synthetic(3, 10, 8, 0.05, 0.0, seed=10)
    clf = baselines.nearest_class_mean(ds)
    X = ds.X.copy()
    X[4, 16] = bad
    with pytest.raises(ValueError, match="sample has a NaN, an inf or an overflowing norm"):
        evaluate(LabeledDataset(X=X, labels=ds.labels), clf)


@pytest.mark.parametrize("shape", [(9,), (11,), (10, 1), ()])
def test_nearest_class_mean_rejects_wrong_shape(shape):
    clf = baselines.nearest_class_mean(make_synthetic(3, 10, 8, 0.05, 0.0, seed=10))
    with pytest.raises(ValueError, match="sample dimension|one sample vector"):
        clf.classify(np.ones(shape))


def test_subspace_full_rank_reconstructs_training_samples():
    ds = make_synthetic(2, 4, 6, 0.5, 0.0, seed=8)
    clf = baselines.least_squares_subspace(ds, 4)
    for l in (1, 2):
        X_l = ds.class_matrix(l)
        B = clf.D[l - 1]
        assert np.array_equal(clf.P[l - 1], B.T)
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
