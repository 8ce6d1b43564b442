import dataclasses

import numpy as np
import pytest

from dictpair import Hyperparams, evaluate, make_synthetic, train
from dictpair import baselines, solver


def test_zero_beta_training_ignores_initial_weights(monkeypatch):
    # at beta = 0 W enters neither the analysis system nor an objective and is never updated, so
    # init_state starts it at zero, and where it starts changes nothing else that train returns
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
    assert all(not W_l.any() for W_l in wa.W)
    assert not any(np.array_equal(a, b) for a, b in zip(wa.W, wb.W))


def test_frobenius_mode_runs():
    ds = make_synthetic(2, 6, 5, 0.1, 0.0, seed=2)
    hp = Hyperparams(alpha=0.3, beta=0.0, lam=0.0, atoms_per_class=2, seed=5)
    pair = train(ds, hp, mode="frobenius")[0]
    for D_l in pair.D:
        np.testing.assert_allclose(D_l.sum(axis=0), 1.0, rtol=0, atol=1e-10)


def test_nearest_class_mean_zero_noise():
    ds = make_synthetic(3, 12, 6, 0.0, 0.0, seed=4)
    clf = baselines.nearest_class_mean(ds)
    assert np.array_equal(clf.classify(ds.X), ds.labels)


def test_nearest_class_mean_single_sample():
    # one training sample per class: the mean is that sample
    from dictpair import partition_by_class

    X = np.array([[1.0, 5.0], [2.0, -1.0]])
    ds = partition_by_class(X, np.array([1, 2]))
    clf = baselines.nearest_class_mean(ds)
    assert np.array_equal(clf.means, X)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_nearest_class_mean_rejects_non_finite_sample(bad):
    # a NaN column would tie every distance at NaN and be labelled class 1;
    # 1e200 is finite, but its squared norm overflows
    ds = make_synthetic(3, 10, 8, 0.05, 0.0, seed=10)
    clf = baselines.nearest_class_mean(ds)
    X = ds.X.copy()
    X[4, 16] = bad
    with pytest.raises(ValueError, match="sample column 16 has a NaN, an inf or an overflowing norm"):
        clf.classify(X)


@pytest.mark.parametrize("shape", [(9,), (11,), (11, 1), ()])
def test_nearest_class_mean_rejects_wrong_shape(shape):
    clf = baselines.nearest_class_mean(make_synthetic(3, 10, 8, 0.05, 0.0, seed=10))
    with pytest.raises(ValueError, match="sample dimension|one sample vector"):
        clf.classify(np.ones(shape))


def test_nearest_class_mean_labels_a_matrix_as_its_columns(rng):
    # a vector gives one label, an n x 1 column and a matrix an array of labels
    clf = baselines.NearestClassMean(rng.standard_normal((10, 4)))
    Y = rng.standard_normal((10, 24))
    labels = clf.classify(Y)
    assert labels.shape == (24,) and set(labels.tolist()) == {1, 2, 3, 4}
    assert labels.tolist() == [clf.classify(Y[:, j]) for j in range(24)]
    assert clf.classify(Y[:, 5:6]).tolist() == [labels[5]]


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
