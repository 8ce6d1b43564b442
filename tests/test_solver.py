import dataclasses

import numpy as np
import pytest

from dictpair import (
    Hyperparams,
    LabeledDataset,
    evaluate,
    make_synthetic,
    objective_model,
    objective_relaxed,
    partition_by_class,
    surrogate_relaxed,
    train,
)
from dictpair import solver
from dictpair.cli import SWEEP_SEED_BASE, _sweep_instance
from dictpair.model import CodingState, DictionaryPair, WeightState, init_state


# --- smoothed row norms ------------------------------------------------------

def test_smoothed_row_norms_zero_matrix():
    out = solver.smoothed_row_norms(np.zeros((3, 4)), 1e-6)
    assert np.array_equal(out, np.full(3, 1e-6))


def test_smoothed_row_norms_345():
    out = solver.smoothed_row_norms(np.array([[3.0, 4.0]]), 0.1)
    assert abs(out[0] - 10.1) < 1e-15


def test_smoothed_row_norms_oracle(rng):
    R = rng.standard_normal((6, 4))
    out = solver.smoothed_row_norms(R, 0.01)
    for i in range(6):
        direct = 2.0 * sum(R[i, j] ** 2 for j in range(4)) ** 0.5 + 0.01
        assert abs(out[i] - direct) < 1e-14


# --- reweighting diagonals ---------------------------------------------------

def test_reweights_exact_fit():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 3))
    P = rng.standard_normal((2, 4))
    S = P @ X  # exact analysis fit
    D = rng.standard_normal((4, 2))
    tau = 1e-6
    _, u, _ = solver.update_reweights(X, D, P, S, tau)
    np.testing.assert_allclose(u, 1.0 / tau, rtol=1e-12)


def test_reweights_unit_column_analysis():
    # P with unit-norm columns makes every h entry 1/(2 + tau)
    P = np.eye(3)
    X = np.zeros((3, 2))
    S = np.ones((3, 2))
    D = np.ones((3, 3))
    h, _, _ = solver.update_reweights(X, D, P, S, 0.5)
    np.testing.assert_allclose(h, 1.0 / 2.5, rtol=1e-15)


def test_reweights_oracle(rng):
    X = rng.standard_normal((4, 3))
    D = rng.standard_normal((4, 2))
    P = rng.standard_normal((2, 4))
    S = np.abs(rng.standard_normal((2, 3)))
    tau = 1e-3
    h, u, v = solver.update_reweights(X, D, P, S, tau)
    for i in range(4):
        assert abs(h[i] - 1.0 / (2.0 * np.linalg.norm(P[:, i]) + tau)) < 1e-14
    R_u = S.T - X.T @ P.T
    R_v = X.T - S.T @ D.T
    for i in range(3):
        assert abs(u[i] - 1.0 / (2.0 * np.linalg.norm(R_u[i]) + tau)) < 1e-14
        assert abs(v[i] - 1.0 / (2.0 * np.linalg.norm(R_v[i]) + tau)) < 1e-14


# --- code means --------------------------------------------------------------

def test_means_single_sample():
    P = np.array([[1.0, 0.0], [0.0, 2.0]])
    X = np.array([[3.0], [4.0]])
    m, _ = solver.compute_means(P, X, X.sum(axis=1), 1)
    assert np.array_equal(m, (P @ X)[:, 0])


def test_means_hand_case():
    # code columns (1,3) and (3,1): the mean code is (2,2); one class, so mbar = 0
    P = np.eye(2)
    X = np.array([[1.0, 3.0], [3.0, 1.0]])
    m, mbar = solver.compute_means(P, X, X.sum(axis=1), 2)
    assert np.array_equal(m, np.full(2, 2.0))
    assert np.array_equal(mbar, np.zeros(2))


def test_means_oracle(rng):
    P = rng.standard_normal((3, 5))
    X = rng.standard_normal((5, 4))
    Xbar = rng.standard_normal((5, 6))
    m, mbar = solver.compute_means(P, X, X.sum(axis=1) + Xbar.sum(axis=1), 10)
    PX, PXbar = P @ X, P @ Xbar
    for r in range(3):
        m_r = sum(PX[r, j] for j in range(4)) / 4.0
        mb_r = sum(PXbar[r, j] for j in range(6)) / 6.0
        assert np.allclose(m[r], m_r) and np.allclose(mbar[r], mb_r)


# --- analysis update ---------------------------------------------------------

def two_class_gram(X, Xbar):
    """Gram matrix X X' of the dataset made of class X and complement Xbar."""
    return partition_by_class(np.hstack([X, Xbar]), np.repeat([1, 2], [X.shape[1], Xbar.shape[1]])).gram


def test_update_P_identity_case(rng):
    # X = I, U = I, alpha = beta = lam = 0: system is 4I, numerator 4S, so P = S
    n = 4
    X = np.eye(n)
    S = np.abs(rng.standard_normal((2, n)))
    hp = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, atoms_per_class=2)
    W = np.zeros((n, n))
    m, mbar = solver.compute_means(np.zeros((2, n)), X, X.sum(axis=1), n)
    P, regularized = solver.update_P(X, X @ X.T, S, W, np.ones(n), np.ones(n), m, mbar, hp)
    np.testing.assert_allclose(P, S, rtol=0, atol=1e-12)
    assert not regularized


def test_update_P_solve_residual(rng):
    hp = Hyperparams(alpha=0.05, beta=0.05, lam=1e-3, atoms_per_class=3)
    for _ in range(5):
        X = rng.uniform(1.0, 2.0, (5, 8))
        Xbar = rng.uniform(1.0, 2.0, (5, 6))
        S = np.abs(rng.standard_normal((3, 8)))
        W = rng.standard_normal((8, 8))
        np.fill_diagonal(W, 0.0)
        u = rng.uniform(0.5, 2.0, 8)
        h = rng.uniform(0.5, 2.0, 5)
        m, mbar = solver.compute_means(rng.standard_normal((3, 5)), X, X.sum(axis=1) + Xbar.sum(axis=1), 14)
        G = two_class_gram(X, Xbar)
        A, B, _ = solver.analysis_system(X, G, S, W, u, h, m, mbar, hp)
        P, _ = solver.update_P(X, G, S, W, u, h, m, mbar, hp)
        assert np.linalg.norm(P @ A - B) < 1e-8 * np.linalg.norm(B)


def test_update_P_mean_independence_when_lam_zero(rng):
    hp = Hyperparams(alpha=0.1, beta=0.1, lam=0.0, atoms_per_class=2)
    X = rng.uniform(1.0, 2.0, (4, 5))
    Xbar = rng.uniform(1.0, 2.0, (4, 5))
    S = np.abs(rng.standard_normal((2, 5)))
    W = rng.standard_normal((5, 5))
    np.fill_diagonal(W, 0.0)
    u = rng.uniform(0.5, 2.0, 5)
    h = rng.uniform(0.5, 2.0, 4)
    m1 = rng.standard_normal(2)
    m2 = rng.standard_normal(2)
    G = two_class_gram(X, Xbar)
    P1, _ = solver.update_P(X, G, S, W, u, h, m1, 2 * m1, hp)
    P2, _ = solver.update_P(X, G, S, W, u, h, m2, -m2, hp)
    assert np.array_equal(P1, P2)


def explicit_complement_system(X, Xbar, S, W, u, h, P_means, hp):
    """The analysis system written with the complement matrix and replicated
    mean tiles, term by term as in the paper's update."""
    n, N = X.shape
    I_N = np.eye(N)
    Q = (I_N - W) @ (I_N - W).T
    PX = P_means @ X
    M = np.tile(PX.mean(axis=1)[:, None], (1, N))
    Mbar = np.tile((P_means @ Xbar).mean(axis=1)[:, None], (1, N)) if Xbar.shape[1] else np.zeros_like(M)
    B = 4.0 * (S * u) @ X.T + 2.0 * hp.lam * (M @ X.T) - 2.0 * hp.lam * N * (Mbar @ X.T)
    A = (
        4.0 * (X * u) @ X.T
        + 2.0 * hp.alpha * (Xbar @ Xbar.T)
        + 4.0 * hp.alpha * np.diag(h)
        + hp.beta * (X @ Q @ X.T)
        + hp.beta * (X @ Q.T @ X.T)
        + 2.0 * hp.lam * (N - 1) * (X @ X.T)
    )
    return A, B


def random_dataset(rng, sizes, n=6):
    X = rng.uniform(0.5, 1.5, (n, sum(sizes)))
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    return partition_by_class(X, rng.permutation(labels))


@pytest.mark.parametrize("sizes", [(4, 5, 3), (6, 2), (7,)])
def test_gram_form_matches_explicit_complement(rng, sizes):
    # the shipped analysis system and objectives against the explicit-complement
    # formulas; (7,) is the single-class case with an empty complement
    hp = Hyperparams(alpha=0.3, beta=0.2, lam=0.05, atoms_per_class=3)
    ds = random_dataset(rng, sizes)
    n, k = ds.n_features, 3
    pair = DictionaryPair(D=[], P=[])
    codes, weights = CodingState(S=[]), WeightState(W=[])
    for l in range(1, ds.n_classes + 1):
        X, Xbar = ds.class_matrix(l), ds.complement_matrix(l)
        N = X.shape[1]
        S = np.abs(rng.standard_normal((k, N)))
        W = rng.standard_normal((N, N))
        np.fill_diagonal(W, 0.0)
        u = rng.uniform(0.5, 2.0, N)
        h = rng.uniform(0.5, 2.0, n)
        P = rng.standard_normal((k, n))
        m, mbar = solver.compute_means(P, X, ds.sample_sum, ds.n_samples)
        A, B, regularized = solver.analysis_system(X, ds.gram, S, W, u, h, m, mbar, hp)
        A_ref, B_ref = explicit_complement_system(X, Xbar, S, W, u, h, P, hp)
        assert not regularized
        assert np.linalg.norm(A - A_ref) < 1e-10 * np.linalg.norm(A_ref)
        assert np.linalg.norm(B - B_ref) < 1e-10 * np.linalg.norm(B_ref)
        pair.D.append(rng.standard_normal((n, k)))
        pair.P.append(P)
        codes.S.append(S)
        weights.W.append(W)
    for got, want in [
        (objective_model(ds, pair, weights, hp), reference_objective(ds, pair, codes, weights, hp, relaxed=False)),
        (objective_relaxed(ds, pair, codes, weights, hp), reference_objective(ds, pair, codes, weights, hp, relaxed=True)),
    ]:
        assert abs(got - want) < 1e-10 * abs(want)


def test_analysis_system_rejects_nonfinite(rng):
    hp = Hyperparams(alpha=0.1, beta=0.1, lam=1e-3, atoms_per_class=2)
    X = rng.uniform(1.0, 2.0, (4, 5))
    X[0, 0] = np.nan
    with pytest.raises(solver.NumericalError, match="non-finite"):
        solver.analysis_system(X, X @ X.T, np.ones((2, 5)), np.zeros((5, 5)), np.ones(5), np.ones(4),
                               np.zeros(2), np.zeros(2), hp)


# --- code update -------------------------------------------------------------

def test_update_S_zero_stays_zero(rng):
    X = rng.uniform(0.5, 1.5, (4, 6))
    D = np.abs(rng.standard_normal((4, 3)))
    P = rng.standard_normal((3, 4))
    S = np.abs(rng.standard_normal((3, 6)))
    S[1, :] = 0.0
    out = solver.update_S(X, D, P, S, np.ones(6), np.ones(6), 1e-6)
    assert np.all(out[1, :] == 0.0)
    assert np.all(out >= 0.0)


def test_update_S_unit_ratio_fixed_point(rng):
    # D = I, P = I, S = X: numerator and denominator agree entrywise
    X = rng.uniform(0.5, 1.5, (3, 4))
    I3 = np.eye(3)
    out = solver.update_S(X, I3, I3, X.copy(), np.ones(4), np.ones(4), 1e-6)
    np.testing.assert_allclose(out, X, rtol=1e-15)


def code_surrogate(X, D, P, S, u, v):
    R1 = X - D @ S
    R2 = S - P @ X
    return 2.0 * float(np.sum((R1 * R1) * v)) + 2.0 * float(np.sum((R2 * R2) * u))


def test_update_S_surrogate_monotone():
    # nonnegative instances with fixed diagonals: ten consecutive updates never increase
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.2, 1.0, (4, 6))
        D = np.abs(rng.standard_normal((4, 3)))
        P = np.abs(rng.standard_normal((3, 4)))
        S = np.abs(rng.standard_normal((3, 6)))
        u = rng.uniform(0.5, 2.0, 6)
        v = rng.uniform(0.5, 2.0, 6)
        prev = code_surrogate(X, D, P, S, u, v)
        for _ in range(10):
            S = solver.update_S(X, D, P, S, u, v, 1e-6)
            cur = code_surrogate(X, D, P, S, u, v)
            assert cur <= prev * (1.0 + 1e-12)
            prev = cur


# --- synthesis update --------------------------------------------------------

def test_update_D_zero_codes_fall_back_to_uniform():
    X = np.random.default_rng(0).standard_normal((5, 4))
    S = np.zeros((2, 4))
    D = solver.update_D(X, S, np.ones(4), 1e-6)
    assert np.array_equal(D, np.full((5, 2), 0.2))


def test_update_D_identity_codes(rng):
    # S = I, V = I: the ridge solution is X/(1+tau); columns then sum to one
    X = rng.uniform(0.5, 1.5, (4, 3))
    tau = 1e-6
    D_pre = solver.solve_synthesis(X, np.eye(3), np.ones(3), tau)
    np.testing.assert_allclose(D_pre, X / (1.0 + tau), rtol=1e-12)
    D = solver.update_D(X, np.eye(3), np.ones(3), tau)
    np.testing.assert_allclose(D.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(D, X / X.sum(axis=0, keepdims=True), rtol=1e-9)


def test_update_D_solve_residual(rng):
    for _ in range(5):
        X = rng.uniform(0.5, 1.5, (5, 8))
        S = np.abs(rng.standard_normal((3, 8))) + 0.1
        v = rng.uniform(0.5, 2.0, 8)
        tau = 1e-6
        D_pre = solver.solve_synthesis(X, S, v, tau)
        A = (S * v) @ S.T + tau * np.eye(3)
        B = (X * v) @ S.T
        assert np.linalg.norm(D_pre @ A - B) < 1e-8 * np.linalg.norm(B)


def test_update_D_column_sums_one(rng):
    X = rng.uniform(0.5, 1.5, (6, 7))
    S = np.abs(rng.standard_normal((3, 7)))
    D = solver.update_D(X, S, np.ones(7), 1e-6)
    np.testing.assert_allclose(D.sum(axis=0), 1.0, rtol=0, atol=1e-10)


# --- weight update -----------------------------------------------------------

def test_update_W_single_sample():
    W = solver.update_W(np.array([[2.0], [1.0]]), np.array([[1.0, 0.0]]))
    assert W.shape == (1, 1) and W[0, 0] == 0.0


def test_update_W_zero_data():
    W = solver.update_W(np.zeros((3, 4)), np.zeros((2, 3)))
    assert np.array_equal(W, np.zeros((4, 4)))


def weights_objective(X, P, W):
    PX = P @ X
    return (
        np.linalg.norm(X - X @ W) ** 2
        + np.linalg.norm(PX - PX @ W) ** 2
        + np.linalg.norm(W) ** 2
    )


def minimize_weights_bruteforce(X, P):
    """Backtracking gradient descent to gradient norm 1e-10, written directly
    from the objective; independent of the closed-form solve."""
    PX = P @ X
    N = X.shape[1]
    W = np.zeros((N, N))
    step = 1.0
    for _ in range(50000):
        grad = -2.0 * X.T @ (X - X @ W) - 2.0 * PX.T @ (PX - PX @ W) + 2.0 * W
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-10:
            break
        f0 = weights_objective(X, P, W)
        while step > 1e-16:
            if weights_objective(X, P, W - step * grad) <= f0 - 0.5 * step * gnorm**2:
                break
            step *= 0.5
        W = W - step * grad
        step *= 1.3
    return W


def test_update_W_matches_numerical_minimizer(rng):
    X = rng.uniform(0.5, 1.5, (4, 3))
    P = rng.standard_normal((2, 4))
    W_brute = minimize_weights_bruteforce(X, P)
    PX = P @ X
    G = X.T @ X + PX.T @ PX
    W_closed = np.linalg.solve(G + np.eye(3), G)
    assert np.abs(W_brute - W_closed).max() < 1e-6
    # the shipped update equals the closed form with a zeroed diagonal
    W = solver.update_W(X, P)
    expected = W_closed.copy()
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_allclose(W, expected, rtol=0, atol=1e-12)


def test_update_W_stationarity_via_numeric_gradient(rng):
    X = rng.uniform(0.5, 1.5, (4, 3))
    P = rng.standard_normal((2, 4))
    PX = P @ X
    G = X.T @ X + PX.T @ PX
    W_star = np.linalg.solve(G + np.eye(3), G)
    grad = solver.numeric_gradient(lambda W: weights_objective(X, P, W), W_star, 1e-5)
    assert np.linalg.norm(grad) < 1e-5 * (1.0 + np.linalg.norm(W_star))


# --- objectives --------------------------------------------------------------

def one_class_state(x, d, p, s, w):
    ds = partition_by_class(np.array([[float(x)]]), np.array([1]))
    pair = DictionaryPair(D=[np.array([[float(d)]])], P=[np.array([[float(p)]])])
    codes = CodingState(S=[np.array([[float(s)]])])
    weights = WeightState(W=[np.array([[float(w)]])])
    return ds, pair, codes, weights


def test_objective_relaxed_hand_case():
    ds, pair, codes, weights = one_class_state(x=2.0, d=1.0, p=0.0, s=0.0, w=0.0)
    hp = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, atoms_per_class=1)
    assert objective_relaxed(ds, pair, codes, weights, hp) == 2.0


def test_objective_relaxed_zero_residual():
    ds, pair, codes, weights = one_class_state(x=2.0, d=1.0, p=1.0, s=2.0, w=0.0)
    hp = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, atoms_per_class=1)
    assert objective_relaxed(ds, pair, codes, weights, hp) == 0.0


def test_objective_model_hand_case():
    ds, pair, codes, weights = one_class_state(x=2.0, d=1.0, p=0.5, s=1.0, w=0.0)
    hp = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, atoms_per_class=1)
    assert objective_model(ds, pair, weights, hp) == 1.0


def test_objective_model_perfect_reconstruction():
    # D P acts as the identity on the class data: zero objective
    ds, pair, codes, weights = one_class_state(x=2.0, d=1.0, p=1.0, s=2.0, w=0.0)
    hp = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, atoms_per_class=1)
    assert objective_model(ds, pair, weights, hp) == 0.0


def reference_objective(ds, pair, codes, weights, hp, relaxed):
    """Term-by-term recomputation with explicit loops over rows and classes."""
    def l21(R):
        return sum(np.sqrt(np.sum(R[i] ** 2)) for i in range(R.shape[0]))

    total = 0.0
    for l in range(1, ds.n_classes + 1):
        X = ds.class_matrix(l)
        Xbar = ds.complement_matrix(l)
        D, P, W = pair.D[l - 1], pair.P[l - 1], weights.W[l - 1]
        N = X.shape[1]
        PX = P @ X
        if relaxed:
            S = codes.S[l - 1]
            total += l21(X.T - S.T @ D.T) + l21(S.T - X.T @ P.T)
        else:
            total += l21(X.T - X.T @ P.T @ D.T)
        total += hp.alpha * (np.sum((P @ Xbar) ** 2) + l21(P.T))
        total += hp.beta * (
            np.sum((X - X @ W) ** 2) + np.sum((PX - PX @ W) ** 2) + np.sum(W**2)
        )
        m = PX.mean(axis=1, keepdims=True)
        mbar = (P @ Xbar).mean(axis=1, keepdims=True) if Xbar.shape[1] else np.zeros_like(m)
        total += hp.lam * (np.sum((PX - m) ** 2) - N * np.sum((PX - mbar) ** 2))
    return total


def random_two_class_state(rng, k=3):
    X = np.concatenate([rng.uniform(0.5, 1.5, (5, 4)) for _ in range(2)], axis=1)
    ds = partition_by_class(X, np.repeat([1, 2], 4))
    pair = DictionaryPair(
        D=[rng.standard_normal((5, k)) for _ in range(2)],
        P=[rng.standard_normal((k, 5)) for _ in range(2)],
    )
    codes = CodingState(S=[np.abs(rng.standard_normal((k, 4))) for _ in range(2)])
    W = []
    for _ in range(2):
        W_l = rng.standard_normal((4, 4))
        np.fill_diagonal(W_l, 0.0)
        W.append(W_l)
    return ds, pair, codes, WeightState(W=W)


def test_objectives_match_reference(rng):
    ds, pair, codes, weights = random_two_class_state(rng)
    hp = Hyperparams(alpha=0.3, beta=0.2, lam=0.05, atoms_per_class=3)
    got = objective_relaxed(ds, pair, codes, weights, hp)
    want = reference_objective(ds, pair, codes, weights, hp, relaxed=True)
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))
    got = objective_model(ds, pair, weights, hp)
    want = reference_objective(ds, pair, codes, weights, hp, relaxed=False)
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))


# --- numeric gradient --------------------------------------------------------

def test_numeric_gradient_quadratic():
    M = np.array([[1.0, 2.0]])
    G = solver.numeric_gradient(lambda A: float(np.sum(A * A)), M, 1e-6)
    np.testing.assert_allclose(G, [[2.0, 4.0]], rtol=0, atol=1e-8)


def test_numeric_gradient_linear():
    M = np.array([[1.0, -3.0], [0.5, 2.0]])
    G = solver.numeric_gradient(lambda A: float(np.sum(A)), M, 1e-6)
    np.testing.assert_allclose(G, np.ones((2, 2)), rtol=0, atol=1e-9)


def test_numeric_gradient_bad_step():
    with pytest.raises(ValueError):
        solver.numeric_gradient(lambda A: 0.0, np.zeros((1, 1)), 0.0)


# --- training loop -----------------------------------------------------------

def test_train_zero_noise_fixture():
    ds = make_synthetic(2, 5, 4, 0.0, 0.0, seed=3)
    hp = Hyperparams(alpha=0.3, beta=0.01, lam=1e-3, atoms_per_class=2, seed=7, tol=1e-3)
    pair, codes, weights, history = train(ds, hp)
    assert history.converged and history.iterations_run <= 30
    assert evaluate(ds, pair).accuracy == 1.0


def test_train_huge_tol_single_iteration(standard_split, standard_hp):
    train_ds, _ = standard_split
    hp = dataclasses.replace(standard_hp, tol=1e9)
    _, _, _, history = train(train_ds, hp)
    assert history.iterations_run == 1 and history.converged


def test_train_determinism(standard_split, standard_hp):
    train_ds, _ = standard_split
    hp = dataclasses.replace(standard_hp, max_iter=5, tol=1e-12)
    h1 = train(train_ds, hp)[3]
    h2 = train(train_ds, hp)[3]
    assert h1.objective_model == h2.objective_model
    assert h1.objective_relaxed == h2.objective_relaxed
    assert h1.delta_P == h2.delta_P and h1.delta_W == h2.delta_W


def test_train_structure_invariants(trained_standard):
    pair, codes, weights, history = trained_standard
    for l in range(3):
        assert np.all(codes.S[l] >= 0.0)
        assert np.all(np.diag(weights.W[l]) == 0.0)
        np.testing.assert_allclose(pair.D[l].sum(axis=0), 1.0, rtol=0, atol=1e-10)
    assert history.converged


def test_train_self_check_mode(standard_split, standard_hp):
    # raises on any solve residual above 1e-8 relative, every iteration
    train_ds, _ = standard_split
    history = train(train_ds, standard_hp, self_check=True)[3]
    assert history.tau_regularized == 0
    # also through the singular-guard path (alpha = 0 leaves the system rank-deficient)
    hp = dataclasses.replace(standard_hp, alpha=0.0, max_iter=10, tol=1e-12)
    history = train(train_ds, hp, self_check=True)[3]
    assert history.tau_regularized == train_ds.n_classes * history.iterations_run


def test_train_self_check_catches_inaccurate_solves(standard_split, standard_hp, monkeypatch):
    # every solve off by 1e-3 relative leaves a residual near 1e-6 after one refinement step
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda A, B: solve(A, B) * (1.0 + 1e-3))
    train_ds, _ = standard_split
    hp = dataclasses.replace(standard_hp, max_iter=2)
    with pytest.raises(solver.NumericalError, match="analysis solve residual"):
        train(train_ds, hp, self_check=True)
    train(train_ds, hp)
    X_l = train_ds.class_matrix(1)
    S_l = np.abs(np.random.default_rng(0).standard_normal((2, X_l.shape[1])))
    v = np.ones(X_l.shape[1])
    with pytest.raises(solver.NumericalError, match="synthesis solve residual"):
        solver.update_D(X_l, S_l, v, 1e-6, self_check=True)
    solver.update_D(X_l, S_l, v, 1e-6)


@pytest.mark.parametrize("mode", ["full", "reduced", "frobenius"])
def test_train_iteration_is_sweep_class_then_reweights(standard_split, standard_hp, mode):
    train_ds, _ = standard_split
    hp = dataclasses.replace(standard_hp, max_iter=1)
    if mode != "full":
        hp = dataclasses.replace(hp, beta=0.0, lam=0.0)
    pair, codes, weights, _ = train(train_ds, hp, mode=mode)
    ref_pair, ref_codes, ref_weights, rw = init_state(train_ds, hp)
    for l in range(train_ds.n_classes):
        solver.sweep_class(train_ds, l, ref_pair, ref_codes, ref_weights, rw, hp, mode)
        rw.h[l], rw.u[l], rw.v[l] = solver.update_reweights(
            train_ds.class_matrix(l + 1), ref_pair.D[l], ref_pair.P[l], ref_codes.S[l], hp.tau
        )
    for got, want in [(pair.P, ref_pair.P), (pair.D, ref_pair.D), (codes.S, ref_codes.S),
                      (weights.W, ref_weights.W)]:
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_train_counts_no_guard_on_standard_config(trained_standard):
    assert trained_standard[3].tau_regularized == 0


def test_train_nonfinite_data_raises_numerical_error(standard_split, standard_hp):
    # built directly, past partition_by_class, which rejects non-finite columns
    train_ds, _ = standard_split
    X = train_ds.X.copy()
    X[3, 7] = np.nan
    ds = LabeledDataset(X=X, labels=train_ds.labels)
    with pytest.raises(solver.NumericalError, match="not finite"):
        train(ds, standard_hp)


def test_train_and_objectives_never_build_complements(standard_split, standard_hp, monkeypatch):
    def refuse(self, label):
        raise AssertionError("complement_matrix called")

    train_ds, _ = standard_split
    monkeypatch.setattr(LabeledDataset, "complement_matrix", refuse)
    pair, codes, weights, _ = train(train_ds, dataclasses.replace(standard_hp, max_iter=3))
    assert np.isfinite(objective_model(train_ds, pair, weights, standard_hp))
    assert np.isfinite(objective_relaxed(train_ds, pair, codes, weights, standard_hp))


def test_train_iterate_deltas_shrink(trained_standard):
    h = trained_standard[3]
    first = h.delta_P[0] + h.delta_S[0] + h.delta_D[0] + h.delta_W[0]
    last = h.delta_P[-1] + h.delta_S[-1] + h.delta_D[-1] + h.delta_W[-1]
    assert last < first


def test_train_objective_monotone_after_first(trained_standard):
    objs = trained_standard[3].objective_model
    deltas = np.diff(objs)
    assert np.all(deltas[1:] <= 1e-10)


def test_train_mode_validation(standard_split, standard_hp):
    train_ds, _ = standard_split
    with pytest.raises(ValueError, match="requires beta"):
        train(train_ds, standard_hp, mode="reduced")
    with pytest.raises(ValueError, match="unknown mode"):
        train(train_ds, standard_hp, mode="fancy")


def test_reduced_objective_ignores_weights(standard_split):
    # with beta = lam = 0 the relaxed objective has no W dependence at all
    train_ds, _ = standard_split
    hp = Hyperparams(alpha=1.0, beta=0.0, lam=0.0, atoms_per_class=2, seed=10)
    pair, codes, weights, _ = train(train_ds, hp, mode="reduced")
    base = objective_relaxed(train_ds, pair, codes, weights, hp)
    rng = np.random.default_rng(0)
    perturbed = WeightState(W=[W + rng.standard_normal(W.shape) for W in weights.W])
    assert objective_relaxed(train_ds, pair, codes, perturbed, hp) == base


# --- frozen-diagonal sweep ---------------------------------------------------

def test_sweep_monotone_on_pinned_instances():
    worst = -np.inf
    for seed in range(SWEEP_SEED_BASE, SWEEP_SEED_BASE + 20):
        ds, pair, codes, weights, rw, hp = _sweep_instance(seed)
        before = surrogate_relaxed(ds, pair, codes, weights, rw, hp)
        for l in range(ds.n_classes):
            solver.sweep_class(ds, l, pair, codes, weights, rw, hp)
        after = surrogate_relaxed(ds, pair, codes, weights, rw, hp)
        worst = max(worst, (after - before) / abs(before))
    assert worst <= 1e-8
