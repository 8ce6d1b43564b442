import dataclasses
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

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
    split,
    surrogate_relaxed,
    train,
)
from dictpair import solver
from dictpair.cli import PRESETS, code_oracle, gradient_oracles, numeric_gradient, weight_oracles
from dictpair.model import ClassState, init_state

from conftest import CORRUPT_HP, STANDARD_HP, final_states, inject_solve_fault, solve_kernels, traced_peak


# --- row norms ---------------------------------------------------------------

def test_row_norms_zero_matrix():
    assert np.array_equal(solver.row_norms(np.zeros((3, 4))), np.zeros(3))


def test_row_norms_345():
    assert solver.row_norms(np.array([[3.0, 4.0]]))[0] == 5.0


def test_row_norms_oracle(rng):
    R = rng.standard_normal((6, 4))
    out = solver.row_norms(R)
    for i in range(6):
        direct = sum(R[i, j] ** 2 for j in range(4)) ** 0.5
        assert abs(out[i] - direct) < 1e-14


# --- reweighting diagonals ---------------------------------------------------

def reweights(X, D, P, S, tau):
    return solver.update_reweights(solver.relaxed_row_norms(X, D, P, S), tau)


def test_reweights_exact_fit():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 3))
    P = rng.standard_normal((2, 4))
    S = P @ X  # exact analysis fit
    D = rng.standard_normal((4, 2))
    tau = 1e-6
    _, u, _ = reweights(X, D, P, S, tau)
    np.testing.assert_allclose(u, 1.0 / tau, rtol=1e-12)


def test_reweights_unit_column_analysis():
    # P with unit-norm columns makes every h entry 1/(2 + tau)
    P = np.eye(3)
    X = np.zeros((3, 2))
    S = np.ones((3, 2))
    D = np.ones((3, 3))
    h, _, _ = reweights(X, D, P, S, 0.5)
    np.testing.assert_allclose(h, 1.0 / 2.5, rtol=1e-15)


def test_reweights_oracle(rng):
    X = rng.standard_normal((4, 3))
    D = rng.standard_normal((4, 2))
    P = rng.standard_normal((2, 4))
    S = np.abs(rng.standard_normal((2, 3)))
    tau = 1e-3
    h, u, v = reweights(X, D, P, S, tau)
    for i in range(4):
        assert abs(h[i] - 1.0 / (2.0 * np.linalg.norm(P[:, i]) + tau)) < 1e-14
    R_u = S.T - X.T @ P.T
    R_v = X.T - S.T @ D.T
    for i in range(3):
        assert abs(u[i] - 1.0 / (2.0 * np.linalg.norm(R_u[i]) + tau)) < 1e-14
        assert abs(v[i] - 1.0 / (2.0 * np.linalg.norm(R_v[i]) + tau)) < 1e-14


def test_reweights_non_square_analysis_block(rng):
    # h has one entry per column of P_l (n of them), whatever k is
    k, n, N_l = 2, 5, 3
    X = rng.standard_normal((n, N_l))
    D = rng.standard_normal((n, k))
    P = rng.standard_normal((k, n))
    S = np.abs(rng.standard_normal((k, N_l)))
    h, u, v = reweights(X, D, P, S, 1e-3)
    assert (h.shape, u.shape, v.shape) == ((n,), (N_l,), (N_l,))
    np.testing.assert_allclose(h, 1.0 / (2.0 * np.linalg.norm(P, axis=0) + 1e-3), rtol=1e-14)


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
    # X = I, U = I, alpha = beta = lam = 0: system is 4I + tau I (the alpha = 0
    # ridge), numerator 4S, so P = 4S / (4 + tau)
    n = 4
    X = np.eye(n)
    S = np.abs(rng.standard_normal((2, n)))
    hp = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, atoms_per_class=2)
    W = np.zeros((n, n))
    m, mbar = solver.compute_means(np.zeros((2, n)), X, X.sum(axis=1), n)
    P = solver.update_P(X, X @ X.T, S, W, np.ones(n), np.ones(n), m, mbar, hp)
    np.testing.assert_allclose(P, 4.0 * S / (4.0 + hp.tau), rtol=1e-14, atol=0)


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
        A, B = solver.analysis_system(X, G, S, W, u, h, m, mbar, hp)
        P = solver.update_P(X, G, S, W, u, h, m, mbar, hp)
        assert np.linalg.norm(P @ A - B) < 1e-8 * np.linalg.norm(B)


def reference_solve(A, B):
    """Y A = B as _checked_solve computes it: NumPy's dposv kernel on copies
    of A and B where it resolves, the LU otherwise."""
    posv = solver._dposv()
    if posv is None:
        return np.linalg.solve(A.T, B.T).T
    F, Y = A.copy(), B.copy()
    assert posv(F, Y) == 0
    return Y


def assert_agrees_with_lu(Y, A, B):
    """Y and the LU solution of Y A = B, each within the backward-error bound
    n eps (||Y|| ||A|| + ||B||) of _checked_solve, differ through A by at
    most the sum of their two bounds."""
    lu = np.linalg.solve(A.T, B.T).T
    norm, eps = np.linalg.norm, np.finfo(float).eps
    bound = len(A) * eps * ((norm(Y) + norm(lu)) * norm(A) + 2.0 * norm(B))
    assert norm((Y - lu) @ A) <= bound


@pytest.mark.parametrize("n, sizes", [(5, (8, 6)), (70, (20, 60)), (64, (10, 30, 40))])
def test_update_P_matches_lu_reference(rng, n, sizes):
    # bitwise the solve of analysis_system's own (A, B), and within the
    # backward-error bounds of the LU
    hp = Hyperparams(alpha=0.05, beta=0.05, lam=1e-3, atoms_per_class=3)
    for _ in range(3):
        ds = random_dataset(rng, sizes, n)
        X = ds.class_matrix(1)
        N = X.shape[1]
        S = np.abs(rng.standard_normal((3, N)))
        W = rng.standard_normal((N, N))
        np.fill_diagonal(W, 0.0)
        u = rng.uniform(0.5, 2.0, N)
        h = rng.uniform(0.5, 2.0, n)
        m, mbar = solver.compute_means(rng.standard_normal((3, n)), X, ds.sample_sum, ds.n_samples)
        A, B = solver.analysis_system(X, ds.gram, S, W, u, h, m, mbar, hp)
        P = solver.update_P(X, ds.gram, S, W, u, h, m, mbar, hp)
        assert np.array_equal(P, reference_solve(A, B))
        assert_agrees_with_lu(P, A, B)


@pytest.mark.parametrize("case", ["rank_deficient", "positive_definite"])
def test_alpha0_analysis_system_carries_the_tau_ridge(rng, case):
    # at alpha = 0, A = X_l C X_l' + tau I whatever A's conditioning: with
    # N_l = 3 < n = 4, X_l C X_l' is singular; with N_l = 12 >= n and one
    # feature scaled by 1e-7, it is positive definite with cond near 1e14
    N_l = 3 if case == "rank_deficient" else 12
    hp = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, atoms_per_class=2, max_iter=3, tol=1e-12)
    X_all = rng.uniform(0.5, 1.5, (4, 2 * N_l))
    if case == "positive_definite":
        X_all[-1] *= 1e-7
    ds = partition_by_class(X_all, np.repeat([1, 2], N_l))
    X = ds.class_matrix(1)
    S = np.abs(rng.standard_normal((2, N_l)))
    u, h, W = rng.uniform(0.5, 2.0, N_l), np.ones(4), np.zeros((N_l, N_l))
    A0 = 4.0 * (X * u) @ X.T
    if case == "rank_deficient":
        assert np.linalg.matrix_rank(A0) == N_l
    else:
        np.linalg.cholesky(A0)
    A, B = solver.analysis_system(X, ds.gram, S, W, u, h, np.zeros(2), np.zeros(2), hp)
    np.testing.assert_allclose(A, A0 + hp.tau * np.eye(4), rtol=1e-14, atol=0)
    P = solver.update_P(X, ds.gram, S, W, u, h, np.zeros(2), np.zeros(2), hp)
    assert np.array_equal(P, reference_solve(A, B))
    assert_agrees_with_lu(P, A, B)
    assert train(ds, hp)[3].iterations_run >= 1


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
    P1 = solver.update_P(X, G, S, W, u, h, m1, 2 * m1, hp)
    P2 = solver.update_P(X, G, S, W, u, h, m2, -m2, hp)
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
    # the shipped analysis system, which is divided by 2 alpha, and the
    # objectives against the explicit-complement formulas; (7,) is the
    # single-class case with an empty complement
    hp = Hyperparams(alpha=0.3, beta=0.2, lam=0.05, atoms_per_class=3)
    ds = random_dataset(rng, sizes)
    n, k = ds.n_features, 3
    states = []
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
        A, B = solver.analysis_system(X, ds.gram, S, W, u, h, m, mbar, hp)
        A_ref, B_ref = (M / (2.0 * hp.alpha) for M in explicit_complement_system(X, Xbar, S, W, u, h, P, hp))
        assert np.linalg.norm(A - A_ref) < 1e-10 * np.linalg.norm(A_ref)
        assert np.linalg.norm(B - B_ref) < 1e-10 * np.linalg.norm(B_ref)
        states.append(ClassState(rng.standard_normal((n, k)), P, S, W, h, u, np.ones(N)))
    for got, want in [
        (objective_model(ds, states, hp), reference_objective(ds, states, hp, relaxed=False)),
        (objective_relaxed(ds, states, hp), reference_objective(ds, states, hp, relaxed=True)),
    ]:
        assert abs(got - want) < 1e-10 * abs(want)


def test_analysis_system_rejects_nonfinite(rng, monkeypatch):
    # named where it is solved, before either path factors it
    hp = Hyperparams(alpha=0.1, beta=0.1, lam=1e-3, atoms_per_class=2)
    X = rng.uniform(1.0, 2.0, (4, 5))
    X[0, 0] = np.nan
    for posv in solve_kernels():
        monkeypatch.setattr(solver, "_dposv", lambda posv=posv: posv)
        with pytest.raises(solver.NumericalError, match="^analysis system has non-finite entries$"):
            solver.update_P(X, X @ X.T, np.ones((2, 5)), np.zeros((5, 5)), np.ones(5), np.ones(4),
                            np.zeros(2), np.zeros(2), hp)


def test_synthesis_system_rejects_nonfinite(rng, monkeypatch):
    X = rng.uniform(1.0, 2.0, (4, 5))
    S = np.abs(rng.standard_normal((2, 5)))
    v = np.ones(5)
    v[2] = np.nan
    for posv in solve_kernels():
        monkeypatch.setattr(solver, "_dposv", lambda posv=posv: posv)
        with pytest.raises(solver.NumericalError, match="^synthesis system has non-finite entries$"):
            solver.solve_synthesis(X, S, v, 1e-6)


def test_update_P_in_a_workspace_allocates_no_n_by_n_array(rng):
    # face scale: given a plain 2 x n x n buffer, the P step builds, factors
    # and checks its system with no n x n array (8 n^2 bytes), and not even
    # an n x n bool array (n^2 bytes)
    if solver._dposv() is None:
        pytest.skip("NumPy's BLAS exports no 64-bit-integer dposv; the LU factors a copy of the system")
    n, N_l, k = 504, 32, 5
    hp = Hyperparams(alpha=1.0, beta=0.01, lam=1e-3, atoms_per_class=k)
    ds = random_dataset(rng, (N_l, N_l), n)
    X = ds.class_matrix(1)
    S = np.abs(rng.standard_normal((k, N_l)))
    W = rng.standard_normal((N_l, N_l))
    np.fill_diagonal(W, 0.0)
    u, h = rng.uniform(0.5, 2.0, N_l), rng.uniform(0.5, 2.0, n)
    m, mbar = solver.compute_means(rng.standard_normal((k, n)), X, ds.sample_sum, ds.n_samples)
    work = np.empty((2, n, n))
    P = solver.update_P(X, ds.gram, S, W, u, h, m, mbar, hp, work)
    assert np.array_equal(P, solver.update_P(X, ds.gram, S, W, u, h, m, mbar, hp))
    assert traced_peak(solver.update_P, X, ds.gram, S, W, u, h, m, mbar, hp, work) < n * n


def analysis_inputs(rng, n=6, N_l=9, k=3):
    """A class block, its codes, weights, diagonals and code means for
    analysis_system, the dataset's complement making up the Gram matrix."""
    ds = random_dataset(rng, (N_l, 5), n)
    X = ds.class_matrix(1)
    S = np.abs(rng.standard_normal((k, N_l)))
    W = rng.standard_normal((N_l, N_l))
    np.fill_diagonal(W, 0.0)
    u, h = rng.uniform(0.5, 2.0, N_l), rng.uniform(0.5, 2.0, n)
    m, mbar = solver.compute_means(rng.standard_normal((k, n)), X, ds.sample_sum, ds.n_samples)
    return ds, X, S, W, u, h, m, mbar


def test_alpha0_analysis_system_reads_no_gram_matrix(rng):
    # at alpha = 0 the system is exactly X_l C X_l' + tau I: a G full of NaN
    # is never read (0 NaN would be NaN)
    hp = Hyperparams(alpha=0.0, beta=0.2, lam=0.05, atoms_per_class=3)
    ds, X, S, W, u, h, m, mbar = analysis_inputs(rng)
    N_l = X.shape[1]
    E = np.eye(N_l) - W
    C = 2.0 * hp.beta * (E @ E.T)
    C[np.diag_indices(N_l)] += 4.0 * u + 2.0 * hp.lam * (N_l - 1)
    A_ref = X @ C @ X.T
    A_ref[np.diag_indices(len(X))] += hp.tau
    A, B = solver.analysis_system(X, np.full_like(ds.gram, np.nan), S, W, u, h, m, mbar, hp)
    assert np.array_equal(A, A_ref)
    assert np.array_equal(B, solver.analysis_system(X, ds.gram, S, W, u, h, m, mbar, hp)[1])


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_beta0_analysis_system_reads_no_weights(rng, alpha):
    # at beta = 0, C is diagonal: a W_l full of NaN is never read, and A is
    # exactly X_l C X_l' plus the Gram and h terms (tau I at alpha = 0)
    hp = Hyperparams(alpha=alpha, beta=0.0, lam=0.05, atoms_per_class=3)
    ds, X, S, W, u, h, m, mbar = analysis_inputs(rng)
    N_l, s = X.shape[1], 2.0 * alpha or 1.0
    A_ref = X @ np.diag((4.0 * u + (2.0 * hp.lam * (N_l - 1) - 2.0 * alpha)) / s) @ X.T
    if alpha:
        A_ref += ds.gram
    A_ref[np.diag_indices(len(X))] += 2.0 * h if alpha else hp.tau
    A, _ = solver.analysis_system(X, ds.gram, S, np.full_like(W, np.nan), u, h, m, mbar, hp)
    assert np.array_equal(A, A_ref)


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


def test_update_S_surrogate_monotone():
    # gradcheck's code oracle on the instances of seeds 0 to 9
    _, ok, detail = code_oracle(np.random.default_rng(seed) for seed in range(10))
    assert ok, detail


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


def test_update_W_matches_numerical_minimizer(rng):
    # gradcheck's minimizer oracle: the exact minimizer on diag(W) = 0 against the descent reference
    X, P = rng.uniform(0.5, 1.5, (4, 3)), rng.standard_normal((2, 4))
    assert np.all(np.diag(solver.update_W(X, P)) == 0.0)
    _, ok, detail = weight_oracles(X, P)[1]
    assert ok, detail


def test_update_W_stationarity_via_numeric_gradient(rng):
    # gradcheck's stationarity oracle: the constrained optimum of the weight term on diag(W) = 0
    _, ok, detail = weight_oracles(rng.uniform(0.5, 1.5, (4, 3)), rng.standard_normal((2, 4)))[0]
    assert ok, detail


# --- objectives --------------------------------------------------------------

def one_class_state(x, d, p, s, w):
    ds = partition_by_class(np.array([[float(x)]]), np.array([1]))
    blocks = [np.array([[float(b)]]) for b in (d, p, s, w)]
    return ds, [ClassState(*blocks, np.ones(1), np.ones(1), np.ones(1))]


def test_objective_relaxed_hand_case():
    ds, states = one_class_state(x=2.0, d=1.0, p=0.0, s=0.0, w=0.0)
    hp = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, atoms_per_class=1)
    assert objective_relaxed(ds, states, hp) == 2.0


def test_objective_relaxed_zero_residual():
    ds, states = one_class_state(x=2.0, d=1.0, p=1.0, s=2.0, w=0.0)
    hp = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, atoms_per_class=1)
    assert objective_relaxed(ds, states, hp) == 0.0


def test_objective_model_hand_case():
    ds, states = one_class_state(x=2.0, d=1.0, p=0.5, s=1.0, w=0.0)
    hp = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, atoms_per_class=1)
    assert objective_model(ds, states, hp) == 1.0


def test_objective_model_perfect_reconstruction():
    # D P acts as the identity on the class data: zero objective
    ds, states = one_class_state(x=2.0, d=1.0, p=1.0, s=2.0, w=0.0)
    hp = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, atoms_per_class=1)
    assert objective_model(ds, states, hp) == 0.0


def reference_objective(ds, states, hp, relaxed, surrogate=False):
    """Term-by-term recomputation with explicit loops over rows and classes.
    With surrogate (relaxed only), row i of each row-sum norm term counts
    2 w_i ||row i||^2, w being the record's diagonal for that term."""
    def l21(R, w=None):
        if surrogate:
            return sum(2.0 * w[i] * np.sum(R[i] ** 2) for i in range(R.shape[0]))
        return sum(np.sqrt(np.sum(R[i] ** 2)) for i in range(R.shape[0]))

    total = 0.0
    for l in range(1, ds.n_classes + 1):
        X = ds.class_matrix(l)
        Xbar = ds.complement_matrix(l)
        st = states[l - 1]
        D, P, W = st.D, st.P, st.W
        N = X.shape[1]
        PX = P @ X
        if relaxed:
            S = st.S
            total += l21(X.T - S.T @ D.T, st.v) + l21(S.T - X.T @ P.T, st.u)
        else:
            total += l21(X.T - X.T @ P.T @ D.T)
        total += hp.alpha * (np.sum((P @ Xbar) ** 2) + l21(P.T, st.h))
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
    D = [rng.standard_normal((5, k)) for _ in range(2)]
    P = [rng.standard_normal((k, 5)) for _ in range(2)]
    S = [np.abs(rng.standard_normal((k, 4))) for _ in range(2)]
    W = []
    for _ in range(2):
        W_l = rng.standard_normal((4, 4))
        np.fill_diagonal(W_l, 0.0)
        W.append(W_l)
    ones = np.ones(5), np.ones(4), np.ones(4)
    return ds, [ClassState(*blocks, *ones) for blocks in zip(D, P, S, W)]


def test_objectives_match_reference(rng):
    ds, states = random_two_class_state(rng)
    hp = Hyperparams(alpha=0.3, beta=0.2, lam=0.05, atoms_per_class=3)
    got = objective_relaxed(ds, states, hp)
    want = reference_objective(ds, states, hp, relaxed=True)
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))
    model = objective_model(ds, states, hp)
    want = reference_objective(ds, states, hp, relaxed=False)
    assert abs(model - want) < 1e-12 * max(1.0, abs(want))
    for st in states:
        st.S = 3.0 * st.S
        st.h, st.u, st.v = rng.uniform(0.5, 2.0, 5), rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4)
    # the model objective is formed with the others' terms, which read S and
    # the diagonals, but depends on neither
    assert objective_model(ds, states, hp) == model
    got = surrogate_relaxed(ds, states, hp)
    want = reference_objective(ds, states, hp, relaxed=True, surrogate=True)
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))


# --- numeric gradient --------------------------------------------------------

def test_numeric_gradient_quadratic():
    # gradcheck's quadratic oracle
    _, ok, detail = gradient_oracles(np.array([[1.0, 2.0]]))[0]
    assert ok, detail


def test_numeric_gradient_linear():
    # gradcheck's linear oracle
    _, ok, detail = gradient_oracles(np.array([[1.0, -3.0], [0.5, 2.0]]))[1]
    assert ok, detail


def test_numeric_gradient_bad_step():
    with pytest.raises(ValueError):
        numeric_gradient(lambda A: 0.0, np.zeros((1, 1)), 0.0)


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


def test_train_checks_every_analysis_and_synthesis_solve(standard_split, standard_hp, monkeypatch):
    # every P and D update, of every class and iteration, goes through the one
    # checked solve, at alpha > 0 and at alpha = 0, where the analysis
    # system carries the tau ridge (X_l C X_l' alone is rank-deficient)
    train_ds, _ = standard_split
    checked_solve, solves = solver._checked_solve, []
    monkeypatch.setattr(
        solver, "_checked_solve", lambda A, B, what, *work: solves.append(what) or checked_solve(A, B, what, *work)
    )
    for hp in (standard_hp, dataclasses.replace(standard_hp, alpha=0.0, max_iter=10, tol=1e-12)):
        solves.clear()
        iterations = train(train_ds, hp)[3].iterations_run
        assert iterations >= 1
        assert len(solves) == 2 * train_ds.n_classes * iterations
        assert solves.count("analysis") == solves.count("synthesis")


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("data", ["standard", "corrupt"])
def test_train_presets_pass_the_solve_check(request, preset, data):
    # on this data the analysis systems of ar, pie, scene15 and yaleb reach cond(A)
    # of 1e11-1.2e12; every solve must still pass the backward-error check
    train_ds, _ = request.getfixturevalue(f"{data}_split")
    alpha, beta, lam = PRESETS[preset]
    base = STANDARD_HP if data == "standard" else CORRUPT_HP
    hp = Hyperparams(**{**base, "alpha": alpha, "beta": beta, "lam": lam})
    history = train(train_ds, hp)[3]
    assert history.iterations_run >= 1


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("data", ["standard", "corrupt"])
def test_analysis_systems_of_every_preset_are_positive_definite(request, monkeypatch, preset, data):
    # the premise that lets alpha > 0 solve the analysis system without the
    # tau ridge: every analysis system train builds has a positive smallest
    # eigenvalue, by more than the n eps ||A||_2 an eigensolver can be off
    # (pie comes closest, near 8e-13 ||A||_2 at n = 20)
    train_ds, _ = request.getfixturevalue(f"{data}_split")
    alpha, beta, lam = PRESETS[preset]
    base = STANDARD_HP if data == "standard" else CORRUPT_HP
    hp = Hyperparams(**{**base, "alpha": alpha, "beta": beta, "lam": lam})
    analysis_system, worst = solver.analysis_system, []

    def recorded(*args):
        A, B = analysis_system(*args)
        eigenvalues = np.linalg.eigvalsh(A)
        worst.append(eigenvalues[0] / (len(A) * np.finfo(float).eps * eigenvalues[-1]))
        return A, B

    monkeypatch.setattr(solver, "analysis_system", recorded)
    history = train(train_ds, hp)[3]
    assert len(worst) == train_ds.n_classes * history.iterations_run
    assert min(worst) > 1.0


def test_solve_check_accepts_backward_stable_solves_at_high_condition():
    # three noisy 3-dimensional subspaces of R^20 at alpha = 1e-3 give analysis
    # systems conditioned past 1e8, whose backward-stable solves leave residuals
    # above 1e-8 ||B||: only a bound scaled by ||Y|| ||A|| accepts them
    rng = np.random.default_rng(9)
    blocks = []
    for _ in range(3):
        basis = np.linalg.qr(rng.standard_normal((20, 3)))[0]
        blocks.append(basis @ rng.standard_normal((3, 25)) + 0.1 * rng.standard_normal((20, 25)))
    ds = partition_by_class(np.hstack(blocks), np.repeat([1, 2, 3], 25))
    train_ds, _ = split(ds, 15, 109)
    hp = Hyperparams(alpha=1e-3, beta=0.0, lam=0.0, atoms_per_class=3, seed=4)
    assert train(train_ds, hp, mode="frobenius")[3].iterations_run >= 1


def test_update_P_and_update_D_factorize_once(standard_split, standard_hp, monkeypatch):
    # each update is one factorization of its system: one dposv call where the
    # kernel resolves, one LU solve where it does not, and never a
    # np.linalg.cholesky
    train_ds, _ = standard_split
    assert standard_hp.alpha > 0
    st = init_state(train_ds, standard_hp)[0]
    X_l = train_ds.class_matrix(1)
    m, mbar = solver.compute_means(st.P, X_l, train_ds.sample_sum, train_ds.n_samples)
    n, k = X_l.shape[0], st.S.shape[0]
    solve, cholesky, calls, factored = np.linalg.solve, np.linalg.cholesky, [], []
    monkeypatch.setattr(np.linalg, "solve", lambda A, B: calls.append(("lu", A.shape)) or solve(A, B))
    monkeypatch.setattr(np.linalg, "cholesky", lambda A: factored.append(A.shape) or cholesky(A))
    for posv in solve_kernels():
        path = "lu" if posv is None else "dposv"
        counted = None if posv is None else lambda F, Y, posv=posv: calls.append(("dposv", F.shape)) or posv(F, Y)
        monkeypatch.setattr(solver, "_dposv", lambda counted=counted: counted)
        calls.clear()
        solver.update_P(X_l, train_ds.gram, st.S, st.W, st.u, st.h, m, mbar, standard_hp)
        assert factored == [] and calls == [(path, (n, n))]
        calls.clear()
        solver.update_D(X_l, st.S, st.v, standard_hp.tau)
        assert factored == [] and calls == [(path, (k, k))]


def test_train_catches_inaccurate_solves(standard_split, standard_hp, monkeypatch):
    # every solve off by 1e-3 relative leaves a residual near 1e-3 relative
    train_ds, _ = standard_split
    hp = dataclasses.replace(standard_hp, max_iter=2)
    X_l = train_ds.class_matrix(1)
    S_l = np.abs(np.random.default_rng(0).standard_normal((2, X_l.shape[1])))
    v = np.ones(X_l.shape[1])
    for posv in solve_kernels():
        inject_solve_fault(monkeypatch, posv, lambda shape, X: X * (1.0 + 1e-3))
        with pytest.raises(solver.NumericalError, match="analysis solve residual"):
            train(train_ds, hp)
        with pytest.raises(solver.NumericalError, match="synthesis solve residual"):
            solver.update_D(X_l, S_l, v, 1e-6)


def test_train_checks_the_synthesis_solve(standard_split, standard_hp, monkeypatch):
    # only the k x k synthesis solves are off by 1e-3 relative; the n x n
    # analysis systems have another size
    train_ds, _ = standard_split
    k, n = standard_hp.atoms_per_class, train_ds.n_features
    assert k != n
    for posv in solve_kernels():
        inject_solve_fault(monkeypatch, posv, lambda shape, X: X * (1.0 + 1e-3) if shape == (k, k) else X)
        with pytest.raises(solver.NumericalError, match="synthesis solve residual"):
            train(train_ds, dataclasses.replace(standard_hp, max_iter=2))


@pytest.mark.parametrize("fault, messages", [
    (lambda shape, X: np.full(X.shape, np.nan), ("solve residual nan exceeds",) * 2),
    (lambda shape, X: None, ("system not positive definite", "system singular")),
], ids=["nan-result", "singular"])
def test_failed_solve_raises_naming_it(standard_split, standard_hp, monkeypatch, fault, messages):
    # a NaN residual fails the check (NaN > bound is False), and a failed
    # factorization is wrapped, as not positive definite by the Cholesky
    # kernel and as singular by the LU; each names the solve
    train_ds, _ = standard_split
    st = init_state(train_ds, standard_hp)[0]
    X_l = train_ds.class_matrix(1)
    m, mbar = solver.compute_means(st.P, X_l, train_ds.sample_sum, train_ds.n_samples)
    for posv in solve_kernels():
        message = messages[posv is None]
        inject_solve_fault(monkeypatch, posv, fault)
        with pytest.raises(solver.NumericalError, match=f"analysis {message}"):
            solver.update_P(X_l, train_ds.gram, st.S, st.W, st.u, st.h, m, mbar, standard_hp)
        with pytest.raises(solver.NumericalError, match=f"synthesis {message}"):
            solver.update_D(X_l, st.S, st.v, standard_hp.tau)


def symmetric_indefinite(rng, n):
    """A symmetric nonsingular n x n matrix with eigenvalues of both signs."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigenvalues = np.linspace(1.0, 2.0, n) * np.where(np.arange(n) % 2, -1.0, 1.0)
    A = (Q * eigenvalues) @ Q.T
    return (A + A.T) / 2.0


def test_indefinite_system_raises_naming_the_solve(rng):
    # the Cholesky kernel refuses a system that the LU would solve; the
    # positive-definite premise is checked on every solve, not assumed
    if solver._dposv() is None:
        pytest.skip("NumPy's BLAS exports no 64-bit-integer dposv; the LU solves indefinite systems")
    A, B = symmetric_indefinite(rng, 6), rng.standard_normal((2, 6))
    for what in ("analysis", "synthesis"):
        with pytest.raises(solver.NumericalError, match=f"^{what} system not positive definite$"):
            solver._checked_solve(A, B, what)


def iterate_by_hand(ds, states, hp, mode):
    """One training iteration written out: sweep_class, then update_reweights,
    whose v is kept only in mode full."""
    for l, st in enumerate(states):
        X_l = ds.class_matrix(l + 1)
        solver.sweep_class(ds, X_l, st, hp)
        st.h, st.u, v = solver.update_reweights(solver.relaxed_row_norms(X_l, st.D, st.P, st.S), hp.tau)
        if mode == "full":
            st.v = v


def records_after(monkeypatch, ds, hp, mode, iterations):
    """The ClassState records that `iterations` iterations of train leave,
    captured through solver.init_state."""
    records = []
    monkeypatch.setattr(solver, "init_state", lambda ds, hp: records.extend(init_state(ds, hp)) or records)
    history = train(ds, dataclasses.replace(hp, max_iter=iterations, tol=1e-300), mode=mode)[3]
    assert history.iterations_run == iterations
    return records


# the 1-iteration cases keep the plain setting ids
ITERATION_SETTINGS = ["full", "beta0-lambda0", "frobenius"]


@pytest.mark.parametrize(
    "setting, iterations",
    [(setting, 1) for setting in ITERATION_SETTINGS] + [(setting, 3) for setting in ITERATION_SETTINGS],
    ids=ITERATION_SETTINGS + [f"{setting}-3-iterations" for setting in ITERATION_SETTINGS],
)
def test_train_iteration_is_sweep_class_then_reweights(standard_split, standard_hp, setting, iterations):
    # mode full at beta = lam = 0 never updates W. From iteration 2 on the
    # class step scores records whose diagonals it has refreshed before
    train_ds, _ = standard_split
    hp = dataclasses.replace(standard_hp, max_iter=iterations, tol=1e-300)
    if setting != "full":
        hp = dataclasses.replace(hp, beta=0.0, lam=0.0)
    mode = "frobenius" if setting == "frobenius" else "full"
    pair, codes, weights, history = train(train_ds, hp, mode=mode)
    assert history.iterations_run == iterations
    states = init_state(train_ds, hp)
    want = {key: [] for key in ["objective_model", "objective_relaxed"] + [f"delta_{name}" for name in "PSDW"]}
    for _ in range(iterations):
        # explicit copies, independent of the old blocks train's class step keeps
        old = {name: [getattr(st, name).copy() for st in states] for name in "PSDW"}
        iterate_by_hand(train_ds, states, hp, mode)
        for name in "PSDW":
            # C-order differences, as train takes them
            new = [getattr(st, name) for st in states]
            squared = sum(np.linalg.norm((a - b).ravel()) ** 2 for a, b in zip(old[name], new))
            want[f"delta_{name}"].append(float(np.sqrt(squared)))
        want["objective_model"].append(objective_model(train_ds, states, hp))
        want["objective_relaxed"].append(objective_relaxed(train_ds, states, hp))
    for got, name in [(pair.P, "P"), (pair.D, "D"), (codes.S, "S"), (weights.W, "W")]:
        want_blocks = [getattr(st, name) for st in states]
        assert all(np.array_equal(a, b) for a, b in zip(got, want_blocks, strict=True))
    for key, values in want.items():
        assert getattr(history, key) == values, key


@pytest.mark.parametrize("mode", ["full", "frobenius"])
def test_train_refreshes_the_diagonals_once_per_class_and_iteration(
    standard_split, standard_hp, monkeypatch, mode
):
    # the per-layer call count the benchmark tracer reports for update_reweights
    train_ds, _ = standard_split
    hp = dataclasses.replace(standard_hp, max_iter=3, tol=1e-300)
    if mode == "frobenius":
        hp = dataclasses.replace(hp, beta=0.0, lam=0.0)
    calls, update_reweights = [], solver.update_reweights
    monkeypatch.setattr(solver, "update_reweights", lambda *args: calls.append(args) or update_reweights(*args))
    history = train(train_ds, hp, mode=mode)[3]
    assert history.iterations_run == 3
    assert len(calls) == train_ds.n_classes * history.iterations_run


@pytest.mark.parametrize("mode", ["full", "frobenius"])
def test_sweep_never_writes_into_state_arrays(standard_split, standard_hp, mode):
    # train's class step keeps the replaced blocks by reference to take its
    # deltas, which holds only while every update returns a new array; a write
    # into a read-only array raises
    train_ds, _ = standard_split
    hp = standard_hp if mode == "full" else dataclasses.replace(standard_hp, beta=0.0, lam=0.0)
    states = init_state(train_ds, hp)
    for _ in range(2):
        for st in states:
            for name in "DPSWhuv":
                getattr(st, name).flags.writeable = False
        iterate_by_hand(train_ds, states, hp, mode)


def test_train_fetches_each_class_block_once_per_iteration(standard_split, standard_hp, monkeypatch):
    train_ds, _ = standard_split
    class_matrix, calls = LabeledDataset.class_matrix, []
    monkeypatch.setattr(LabeledDataset, "class_matrix", lambda ds, l: calls.append(l) or class_matrix(ds, l))
    history = train(train_ds, dataclasses.replace(standard_hp, max_iter=2, tol=1e-300))[3]
    assert history.iterations_run == 2
    c = train_ds.n_classes
    assert sorted(calls) == sorted(list(range(1, c + 1)) * 3)


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
    states = final_states(train_ds, train(train_ds, dataclasses.replace(standard_hp, max_iter=3)), standard_hp)
    assert np.isfinite(objective_model(train_ds, states, standard_hp))
    assert np.isfinite(objective_relaxed(train_ds, states, standard_hp))


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
        train(train_ds, standard_hp, mode="frobenius")
    for mode in ("reduced", "fancy"):
        with pytest.raises(ValueError, match="unknown mode"):
            train(train_ds, dataclasses.replace(standard_hp, beta=0.0, lam=0.0), mode=mode)


@pytest.mark.parametrize("mode, beta, lam", [("full", 0.01, 1e-3), ("full", 0.0, 1e-3), ("frobenius", 0.0, 0.0)])
def test_train_updates_W_exactly_when_beta_is_positive(standard_split, standard_hp, monkeypatch, mode, beta, lam):
    train_ds, _ = standard_split
    update_W, calls = solver.update_W, []
    monkeypatch.setattr(solver, "update_W", lambda X_l, P_l: calls.append(X_l.shape) or update_W(X_l, P_l))
    hp = dataclasses.replace(standard_hp, beta=beta, lam=lam, max_iter=3, tol=1e-300)
    history = train(train_ds, hp, mode=mode)[3]
    assert history.iterations_run == 3
    if beta:
        assert len(calls) == train_ds.n_classes * 3 and min(history.delta_W) > 0.0
    else:
        assert calls == [] and history.delta_W == [0.0] * 3


def test_frobenius_training_keeps_v_at_identity(standard_split, standard_hp, monkeypatch):
    # the sweep and surrogate_relaxed read the record's v; mode frobenius never
    # refreshes it, so it stays init_state's identity, while h and u move
    train_ds, _ = standard_split
    hp = dataclasses.replace(standard_hp, beta=0.0, lam=0.0)
    for st in records_after(monkeypatch, train_ds, hp, "frobenius", 3):
        assert np.array_equal(st.v, np.ones(st.v.shape))
        assert not np.array_equal(st.u, np.ones(st.u.shape))


# --- frozen-diagonal sweep ---------------------------------------------------

@pytest.mark.parametrize("sweeps", range(1, 6))
def test_P_and_W_steps_never_raise_the_surrogate(corrupt_split, corrupt_hp, monkeypatch, sweeps):
    # after a few training iterations D and P have signed entries; one more
    # sweep, stepped through under frozen diagonals, must not let the P step (an
    # exact block minimizer at lam = 0) or the W step raise the surrogate. In
    # mode frobenius (beta = 0, v held at identity) W is not updated, and the
    # S and D steps can raise the surrogate, so only the P step is checked
    train_ds, _ = corrupt_split
    for mode, beta in [("full", corrupt_hp.beta), ("frobenius", 0.0)]:
        hp = dataclasses.replace(corrupt_hp, beta=beta, lam=0.0)
        states = records_after(monkeypatch, train_ds, hp, mode, sweeps)
        rises = []

        def rise(before):
            after = surrogate_relaxed(train_ds, states, hp)
            rises.append((after - before) / abs(before))

        for l, st in enumerate(states):
            X_l = train_ds.class_matrix(l + 1)
            m, mbar = solver.compute_means(st.P, X_l, train_ds.sample_sum, train_ds.n_samples)
            before = surrogate_relaxed(train_ds, states, hp)
            st.P = solver.update_P(X_l, train_ds.gram, st.S, st.W, st.u, st.h, m, mbar, hp)
            rise(before)
            st.S = solver.update_S(X_l, st.D, st.P, st.S, st.u, st.v, hp.tau)
            st.D = solver.update_D(X_l, st.S, st.v, hp.tau)
            if hp.beta:
                before = surrogate_relaxed(train_ds, states, hp)
                st.W = solver.update_W(X_l, st.P)
                rise(before)
        assert max(rises) <= 1e-10, (mode, rises)


# --- class-parallel training -------------------------------------------------

def train_at(monkeypatch, workers, *args, **kwargs):
    """train with the class-worker count forced to min(c, workers)."""
    monkeypatch.setattr(solver, "_worker_count", lambda c: min(c, workers))
    return train(*args, **kwargs)


def same_training(a, b) -> bool:
    """Every block byte-equal and every TrainHistory field equal."""
    (pa, ca, wa, ha), (pb, cb, wb, hb) = a, b
    blocks = [(pa.D, pb.D), (pa.P, pb.P), (ca.S, cb.S), (wa.W, wb.W)]
    return dataclasses.asdict(ha) == dataclasses.asdict(hb) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for xs, ys in blocks for x, y in zip(xs, ys, strict=True)
    )


@pytest.mark.parametrize("setting", sorted(PRESETS) + ["alpha0", "beta0-lambda0", "frobenius"])
@pytest.mark.parametrize("data", ["standard", "corrupt"])
def test_train_is_bitwise_equal_at_1_and_3_workers(request, monkeypatch, setting, data):
    # alpha0 is the one setting whose analysis systems carry the tau ridge
    train_ds, _ = request.getfixturevalue(f"{data}_split")
    base = STANDARD_HP if data == "standard" else CORRUPT_HP
    settings = {**PRESETS, "alpha0": (0.0, base["beta"], base["lam"])}
    alpha, beta, lam = settings.get(setting, (base["alpha"], 0.0, 0.0))
    hp = Hyperparams(**{**base, "alpha": alpha, "beta": beta, "lam": lam})
    mode = "frobenius" if setting == "frobenius" else "full"
    threads = threading.active_count()
    # on both solve paths: NumPy's dposv where it resolves, and the LU
    for posv in solve_kernels():
        monkeypatch.setattr(solver, "_dposv", lambda posv=posv: posv)
        serial = train_at(monkeypatch, 1, train_ds, hp, mode=mode)
        parallel = train_at(monkeypatch, 3, train_ds, hp, mode=mode)
        assert threading.active_count() == threads
        assert same_training(serial, parallel)


@pytest.mark.parametrize("data", ["standard", "corrupt"])
def test_objectives_are_bitwise_equal_at_1_and_3_workers(request, monkeypatch, data):
    # each objective's class loop runs on the class workers and adds the
    # terms up in class order
    train_ds, _ = request.getfixturevalue(f"{data}_split")
    hp = Hyperparams(**(STANDARD_HP if data == "standard" else CORRUPT_HP))
    states = final_states(train_ds, train(train_ds, dataclasses.replace(hp, max_iter=3)), hp)
    threads = threading.active_count()
    for objective in (objective_model, objective_relaxed, surrogate_relaxed):
        values = []
        for workers in (1, 3):
            monkeypatch.setattr(solver, "_worker_count", lambda c, workers=workers: min(c, workers))
            values.append(objective(train_ds, states, hp))
        assert threading.active_count() == threads
        assert values[0] == values[1], objective.__name__


@pytest.mark.parametrize("workers", [1, 3])
def test_train_raises_the_error_of_the_lowest_failing_class(monkeypatch, workers):
    # class 2 fails after class 3 has failed, as seen by the clock; train
    # still raises class 2's error, as the serial loop does
    ds = make_synthetic(4, 12, 10, 0.1, 0.0, 5)
    hp = Hyperparams(alpha=1.0, beta=0.01, lam=1e-3, atoms_per_class=2, seed=3)
    update_P = solver.update_P

    def failing(X_l, *args):
        label = next(l for l in range(1, 5) if np.array_equal(X_l, ds.class_matrix(l)))
        if label == 2:
            time.sleep(0.05)
        if label in (2, 3):
            raise solver.NumericalError(f"class {label} failed")
        return update_P(X_l, *args)

    monkeypatch.setattr(solver, "update_P", failing)
    threads = threading.active_count()
    with pytest.raises(solver.NumericalError, match="^class 2 failed$"):
        train_at(monkeypatch, workers, ds, hp)
    assert threading.active_count() == threads


def test_map_classes_runs_each_class_once_under_contention(monkeypatch):
    # more workers than cores, switching threads every microsecond: a class
    # taken twice or lost shows in the calls and the results
    monkeypatch.setattr(solver, "_worker_count", lambda c: 8)
    calls = []

    def step(l):
        calls.append(l)
        return l * l

    out, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: out.append(solver._map_classes(step, 2000)))
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert out == [[l * l for l in range(2000)]]
    assert sorted(calls) == list(range(2000))


def test_train_at_one_worker_starts_no_thread(standard_split, standard_hp, monkeypatch):
    def refuse(thread):
        raise AssertionError("a thread was started")

    train_ds, _ = standard_split
    monkeypatch.setattr(threading.Thread, "start", refuse)
    train_at(monkeypatch, 1, train_ds, dataclasses.replace(standard_hp, max_iter=2))


def test_train_caches_gram_and_sample_sum_before_helpers_start(monkeypatch):
    # lam = 0: the initial objective reads the Gram matrix but not the sample sum
    ds = make_synthetic(3, 12, 10, 0.1, 0.0, 5)
    hp = Hyperparams(alpha=1.0, beta=0.01, lam=0.0, atoms_per_class=2, seed=3, max_iter=2)
    start, cached = threading.Thread.start, []
    monkeypatch.setattr(threading.Thread, "start", lambda t: cached.append(vars(ds).keys() >= {"gram", "sample_sum"}) or start(t))
    train_at(monkeypatch, 3, ds, hp)
    # 2 helpers for the initial objective and for each of the 2 iterations
    assert cached == [True] * 6


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_count_under(monkeypatch, blas, env, cpus, c):
    """_worker_count(c) with NumPy reporting BLAS blas, only the variables in
    env set, and cpus CPUs, both as sched_getaffinity and as cpu_count give
    them; the two must agree."""
    monkeypatch.setattr(solver, "_linked_blas", lambda: blas)
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    by_affinity = solver._worker_count(c)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert solver._worker_count(c) == by_affinity
    return by_affinity


@pytest.mark.parametrize(
    "env, cpus, c, want",
    [
        ({}, 4, 38, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 38, 4),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 3, 3),
        ({"OMP_NUM_THREADS": "2"}, 4, 38, 2),
        ({"GOTO_NUM_THREADS": "1"}, 2, 38, 2),
        # OpenBLAS ignores MKL's variable, so it still runs at full width
        ({"MKL_NUM_THREADS": "1"}, 2, 38, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 4, 38, 2),
        ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 4, 38, 1),
        ({"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4, 38, 1),
        ({"OPENBLAS_NUM_THREADS": "8"}, 4, 38, 1),
    ],
)
def test_worker_count_divides_the_cpus_by_the_openblas_threads(monkeypatch, env, cpus, c, want):
    assert worker_count_under(monkeypatch, "scipy-openblas", env, cpus, c) == want


@pytest.mark.parametrize("blas", ["mkl", "accelerate", ""])
def test_worker_count_is_1_where_the_blas_threads_cannot_be_told(monkeypatch, blas):
    env = {var: "1" for var in BLAS_THREAD_VARS}
    assert worker_count_under(monkeypatch, blas, env, 4, 38) == 1


def test_linked_blas_is_empty_where_numpy_does_not_report_it(monkeypatch):
    monkeypatch.setattr(np, "show_config", lambda: None)
    assert solver._linked_blas() == ""


def test_dposv_resolves_only_where_numpy_links_openblas(monkeypatch):
    monkeypatch.setattr(solver, "_linked_blas", lambda: "accelerate")
    assert solver._dposv.__wrapped__() is None


@pytest.mark.parametrize("F, Y", [
    (np.asfortranarray(np.eye(3) + 1.0), np.ones((2, 3))),
    (np.eye(3), np.ones((3, 2))),
    (np.eye(3, dtype=np.float32), np.ones((2, 3))),
], ids=["fortran-order", "n-by-k", "float32"])
def test_dposv_refuses_arrays_it_would_misread(F, Y):
    # the kernel reads raw memory: a layout, shape or type it does not
    # expect is refused before the call, and nothing is written
    posv = solver._dposv()
    if posv is None:
        pytest.skip("NumPy's BLAS exports no 64-bit-integer dposv")
    before = F.copy(), Y.copy()
    with pytest.raises(ValueError, match="dposv needs writable C-order float64"):
        posv(F, Y)
    assert np.array_equal(F, before[0]) and np.array_equal(Y, before[1])


# --- per-worker workspaces ---------------------------------------------------

WORKSPACE_HP = Hyperparams(alpha=1.0, beta=0.01, lam=1e-3, atoms_per_class=2, max_iter=3, tol=1e-300, seed=3)


def workspace_run(n):
    """Arrays of a 3-iteration train on a 3-class set in n dimensions: every
    block, then every TrainHistory list."""
    pair, codes, weights, history = train(make_synthetic(3, n, 12, 0.1, 0.0, 5), WORKSPACE_HP)
    lists = [getattr(history, f.name) for f in dataclasses.fields(history) if isinstance(getattr(history, f.name), list)]
    return [*pair.D, *pair.P, *codes.S, *weights.W, *map(np.array, lists)]


def test_train_runs_in_one_process_as_each_run_alone(tmp_path):
    # n = 20, 64, 20 in this process, each against the same train run alone
    # in a fresh one: a workspace of another run, or of another size, leaves
    # no trace in the blocks or the history
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(solver.__file__).parents[1]), str(here)])}
    alone = {}
    for n in (20, 64):
        out = tmp_path / f"alone_{n}.npz"
        code = f"import numpy as np, test_solver as t; np.savez({str(out)!r}, *t.workspace_run({n}))"
        subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, check=True, timeout=300)
        with np.load(out) as arrays:
            alone[n] = [arrays[f"arr_{i}"] for i in range(len(arrays.files))]
    for n in (20, 64, 20):
        got = workspace_run(n)
        assert len(got) == len(alone[n])
        assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, alone[n]))


def test_train_holds_no_workspace_once_it_returns():
    # a 200-dimensional set: one n x n float64 buffer is 320 kB, far above
    # the 3 classes' blocks (about 21 kB) that the result holds
    n = 200
    ds = make_synthetic(3, n, 8, 0.1, 0.0, 1)
    _ = ds.gram, ds.sample_sum, solver._dposv()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        result = train(ds, dataclasses.replace(WORKSPACE_HP, max_iter=2))
        held, peak = (value - baseline for value in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert result[3].iterations_run == 2
    assert peak >= 2 * 8 * n * n
    assert held < 8 * n * n
