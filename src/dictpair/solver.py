"""Alternating-minimization engine for the dictionary-pair model.

The model objective per class l (all norms over real matrices) is

    ||X_l' - X_l' P_l' D_l'||_21
      + alpha * (||P_l Xbar_l||_F^2 + ||P_l'||_21)
      + beta  * (||X_l - X_l W_l||_F^2 + ||P_l X_l - P_l X_l W_l||_F^2 + ||W_l||_F^2)
      + lam   * (||P_l X_l - m 1'||_F^2 - N_l ||P_l X_l - mbar 1'||_F^2)

subject to columns of D_l summing to one and diag(W_l) = 0, where ||R||_21 sums
the Euclidean norms of the rows of R (' denotes transpose), Xbar_l holds the
N - N_l samples of the other classes, and the code means m and mbar are the
mean columns of P_l X_l and P_l Xbar_l (mbar = 0 when c = 1). The relaxed
objective splits the reconstruction through explicit nonnegative codes S_l:

    ||X_l' - S_l' D_l'||_21 + ||S_l' - X_l' P_l'||_21  (+ the same penalties)

Gram form: the complement Xbar_l is never formed. It enters only through the
Gram matrix G = X X' and the sample sum x = X 1 of the whole dataset, both
computed once per dataset (``LabeledDataset.gram`` and ``.sample_sum``):

    Xbar_l Xbar_l'      = G - X_l X_l'
    mbar                = P_l (x - X_l 1) / (N - N_l)
    ||P_l Xbar_l||_F^2  = sum((P_l G - (P_l X_l) X_l') * P_l)   (entrywise)

Row-sum norms are handled by iterative reweighting: a row of norm r carries a
weight 1/(2r + tau), which turns each ||.||_21 term into a weighted quadratic.
One training iteration runs, for each class in order, sweep_class under the
current diagonals: code means from the current P_l, analysis block P_l (n x n
linear solve, see analysis_system), codes S_l (multiplicative rule),
synthesis block D_l (ridge solve + column-sum normalization) and the
reconstruction weights W_l (linear solve + diagonal zeroing); then it
refreshes that class's three reweighting diagonals. The loop stops when the
model objective changes by less than tol between consecutive sweeps.

Numerical guards: the analysis system A is checked by a Cholesky
factorization A = L L', and tau*I is added to A only when the factorization
fails or (min L_ii / max L_ii)^2 < 1/COND_GUARD; TrainHistory.tau_regularized
counts those solves. A non-finite A, and a non-finite objective in train,
raise NumericalError.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset
from .model import (
    CodingState,
    DictionaryPair,
    Hyperparams,
    ReweightState,
    WeightState,
    init_state,
)

# tau*I is added to the analysis system when (min L_ii / max L_ii)^2 of its
# Cholesky factor falls below 1/COND_GUARD
COND_GUARD = 1e12
# |column sum| below which a synthesis atom falls back to the uniform column
SUM_FLOOR = 1e-10


class NumericalError(RuntimeError):
    """A linear system remained unsolvable after tau-regularization, or the
    maths produced a non-finite value."""


@dataclass
class TrainHistory:
    """Per-iteration objective values, iterate deltas, and the stopping outcome.

    tau_regularized counts the analysis solves that had tau*I added to their
    system (see analysis_system).
    """

    objective_model: list[float] = field(default_factory=list)
    objective_relaxed: list[float] = field(default_factory=list)
    delta_P: list[float] = field(default_factory=list)
    delta_S: list[float] = field(default_factory=list)
    delta_D: list[float] = field(default_factory=list)
    delta_W: list[float] = field(default_factory=list)
    iterations_run: int = 0
    converged: bool = False
    tau_regularized: int = 0


def smoothed_row_norms(R: np.ndarray, tau: float) -> np.ndarray:
    """Per-row 2*||row||_2 + tau; strictly positive for tau > 0."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    return 2.0 * np.sqrt(np.sum(R * R, axis=1)) + tau


def row_norm_sum(R: np.ndarray) -> float:
    """Unsmoothed ||R||_21: the sum of Euclidean row norms."""
    return float(np.sum(np.sqrt(np.sum(R * R, axis=1))))


def compute_means(
    P_l: np.ndarray, X_l: np.ndarray, x: np.ndarray, N: int
) -> tuple[np.ndarray, np.ndarray]:
    """Code means m = mean column of P_l X_l and mbar = mean column of
    P_l Xbar_l, each a length-k_l vector.

    x is the sum of all N dataset columns (class l included), so the
    complement sum is x - X_l 1. With a single class (N = N_l) the complement
    is empty and mbar is zero.
    """
    N_l = X_l.shape[1]
    class_sum = X_l.sum(axis=1)
    m = P_l @ class_sum / N_l
    if N == N_l:
        return m, np.zeros_like(m)
    return m, P_l @ (x - class_sum) / (N - N_l)


def update_reweights(
    X_l: np.ndarray, D_l: np.ndarray, P_l: np.ndarray, S_l: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Refresh the three reweighting diagonals from the current blocks.

    h_i = 1 / (2||column i of P_l|| + tau)            (length n)
    u_i = 1 / (2||row i of S_l' - X_l' P_l'|| + tau)  (length N_l)
    v_i = 1 / (2||row i of X_l' - S_l' D_l'|| + tau)  (length N_l)
    """
    h = 1.0 / smoothed_row_norms(P_l.T, tau)
    u = 1.0 / smoothed_row_norms(S_l.T - X_l.T @ P_l.T, tau)
    v = 1.0 / smoothed_row_norms(X_l.T - S_l.T @ D_l.T, tau)
    return h, u, v


def _solve_right(A: np.ndarray, B: np.ndarray, check: str | None = None) -> np.ndarray:
    """Solve Y A = B with one step of iterative refinement. With check set, the
    residual is verified at 1e-8 relative; a NumericalError names the check."""
    Y = np.linalg.solve(A.T, B.T).T
    R = B - Y @ A
    Y += np.linalg.solve(A.T, R.T).T
    if check is not None:
        _check_solve_residual(Y, A, B, check)
    return Y


def _check_solve_residual(Y, A, B, what: str) -> None:
    res = np.linalg.norm(Y @ A - B)
    if res > 1e-8 * max(np.linalg.norm(B), np.finfo(float).tiny):
        raise NumericalError(f"{what} solve residual {res:.3e} exceeds 1e-8 relative")


def _needs_tau(A: np.ndarray) -> bool:
    """True when A has no Cholesky factor L or (min L_ii / max L_ii)^2 is
    below 1/COND_GUARD.

    The diagonal of the triangular L holds its eigenvalues, so
    (max L_ii / min L_ii)^2 is a lower bound on cond(A) = cond(L)^2: the test
    fires only on systems whose 2-norm condition number exceeds COND_GUARD,
    and costs one factorization instead of a full SVD."""
    try:
        d = np.diag(np.linalg.cholesky(A))
    except np.linalg.LinAlgError:
        return True
    return bool((d.min() / d.max()) ** 2 < 1.0 / COND_GUARD)


def analysis_system(
    X_l: np.ndarray,
    G: np.ndarray,
    S_l: np.ndarray,
    W_l: np.ndarray,
    u: np.ndarray,
    h: np.ndarray,
    m: np.ndarray,
    mbar: np.ndarray,
    hp: Hyperparams,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """System matrix, right-hand side and guard flag of the analysis update P_l A = B.

    In Gram form, with G = X X' over the whole dataset and Q = (I - W_l)(I - W_l)':

    A = 2 alpha G + X_l C X_l' + 4 alpha diag(h)
    C = 4 diag(u) + beta (Q + Q') + (2 lam (N_l - 1) - 2 alpha) I
    B = 4 (S_l U) X_l' + 2 lam (m - N_l mbar)(X_l 1)'

    This is the explicit-complement system A = 4 X_l U X_l' + 2 alpha Xbar_l Xbar_l'
    + 4 alpha diag(h) + beta X_l (Q + Q') X_l' + 2 lam (N_l - 1) X_l X_l',
    B = 4 S_l U X_l' + 2 lam (M_l - N_l Mbar_l) X_l' with the replicated means
    M_l = m 1', Mbar_l = mbar 1', rewritten through Xbar_l Xbar_l' = G - X_l X_l'.

    Guard: A is factorized by Cholesky; tau*I is added only when that fails or
    (min L_ii / max L_ii)^2 < 1/COND_GUARD, and the returned flag says whether
    it was. A non-finite A raises NumericalError.
    """
    n, N_l = X_l.shape
    E = np.eye(N_l) - W_l
    Q = E @ E.T
    C = hp.beta * (Q + Q.T)
    C[np.diag_indices(N_l)] += 4.0 * u + (2.0 * hp.lam * (N_l - 1) - 2.0 * hp.alpha)
    A = 2.0 * hp.alpha * G + (X_l @ C) @ X_l.T
    A[np.diag_indices(n)] += 4.0 * hp.alpha * h
    B = 4.0 * (S_l * u) @ X_l.T + np.outer(2.0 * hp.lam * (m - N_l * mbar), X_l.sum(axis=1))
    if not np.all(np.isfinite(A)):
        raise NumericalError("analysis system has non-finite entries")
    regularized = _needs_tau(A)
    if regularized:
        A[np.diag_indices(n)] += hp.tau
    return A, B, regularized


def update_P(
    X_l: np.ndarray,
    G: np.ndarray,
    S_l: np.ndarray,
    W_l: np.ndarray,
    u: np.ndarray,
    h: np.ndarray,
    m: np.ndarray,
    mbar: np.ndarray,
    hp: Hyperparams,
    self_check: bool = False,
) -> tuple[np.ndarray, bool]:
    """Closed-form analysis update P_l = B @ inv(A); see analysis_system.

    Returns P_l and whether tau*I was added to A; m, mbar are the code means
    of the P_l being replaced. self_check verifies the solve residual.
    """
    A, B, regularized = analysis_system(X_l, G, S_l, W_l, u, h, m, mbar, hp)
    try:
        return _solve_right(A, B, "analysis" if self_check else None), regularized
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"analysis system singular (tau-regularized: {'yes' if regularized else 'no'})"
        ) from exc


def update_S(
    X_l: np.ndarray,
    D_l: np.ndarray,
    P_l: np.ndarray,
    S_l: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    tau: float,
) -> np.ndarray:
    """Multiplicative code update; preserves entrywise nonnegativity.

    s <- s * (D_l' X_l V + P_l X_l U) / (D_l' D_l S_l V + S_l U), clamping
    negative numerator entries to 0 and flooring the denominator at tau.
    """
    num = (D_l.T @ X_l) * v + (P_l @ X_l) * u
    den = (D_l.T @ D_l @ S_l) * v + S_l * u
    np.maximum(num, 0.0, out=num)
    np.maximum(den, tau, out=den)
    return S_l * num / den


def solve_synthesis(
    X_l: np.ndarray, S_l: np.ndarray, v: np.ndarray, tau: float, self_check: bool = False
) -> np.ndarray:
    """Ridge solve for the synthesis block, before column normalization:
    D_l = (X_l V S_l') (S_l V S_l' + tau I)^-1; self_check verifies the residual."""
    k = S_l.shape[0]
    B = (X_l * v) @ S_l.T
    A = (S_l * v) @ S_l.T + tau * np.eye(k)
    return _solve_right(A, B, "synthesis" if self_check else None)


def _normalize_columns(D_l: np.ndarray, n: int) -> np.ndarray:
    """Scale each column to sum one; columns whose sum magnitude falls below
    1e-10 become the uniform column (every entry 1/n) instead of dividing by
    a vanishing sum."""
    sums = D_l.sum(axis=0)
    degenerate = np.abs(sums) < SUM_FLOOR
    return np.where(degenerate[None, :], 1.0 / n, D_l / np.where(degenerate, 1.0, sums)[None, :])


def update_D(
    X_l: np.ndarray, S_l: np.ndarray, v: np.ndarray, tau: float, self_check: bool = False
) -> np.ndarray:
    """Synthesis update: ridge solve, then column-sum normalization."""
    return _normalize_columns(solve_synthesis(X_l, S_l, v, tau, self_check), X_l.shape[0])


def update_W(X_l: np.ndarray, P_l: np.ndarray) -> np.ndarray:
    """Reconstruction-weight update: W_l = (G + I)^-1 G with zeroed diagonal,
    G = X_l' X_l + X_l' P_l' P_l X_l. G + I is symmetric positive definite."""
    PX = P_l @ X_l
    G = X_l.T @ X_l + PX.T @ PX
    W_l = np.linalg.solve(G + np.eye(G.shape[0]), G)
    np.fill_diagonal(W_l, 0.0)
    return W_l


def sweep_class(
    ds: LabeledDataset,
    l: int,
    pair: DictionaryPair,
    codes: CodingState,
    weights: WeightState,
    rw: ReweightState,
    hp: Hyperparams,
    mode: str = "full",
    self_check: bool = False,
) -> bool:
    """Update P_l (from the code means of the current P_l), S_l, D_l and, in
    mode "full" only, W_l of class l (0-based) in place, under the diagonals
    in rw, which are not refreshed; see train for mode and self_check. Returns
    whether tau*I was added to the analysis system."""
    X_l = ds.class_matrix(l + 1)
    m, mbar = compute_means(pair.P[l], X_l, ds.sample_sum, ds.n_samples)
    pair.P[l], regularized = update_P(
        X_l, ds.gram, codes.S[l], weights.W[l], rw.u[l], rw.h[l], m, mbar, hp, self_check
    )
    v = np.ones_like(rw.v[l]) if mode == "frobenius" else rw.v[l]
    codes.S[l] = update_S(X_l, pair.D[l], pair.P[l], codes.S[l], rw.u[l], v, hp.tau)
    pair.D[l] = update_D(X_l, codes.S[l], v, hp.tau, self_check)
    if mode == "full":
        weights.W[l] = update_W(X_l, pair.P[l])
    return regularized


def _class_blocks(ds: LabeledDataset) -> list[np.ndarray]:
    return [ds.class_matrix(l) for l in range(1, ds.n_classes + 1)]


def _penalties(ds: LabeledDataset, X_l, P_l, W_l, hp: Hyperparams) -> float:
    """The terms every objective shares: alpha * ||P_l Xbar_l||_F^2 (in Gram
    form) and the beta (locality) and lam (code-discrimination) penalties."""
    PX = P_l @ X_l
    total = hp.alpha * float(np.sum((P_l @ ds.gram - PX @ X_l.T) * P_l))
    if hp.beta:
        total += hp.beta * (
            np.linalg.norm(X_l - X_l @ W_l) ** 2
            + np.linalg.norm(PX - PX @ W_l) ** 2
            + np.linalg.norm(W_l) ** 2
        )
    if hp.lam:
        N_l = X_l.shape[1]
        m, mbar = compute_means(P_l, X_l, ds.sample_sum, ds.n_samples)
        total += hp.lam * (
            np.linalg.norm(PX - m[:, None]) ** 2 - N_l * np.linalg.norm(PX - mbar[:, None]) ** 2
        )
    return total


def objective_relaxed(
    ds: LabeledDataset,
    pair: DictionaryPair,
    codes: CodingState,
    weights: WeightState,
    hp: Hyperparams,
) -> float:
    """Relaxed objective with explicit codes; row-sum norms unsmoothed."""
    total = 0.0
    for X_l, D_l, P_l, S_l, W_l in zip(_class_blocks(ds), pair.D, pair.P, codes.S, weights.W):
        total += row_norm_sum(X_l.T - S_l.T @ D_l.T)
        total += row_norm_sum(S_l.T - X_l.T @ P_l.T)
        total += hp.alpha * row_norm_sum(P_l.T)
        total += _penalties(ds, X_l, P_l, W_l, hp)
    return total


def objective_model(
    ds: LabeledDataset, pair: DictionaryPair, weights: WeightState, hp: Hyperparams
) -> float:
    """Model objective with codes eliminated (reconstruction through P then D)."""
    total = 0.0
    for X_l, D_l, P_l, W_l in zip(_class_blocks(ds), pair.D, pair.P, weights.W):
        total += row_norm_sum(X_l.T - X_l.T @ P_l.T @ D_l.T)
        total += hp.alpha * row_norm_sum(P_l.T)
        total += _penalties(ds, X_l, P_l, W_l, hp)
    return total


def surrogate_relaxed(
    ds: LabeledDataset,
    pair: DictionaryPair,
    codes: CodingState,
    weights: WeightState,
    rw: ReweightState,
    hp: Hyperparams,
) -> float:
    """Relaxed objective with every row-sum norm replaced by its weighted
    quadratic (trace) form under the given diagonals; a sweep run with frozen
    diagonals is expected not to increase this quantity."""
    total = 0.0
    for X_l, D_l, P_l, S_l, W_l, h, u, v in zip(
        _class_blocks(ds), pair.D, pair.P, codes.S, weights.W, rw.h, rw.u, rw.v
    ):
        R1 = X_l - D_l @ S_l
        R2 = S_l - P_l @ X_l
        total += 2.0 * float(np.sum((R1 * R1) * v))
        total += 2.0 * float(np.sum((R2 * R2) * u))
        total += hp.alpha * 2.0 * float(np.sum((P_l * P_l) * h))
        total += _penalties(ds, X_l, P_l, W_l, hp)
    return total


def numeric_gradient(f, M: np.ndarray, h: float) -> np.ndarray:
    """Entrywise central-difference gradient of a scalar matrix function."""
    if h <= 0:
        raise ValueError("step h must be > 0")
    G = np.zeros_like(M, dtype=float)
    it = np.nditer(M, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        Mp = M.copy()
        Mp[idx] += h
        Mm = M.copy()
        Mm[idx] -= h
        G[idx] = (f(Mp) - f(Mm)) / (2.0 * h)
    return G


def _assembled_delta(old: list[np.ndarray], new: list[np.ndarray]) -> float:
    return float(np.sqrt(sum(np.linalg.norm(a - b) ** 2 for a, b in zip(old, new))))


def _finite(value: float, what: str) -> float:
    if not np.isfinite(value):
        raise NumericalError(f"{what} is not finite ({value})")
    return value


def train(
    ds: LabeledDataset,
    hp: Hyperparams,
    mode: str = "full",
    self_check: bool = False,
) -> tuple[DictionaryPair, CodingState, WeightState, TrainHistory]:
    """Run the alternating-minimization loop: each iteration runs sweep_class
    and then update_reweights for every class in order.

    mode "full" runs every update; "reduced" requires beta = lam = 0 and skips
    the W updates (they no longer enter the objective); "frobenius" is reduced
    mode with the synthesis-fit reweighting v held at identity, turning the
    robust reconstruction term into a plain least-squares fit. With self_check
    on, the linear-solve residuals of the P and D updates are verified at
    1e-8 relative every iteration. Raises NumericalError as soon as the model
    or relaxed objective is not finite.
    """
    if mode not in ("full", "reduced", "frobenius"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode in ("reduced", "frobenius") and (hp.beta != 0.0 or hp.lam != 0.0):
        raise ValueError(f"mode {mode!r} requires beta = 0 and lam = 0")

    pair, codes, weights, rw = init_state(ds, hp)
    history = TrainHistory()
    prev_obj = _finite(objective_model(ds, pair, weights, hp), "initial model objective")
    for it in range(1, hp.max_iter + 1):
        P_old = [P_l.copy() for P_l in pair.P]
        S_old = [S_l.copy() for S_l in codes.S]
        D_old = [D_l.copy() for D_l in pair.D]
        W_old = [W_l.copy() for W_l in weights.W]
        for l in range(ds.n_classes):
            history.tau_regularized += sweep_class(ds, l, pair, codes, weights, rw, hp, mode, self_check)
            X_l = ds.class_matrix(l + 1)
            rw.h[l], rw.u[l], rw.v[l] = update_reweights(X_l, pair.D[l], pair.P[l], codes.S[l], hp.tau)
        obj = _finite(objective_model(ds, pair, weights, hp), f"model objective at iteration {it}")
        relaxed = objective_relaxed(ds, pair, codes, weights, hp)
        history.objective_model.append(obj)
        history.objective_relaxed.append(_finite(relaxed, f"relaxed objective at iteration {it}"))
        history.delta_P.append(_assembled_delta(P_old, pair.P))
        history.delta_S.append(_assembled_delta(S_old, codes.S))
        history.delta_D.append(_assembled_delta(D_old, pair.D))
        history.delta_W.append(_assembled_delta(W_old, weights.W))
        history.iterations_run += 1
        if abs(obj - prev_obj) < hp.tol:
            history.converged = True
            break
        prev_obj = obj
    return pair, codes, weights, history
