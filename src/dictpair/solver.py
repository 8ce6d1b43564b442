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
Classes do not interact during training: class l's updates read only its own
model.ClassState record (D_l, P_l, S_l, W_l and the diagonals h, u, v), the
Gram matrix and the sample sum. One training iteration maps one class step
(_class_step) over the records. The step runs sweep_class under the current
diagonals: code means from the current P_l, analysis block P_l (n x n linear
solve, see analysis_system), codes S_l (multiplicative rule), synthesis block
D_l (ridge solve + column-sum normalization) and, when beta > 0, weights W_l
(the exact minimizer of the weight term on diag(W_l) = 0, one N_l x N_l
inverse; see update_W). It then forms the row norms of the relaxed problem's
three l2,1 terms once (relaxed_row_norms), refreshes the diagonals from them
(update_reweights; v only in mode "full") and returns the class's squared
block changes and its terms of the model and relaxed objectives. One function,
_class_terms, writes every per-class term once: from the class block and its
relaxed_row_norms it forms the penalties once and returns the model, relaxed
and surrogate tuples. objective_model, objective_relaxed and surrogate_relaxed
are each one call of the one class loop (_score), which selects its tuple. The
loop stops when the model objective changes by less than tol between
consecutive sweeps.

Class parallelism: the calling thread and _worker_count() - 1 helper threads
run the class steps, each taking the lowest class not yet taken; the count is
min(c, cpus // BLAS threads) where NumPy links OpenBLAS and 1 otherwise, so
with BLAS unpinned, or of unknown kind, no thread is started. train adds the
returned figures up in class order, one term at a time, as the serial loop
does, so every block and every TrainHistory field is bitwise the same for any
worker count. No helper outlives an iteration. classify.class_residuals
runs the fixed column blocks of a wide test matrix through the same
_map_classes on _worker_count(blocks) threads; each block writes its own
columns of the result, so residuals too are bitwise the same for any count,
and no helper outlives the call.

What a sweep decreases: surrogate_relaxed, under frozen diagonals. There a row
of norm r with diagonal entry w = 1/(2 r0 + tau) (r0: its norm at the last
refresh) counts 2 w r^2, which majorizes 2 (r - (tau/2) log(2r + tau)) up to a
constant, with equality at r = r0. So sweeps whose steps do not raise the
surrogate decrease 2 x (the smoothed l2,1 terms) + (the penalties). The P step
(at lam = 0) and the W step minimize it over their block; the S and D steps
are not exact block minimizers.

Numerical guards: every analysis and synthesis system is solved by one
Cholesky factorization, LAPACK dposv from the OpenBLAS NumPy has loaded
(_dposv), in place in a copy of A; where no such kernel resolves (NumPy not
linked to OpenBLAS, or not to its 64-bit-integer build) by one LU
factorization (np.linalg.solve) instead. No dependency beyond NumPy is used.
Every solve is verified on every run (_checked_solve): ||A|| is taken first,
and a non-finite norm raises NumericalError ("<what> system has non-finite
entries"), so a non-finite system is named where it is solved. A system that
is not positive definite (Cholesky) or singular (LU), or a residual
||Y A - B|| above n eps (||Y|| ||A|| + ||B||), n the order of A (NaN too),
against the A that was built, raises NumericalError naming the solve. The
analysis system is built divided by 2 alpha (see analysis_system), which
leaves P_l, and the check's ratio of residual to bound, as they are. For
alpha > 0 it is positive definite: its 2 diag(h) term is, and every other
term is semidefinite. So it is solved as built. At alpha = 0 it has no Gram
or h term and is X_l C X_l', of rank at most N_l, so tau*I is always added to
it, as solve_synthesis always adds tau*I to the synthesis system. There the P
step minimizes the surrogate plus (tau/2) ||P_l||_F^2, as the D step, before
its column normalization, minimizes its fit term plus 2 tau ||D_l||_F^2 (the
scales follow from the surrogate's 2 w r^2 rows). A non-finite objective in
train raises NumericalError as well.

Workspace: train allocates one 2 x n x n buffer per class worker and no other
n x n array. A class step takes one for its P step: analysis_system writes
X_l C X_l' into its slot 0 and adds the cached G and the diagonal there, and
_checked_solve factors a copy of A in slot 1; the step returns it when it
ends. So a step allocates no n x n array, and no buffer outlives train.
Called without one, update_P and analysis_system allocate their own, with
bitwise the same result.
"""

import ctypes
import functools
import os
import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset
from .model import ClassState, CodingState, DictionaryPair, Hyperparams, WeightState, init_state

# |column sum| below which a synthesis atom falls back to the uniform column
SUM_FLOOR = 1e-10


class NumericalError(RuntimeError):
    """A linear system was singular or its solve failed the residual check,
    or the maths produced a non-finite value."""


@dataclass
class TrainHistory:
    """Per-iteration objective values, iterate deltas, and the stopping outcome."""

    objective_model: list[float] = field(default_factory=list)
    objective_relaxed: list[float] = field(default_factory=list)
    delta_P: list[float] = field(default_factory=list)
    delta_S: list[float] = field(default_factory=list)
    delta_D: list[float] = field(default_factory=list)
    delta_W: list[float] = field(default_factory=list)
    iterations_run: int = 0
    converged: bool = False


def row_norms(R: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of R; their sum is ||R||_21."""
    return np.sqrt(np.sum(R * R, axis=1))


def relaxed_row_norms(X_l: np.ndarray, D_l: np.ndarray, P_l: np.ndarray, S_l: np.ndarray) -> tuple:
    """Row norms of P_l', S_l' - X_l' P_l' and X_l' - S_l' D_l': the relaxed
    problem's three l2,1 terms, in the order of their diagonals h, u, v."""
    return row_norms(P_l.T), row_norms(S_l.T - X_l.T @ P_l.T), row_norms(X_l.T - S_l.T @ D_l.T)


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


def update_reweights(norms: tuple, tau: float) -> tuple:
    """The reweighting diagonals (h, u, v) from relaxed_row_norms: a row of
    norm r gets 1 / (2 r + tau), that is

    h_i = 1 / (2||column i of P_l|| + tau)            (length n)
    u_i = 1 / (2||row i of S_l' - X_l' P_l'|| + tau)  (length N_l)
    v_i = 1 / (2||row i of X_l' - S_l' D_l'|| + tau)  (length N_l)
    """
    return tuple(1.0 / (2.0 * r + tau) for r in norms)


# LAPACK names of the Cholesky solve whose integers are known to be 64-bit:
# NumPy 2 wheels' scipy-openblas, then an OpenBLAS built with INTERFACE64
DPOSV_SYMBOLS = ("scipy_dposv_64_", "dposv_64_")


def _bind_posv(kernel):
    """posv(F, Y) -> info around the ctypes function `kernel`, an ILP64
    dposv. F (n x n) and Y (k x n) are C-order float64 arrays: F is factored
    in place, and Y, read as LAPACK's Fortran n x k right-hand side, is
    overwritten by the solution Z of Z F = Y (F symmetric, its upper triangle
    read). info > 0 means a pivot was not positive."""
    int_p = ctypes.POINTER(ctypes.c_int64)
    # the trailing size_t is the hidden length of the uplo string
    kernel.argtypes = [ctypes.c_char_p, int_p, int_p, ctypes.c_void_p, int_p, ctypes.c_void_p, int_p, int_p,
                       ctypes.c_size_t]
    kernel.restype = None

    def posv(F: np.ndarray, Y: np.ndarray) -> int:
        n, k = len(F), len(Y)
        for M, shape in ((F, (n, n)), (Y, (k, n))):
            if M.shape != shape or M.dtype != np.float64 or not (M.flags.c_contiguous and M.flags.writeable):
                raise ValueError(f"dposv needs writable C-order float64 F (n x n) and Y (k x n), "
                                 f"got F {F.shape} and Y {Y.shape}")
        order, rhs, info = ctypes.c_int64(n), ctypes.c_int64(k), ctypes.c_int64(0)
        kernel(b"L", order, rhs, F.ctypes.data, order, Y.ctypes.data, order, info, 1)
        return info.value

    return posv


@functools.cache
def _dposv():
    """_bind_posv of the first DPOSV_SYMBOLS name exported by an OpenBLAS
    library mapped into this process, the one NumPy loaded, or None: where
    NumPy does not link OpenBLAS, where the mapped libraries cannot be listed
    (/proc/self/maps, Linux only), or where no name resolves, as in an
    OpenBLAS with 32-bit integers, whose dposv_ this never calls. Resolved
    once per process."""
    if "openblas" not in _linked_blas():
        return None
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            mapped = {fields[5].strip() for fields in map(str.split, fh) if len(fields) == 6}
    except OSError:
        return None
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in DPOSV_SYMBOLS:
            kernel = getattr(lib, name, None)
            if kernel is not None:
                return _bind_posv(kernel)
    return None


def _checked_solve(A: np.ndarray, B: np.ndarray, what: str, work: np.ndarray | None = None) -> np.ndarray:
    """Solve Y A = B, A symmetric positive definite, and verify it. ||A||_F is
    taken first; a non-finite norm raises NumericalError("<what> system has
    non-finite entries"). Where _dposv resolves, A is copied into `work` (an
    n x n float64 C-order array, or a new one) and factored there by
    Cholesky, and a C-order copy of B, already the Fortran n x k right-hand
    side, is overwritten by Y; a pivot that is not positive raises
    NumericalError("<what> system not positive definite"). Otherwise Y comes
    from one LU factorization (np.linalg.solve), and a singular system raises
    NumericalError("<what> system singular"). Then a residual ||Y A - B||
    above n eps (||Y|| ||A|| + ||B||) for A of order n (NaN included),
    against the A that was built, raises a NumericalError naming the `what`
    solve. That is the normwise backward-error test (Higham, Accuracy and
    Stability of Numerical Algorithms, 7.1), which backward-stable solves
    pass at any cond(A)."""
    norm_A = np.linalg.norm(A)
    if not np.isfinite(norm_A):
        raise NumericalError(f"{what} system has non-finite entries")
    posv = _dposv()
    if posv is None:
        try:
            Y = np.linalg.solve(A.T, B.T).T
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"{what} system singular") from exc
    else:
        F = np.empty(A.shape) if work is None else work
        np.copyto(F, A)
        Y = np.array(B, dtype=np.float64, order="C")
        if posv(F, Y) > 0:
            raise NumericalError(f"{what} system not positive definite")
    res = np.linalg.norm(Y @ A - B)
    bound = A.shape[0] * np.finfo(float).eps * (np.linalg.norm(Y) * norm_A + np.linalg.norm(B))
    if not res <= bound:
        raise NumericalError(f"{what} solve residual {res:.3e} exceeds n eps (||Y|| ||A|| + ||B||) = {bound:.3e}")
    return Y


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
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """System matrix and right-hand side of the analysis update P_l A = B.

    In Gram form, with G = X X' over the whole dataset, E = I - W_l and the
    scale s = 2 alpha (s = 1 at alpha = 0):

    A = X_l C X_l' + G + 2 diag(h)
    C = [2 beta E E' + diag(4 u + 2 lam (N_l - 1) - 2 alpha)] / s
    B = [4 (S_l U) X_l' + 2 lam (m - N_l mbar)(X_l 1)'] / s

    This is the explicit-complement system A = 4 X_l U X_l' + 2 alpha Xbar_l Xbar_l'
    + 4 alpha diag(h) + beta X_l (Q + Q') X_l' + 2 lam (N_l - 1) X_l X_l',
    B = 4 S_l U X_l' + 2 lam (M_l - N_l Mbar_l) X_l' with Q = E E' and the
    replicated means M_l = m 1', Mbar_l = mbar 1', rewritten through
    Xbar_l Xbar_l' = G - X_l X_l' and divided by s, which leaves P_l as it is
    and lets A read G as cached. At alpha = 0, where s = 1, the system is
    bitwise that of the undivided form: NumPy forms E E' by syrk, so it is
    exactly symmetric, and 2 beta E E' is beta (Q + Q') to the bit.

    For alpha > 0, A is positive definite and (A, B) is returned as built.
    At alpha = 0 there is no Gram or h term, G is not read, and
    (X_l C X_l' + tau I, B) is returned: the ridge of solve_synthesis, added
    whatever the conditioning of X_l C X_l'. At beta = 0 the E E' term is
    zero, so C is diagonal and W_l is not read. A is written into `out` (an
    n x n float64 array, see train) where one is given, with bitwise the
    same result.
    """
    n, N_l = X_l.shape
    s = 2.0 * hp.alpha or 1.0
    c = (4.0 * u + (2.0 * hp.lam * (N_l - 1) - 2.0 * hp.alpha)) / s
    if hp.beta:
        E = np.eye(N_l) - W_l
        C = 2.0 * hp.beta / s * (E @ E.T)
        C[np.diag_indices(N_l)] += c
        XC = X_l @ C
    else:
        XC = X_l * c
    A = np.matmul(XC, X_l.T, out=out)
    if hp.alpha:
        A += G
    A[np.diag_indices(n)] += 2.0 * h if hp.alpha else hp.tau
    B = (4.0 / s) * (S_l * u) @ X_l.T + np.outer(2.0 * hp.lam / s * (m - N_l * mbar), X_l.sum(axis=1))
    return A, B


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
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Closed-form analysis update P_l = B @ inv(A); see analysis_system
    (at alpha = 0, A carries tau I). Given a 2 x n x n buffer `work` (see
    train), A is built in work[0], and _checked_solve factors a copy of it in
    work[1]; the system is solved and verified by _checked_solve, which checks
    P_l against the A analysis_system built. m, mbar are the code means of
    the P_l being replaced.
    """
    A, B = analysis_system(X_l, G, S_l, W_l, u, h, m, mbar, hp, None if work is None else work[0])
    return _checked_solve(A, B, "analysis", None if work is None else work[1])


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


def solve_synthesis(X_l: np.ndarray, S_l: np.ndarray, v: np.ndarray, tau: float) -> np.ndarray:
    """Ridge solve for the synthesis block, before column normalization:
    D_l = (X_l V S_l') (S_l V S_l' + tau I)^-1, solved and verified by
    _checked_solve."""
    k = S_l.shape[0]
    B = (X_l * v) @ S_l.T
    A = (S_l * v) @ S_l.T + tau * np.eye(k)
    return _checked_solve(A, B, "synthesis")


def _normalize_columns(D_l: np.ndarray, n: int) -> np.ndarray:
    """Scale each column to sum one; columns whose sum magnitude falls below
    1e-10 become the uniform column (every entry 1/n) instead of dividing by
    a vanishing sum."""
    sums = D_l.sum(axis=0)
    degenerate = np.abs(sums) < SUM_FLOOR
    return np.where(degenerate[None, :], 1.0 / n, D_l / np.where(degenerate, 1.0, sums)[None, :])


def update_D(X_l: np.ndarray, S_l: np.ndarray, v: np.ndarray, tau: float) -> np.ndarray:
    """Synthesis update: ridge solve, then column-sum normalization."""
    return _normalize_columns(solve_synthesis(X_l, S_l, v, tau), X_l.shape[0])


def update_W(X_l: np.ndarray, P_l: np.ndarray) -> np.ndarray:
    """Reconstruction-weight update: the minimizer of weight_term(X_l, P_l, W)
    on diag(W) = 0. With M = X_l' X_l + (P_l X_l)' P_l X_l + I and G = M - I,
    stationarity off the diagonal gives W = M^-1 G - M^-1 diag(mu),
    mu_j = (M^-1 G)_jj / (M^-1)_jj, which is I - M^-1 with each column divided
    by its diagonal entry; that entry is x / x = 1, so diag(W) is exactly 0.0."""
    PX = P_l @ X_l
    N_l = X_l.shape[1]
    M_inv = np.linalg.inv(X_l.T @ X_l + PX.T @ PX + np.eye(N_l))
    return np.eye(N_l) - M_inv / np.diag(M_inv)


def sweep_class(
    ds: LabeledDataset, X_l: np.ndarray, st: ClassState, hp: Hyperparams, work: np.ndarray | None = None
) -> None:
    """Rebind st.P (from the code means of the current P_l), st.S, st.D and,
    when beta > 0 (at beta = 0 nothing reads W), st.W of the class whose block
    is X_l to their updates under the diagonals st.h, st.u, st.v, which are
    not refreshed. The P and D solves are verified (_checked_solve); the D
    system always carries tau I, the P system only at alpha = 0. The P step
    runs in the 2 x n x n buffer `work` where one is given (see update_P
    and train)."""
    m, mbar = compute_means(st.P, X_l, ds.sample_sum, ds.n_samples)
    st.P = update_P(X_l, ds.gram, st.S, st.W, st.u, st.h, m, mbar, hp, work)
    st.S = update_S(X_l, st.D, st.P, st.S, st.u, st.v, hp.tau)
    st.D = update_D(X_l, st.S, st.v, hp.tau)
    if hp.beta:
        st.W = update_W(X_l, st.P)


def weight_term(X_l: np.ndarray, P_l: np.ndarray, W_l: np.ndarray) -> float:
    """The locality term that beta weights:
    ||X_l - X_l W_l||_F^2 + ||P_l X_l - P_l X_l W_l||_F^2 + ||W_l||_F^2."""
    PX = P_l @ X_l
    return (
        np.linalg.norm(X_l - X_l @ W_l) ** 2
        + np.linalg.norm(PX - PX @ W_l) ** 2
        + np.linalg.norm(W_l) ** 2
    )


def _class_terms(ds: LabeledDataset, X_l: np.ndarray, st: ClassState, hp: Hyperparams, norms: tuple) -> tuple:
    """Class l's term tuples of the model, relaxed and surrogate objectives,
    each in the order its objective adds them up, from the class block X_l
    and its relaxed_row_norms: the fit through P then D (model), or the
    synthesis and analysis fits (relaxed and, a row of norm r with diagonal
    entry w counting 2 w r^2, surrogate); then alpha * ||P_l'||_21, and last
    the penalties all three share: alpha * ||P_l Xbar_l||_F^2 (in Gram form)
    and the beta (weight_term) and lam (code-discrimination) terms. Only the
    surrogate tuple reads the diagonals, and only it and the relaxed tuple S_l."""
    r_h, r_u, r_v = norms
    PX = st.P @ X_l
    penalties = hp.alpha * float(np.sum((st.P @ ds.gram - PX @ X_l.T) * st.P))
    if hp.beta:
        penalties += hp.beta * weight_term(X_l, st.P, st.W)
    if hp.lam:
        N_l = X_l.shape[1]
        m, mbar = compute_means(st.P, X_l, ds.sample_sum, ds.n_samples)
        penalties += hp.lam * (
            np.linalg.norm(PX - m[:, None]) ** 2 - N_l * np.linalg.norm(PX - mbar[:, None]) ** 2
        )
    sparsity = hp.alpha * float(np.sum(r_h))
    model = float(np.sum(row_norms(X_l.T - X_l.T @ st.P.T @ st.D.T))), sparsity, penalties
    relaxed = float(np.sum(r_v)), float(np.sum(r_u)), sparsity, penalties
    surrogate = (
        2.0 * float(np.sum(st.v * r_v**2)),
        2.0 * float(np.sum(st.u * r_u**2)),
        hp.alpha * 2.0 * float(np.sum(st.h * r_h**2)),
        penalties,
    )
    return model, relaxed, surrogate


def _add_up(terms) -> float:
    """Sum of an iterable of per-class term tuples, added one term at a time
    in class order, so every caller gets the same rounding."""
    total = 0.0
    for class_terms in terms:
        for term in class_terms:
            total += term
    return total


def _score(ds: LabeledDataset, states: list[ClassState], hp: Hyperparams, which: int) -> float:
    """_add_up of tuple `which` of _class_terms (0 model, 1 relaxed, 2
    surrogate) over the records in class order, each class's block
    ds.class_matrix(l + 1) and its relaxed_row_norms formed once; the one
    class loop of every objective. The classes run on _map_classes, and the
    terms are still added in class order, so the value is bitwise the same
    for any worker count."""

    def terms(l):
        X_l, st = ds.class_matrix(l + 1), states[l]
        return _class_terms(ds, X_l, st, hp, relaxed_row_norms(X_l, st.D, st.P, st.S))[which]

    # filled before any helper starts, as in train
    _ = ds.gram, ds.sample_sum
    return _add_up(_map_classes(terms, len(states)))


def objective_relaxed(ds: LabeledDataset, states: list[ClassState], hp: Hyperparams) -> float:
    """Relaxed objective with explicit codes; row-sum norms unsmoothed."""
    return _score(ds, states, hp, 1)


def objective_model(ds: LabeledDataset, states: list[ClassState], hp: Hyperparams) -> float:
    """Model objective with codes eliminated (reconstruction through P then D).
    The records' S and diagonals are read, for the other objectives' terms
    that _class_terms forms alongside, but do not change the value."""
    return _score(ds, states, hp, 0)


def surrogate_relaxed(ds: LabeledDataset, states: list[ClassState], hp: Hyperparams) -> float:
    """Relaxed objective with every row-sum norm replaced by its weighted
    quadratic (trace) form under the records' diagonals, the surrogate tuple
    of _class_terms: a row of norm r with diagonal entry w contributes
    2 w r^2 (see the module docstring for what that majorizes). A sweep run
    with frozen diagonals is expected not to increase this quantity; the P
    step at lam = 0 and the W step (exact on diag(W_l) = 0) minimize it over
    their block."""
    return _score(ds, states, hp, 2)


def _finite(value: float, what: str) -> float:
    if not np.isfinite(value):
        raise NumericalError(f"{what} is not finite ({value})")
    return value


def _linked_blas() -> str:
    """Name of the BLAS NumPy was built against, in lower case, or "" where
    this NumPy does not report it."""
    try:
        return np.show_config("dicts")["Build Dependencies"]["blas"]["name"].lower()
    except (TypeError, KeyError, AttributeError):
        return ""


def _worker_count(c: int) -> int:
    """Threads that sweep the c classes in train, or the c column blocks in
    classify.class_residuals: min(c, cpus // blas_threads), at least 1. cpus
    is the CPUs this process may run on. blas_threads is read only where
    NumPy links OpenBLAS: the first positive value of the variables OpenBLAS
    itself honours, in its order (OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS,
    OMP_NUM_THREADS), or else cpus. Any other BLAS, whose thread count cannot
    be told here, gets 1 worker, as does unpinned OpenBLAS, so class threads
    never compete with BLAS threads for the cores."""
    if "openblas" not in _linked_blas():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    blas_threads = cpus
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            blas_threads = value
            break
    return min(c, max(1, cpus // blas_threads))


def _map_classes(step, c: int) -> list:
    """[step(l) for l in range(c)], run by the calling thread and
    _worker_count(c) - 1 helper threads, each taking the lowest class not yet
    taken. Once a step raises, no further class is taken; every helper is
    joined before this returns or raises, and the error of the lowest failed
    class is raised, as the serial loop would have raised it (the classes below
    it were all taken, so they all ran). At 1 worker no thread is started and
    the calling thread runs the classes in order."""
    todo, results, failed, stop = queue.SimpleQueue(), [None] * c, {}, threading.Event()
    for l in range(c):
        todo.put(l)

    def work():
        while not stop.is_set():
            try:
                l = todo.get_nowait()
            except queue.Empty:
                return
            try:
                results[l] = step(l)
            except Exception as exc:
                failed[l] = exc
                stop.set()

    helpers = [threading.Thread(target=work, name=f"dictpair-class-{i}") for i in range(1, _worker_count(c))]
    try:
        for t in helpers:
            t.start()
        work()
    finally:
        stop.set()
        for t in helpers:
            if t.ident is not None:
                t.join()
    if failed:
        raise failed[min(failed)]
    return results


def _class_step(ds: LabeledDataset, l: int, st: ClassState, hp: Hyperparams, mode: str, workspaces):
    """One iteration of class l on its record: sweep_class, in a workspace
    taken from the queue `workspaces` and put back after it, update_reweights
    on the new blocks' relaxed_row_norms (in mode "frobenius" st.v is not
    refreshed and keeps init_state's identity), then the squared changes of P,
    S, D, W and the class's model and relaxed tuples of _class_terms, taken on
    the new blocks and their norms. Returns (squared changes, terms)."""
    X_l = ds.class_matrix(l + 1)
    old = (st.P, st.S, st.D, st.W)
    work = workspaces.get()
    try:
        sweep_class(ds, X_l, st, hp, work)
    finally:
        workspaces.put(work)
    norms = relaxed_row_norms(X_l, st.D, st.P, st.S)
    st.h, st.u, v = update_reweights(norms, hp.tau)
    if mode == "full":
        st.v = v
    # each difference is taken in C order, whatever the memory order of the blocks
    squared = tuple(
        np.linalg.norm((a - b).ravel()) ** 2 for a, b in zip(old, (st.P, st.S, st.D, st.W))
    )
    return squared, _class_terms(ds, X_l, st, hp, norms)[:2]


def train(
    ds: LabeledDataset,
    hp: Hyperparams,
    mode: str = "full",
) -> tuple[DictionaryPair, CodingState, WeightState, TrainHistory]:
    """Run the alternating-minimization loop from init_state: each iteration
    runs sweep_class and then update_reweights on every class's record, the
    classes spread over _worker_count threads (see the module docstring), with
    results bitwise independent of that count. Each worker has one
    2 x n x n buffer, in which a class step builds its P system from the
    cached G and factors a copy of it; no buffer outlives the call. The
    initial model objective runs on the same threads. Returns the final
    D_l, P_l as a DictionaryPair, the S_l and W_l, and the history.

    W is updated exactly when beta > 0. mode "frobenius" requires
    beta = lam = 0 and never refreshes the synthesis-fit reweighting v, so
    every record keeps init_state's identity v, turning the robust
    reconstruction term into a plain least-squares fit.
    Raises NumericalError as soon as a P or D solve fails its residual check
    (see _checked_solve) or the model or relaxed objective is not finite.
    """
    if mode not in ("full", "frobenius"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "frobenius" and (hp.beta != 0.0 or hp.lam != 0.0):
        raise ValueError(f"mode {mode!r} requires beta = 0 and lam = 0")

    states = init_state(ds, hp)
    history = TrainHistory()
    # neither cached_property nor functools.cache takes a lock: every cache is
    # filled before any helper starts
    _ = ds.gram, ds.sample_sum, _dposv()
    # one workspace per class worker, so a running step never waits for one
    workspaces = queue.SimpleQueue()
    for _ in range(_worker_count(len(states))):
        workspaces.put(np.empty((2, ds.n_features, ds.n_features)))
    prev_obj = _finite(objective_model(ds, states, hp), "initial model objective")
    for it in range(1, hp.max_iter + 1):
        steps = _map_classes(lambda l: _class_step(ds, l, states[l], hp, mode, workspaces), len(states))
        obj = _finite(_add_up(model for _, (model, _) in steps), f"model objective at iteration {it}")
        relaxed = _add_up(relaxed for _, (_, relaxed) in steps)
        history.objective_model.append(obj)
        history.objective_relaxed.append(_finite(relaxed, f"relaxed objective at iteration {it}"))
        for i, name in enumerate("PSDW"):
            getattr(history, f"delta_{name}").append(float(np.sqrt(sum(squared[i] for squared, _ in steps))))
        history.iterations_run += 1
        if abs(obj - prev_obj) < hp.tol:
            history.converged = True
            break
        prev_obj = obj
    pair = DictionaryPair(D=[st.D for st in states], P=[st.P for st in states])
    return pair, CodingState(S=[st.S for st in states]), WeightState(W=[st.W for st in states]), history
