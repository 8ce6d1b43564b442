"""Correctness checks the benchmark applies to every operation it times.

An operation is one ``train``, ``evaluate``, ``classify_sample`` or load
call. ``Ops`` counts them; an operation fails when it raises or when one of
the checks below finds a problem, and ``error_rate`` is failed / attempted.
"""

import sys

import numpy as np

# Column sums of each D_l must equal one within this absolute tolerance.
COLUMN_SUM_TOL = 1e-10
# classify_sample may disagree with the batched reference only where the two
# candidate residuals tie to this relative precision: the reference sums in a
# different order, so a true tie can break either way.
TIE_RTOL = 1e-9


class Ops:
    """Attempted and failed operation counts, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.failed += n
        if len(self.reasons) < 20:
            self.reasons.append(reason)
            print(f"check failed: {reason}", file=sys.stderr)

    def merge(self, attempted: int, failed: int, reasons: list[str]) -> None:
        """Add the counts of another process, which has printed its own reasons."""
        self.attempted += attempted
        self.failed += failed
        self.reasons.extend(reasons[: max(0, 20 - len(self.reasons))])

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def trained_problems(pair, codes, weights, history) -> list[str]:
    """Invariants of a trained model: S_l >= 0, diag(W_l) = 0, unit column
    sums of D_l, and finite objectives in every iteration."""
    problems = []
    for l, (D_l, S_l, W_l) in enumerate(zip(pair.D, codes.S, weights.W), start=1):
        if np.any(S_l < 0):
            problems.append(f"class {l}: S_l has negative entries")
        if np.any(np.diag(W_l) != 0):
            problems.append(f"class {l}: diag(W_l) is not zero")
        err = float(np.max(np.abs(D_l.sum(axis=0) - 1.0)))
        if not err <= COLUMN_SUM_TOL:
            problems.append(f"class {l}: D_l column sums off by {err:.3e}")
    objectives = history.objective_model + history.objective_relaxed
    if not objectives or not np.all(np.isfinite(objectives)):
        problems.append("an objective value is not finite")
    return problems


def reference_residuals(Y: np.ndarray, pair) -> np.ndarray:
    """c x N matrix of ||y - D_l P_l y||_2, one batched product per class."""
    return np.stack([np.linalg.norm(Y - D_l @ (P_l @ Y), axis=0) for D_l, P_l in zip(pair.D, pair.P)])


def prediction_mismatches(predicted: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Indices where a 1-based prediction is not the reference argmin, ties excepted."""
    ref = np.argmin(residuals, axis=0)
    cols = np.arange(residuals.shape[1])
    r_pred = residuals[predicted - 1, cols]
    r_ref = residuals[ref, cols]
    tie = np.abs(r_pred - r_ref) <= TIE_RTOL * np.maximum(r_ref, np.finfo(float).tiny)
    return np.flatnonzero((predicted - 1 != ref) & ~tie)


def confusion(labels: np.ndarray, predicted: np.ndarray, c: int) -> np.ndarray:
    out = np.zeros((c, c), dtype=int)
    np.add.at(out, (labels - 1, predicted - 1), 1)
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: stricter than ==, as it tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_model(a, b) -> bool:
    return len(a.D) == len(b.D) and all(
        same_bits(x, y) for x, y in zip(a.D + a.P, b.D + b.P)
    )
