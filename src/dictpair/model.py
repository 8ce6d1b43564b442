"""Model state for dictionary-pair learning.

Per class l the model holds a synthesis block D_l (n x k_l, columns summing to
one after updates) and an analysis block P_l (k_l x n). Training additionally
carries nonnegative codes S_l (k_l x N_l), zero-diagonal reconstruction weights
W_l (N_l x N_l), and three positive reweighting diagonals stored as vectors:
h (length n), u and v (length N_l). During training all seven live in one
ClassState record per class (init_state returns the list of them); train hands
back D and P as a DictionaryPair, S as CodingState and W as WeightState. Only
D and P are persisted; classification needs nothing else.

Model file format (text, round-trip exact):

    RADPL v1
    c n K
    k_1 ... k_c
    alpha beta lambda tau max_iter tol seed
    D_1, P_1, ..., D_c, P_c   (each a matrix block, read and written by data.py)
"""

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import LabeledDataset, check_block, parse_tokens, read_block, read_end, write_block

MODEL_MAGIC = "RADPL v1"


@dataclass(frozen=True, kw_only=True)
class Hyperparams:
    """Training hyperparameters; alpha/beta/lam weight the sparsity, locality,
    and code-discrimination terms of the objective."""

    alpha: float = 1e-4
    beta: float = 5e-3
    lam: float = 1e-4
    tau: float = 1e-6
    atoms_per_class: int = 5
    max_iter: int = 30
    tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "beta", "lam", "tau", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("atoms_per_class", "max_iter", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.alpha < 0 or self.beta < 0 or self.lam < 0:
            raise ValueError("alpha, beta, lam must be >= 0")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.atoms_per_class < 1:
            raise ValueError("atoms_per_class must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class DictionaryPair:
    """Per-class synthesis blocks D_l and analysis blocks P_l."""

    D: list[np.ndarray]
    P: list[np.ndarray]

    @property
    def n_classes(self) -> int:
        return len(self.D)

    @property
    def n_features(self) -> int:
        return self.D[0].shape[0]

    @property
    def atoms_per_class(self) -> list[int]:
        return [D_l.shape[1] for D_l in self.D]

    def assembled(self) -> tuple[np.ndarray, np.ndarray]:
        """Full D (n x K) and stacked P (K x n), K = sum of k_l."""
        return np.concatenate(self.D, axis=1), np.concatenate(self.P, axis=0)

    def atom_classes(self) -> np.ndarray:
        """1-based class label of each atom/code row in assembled order."""
        return np.repeat(np.arange(1, self.n_classes + 1), self.atoms_per_class)

    @cached_property
    def residual_operator(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``[P; D'D P - 2D']`` (2K x n) and each class's first row, the
        operator of ``classify.class_residuals``; built on first use and cached
        (``D`` and ``P`` are not to be modified afterwards). A class with no
        atoms is a ValueError."""
        ks = self.atoms_per_class
        if 0 in ks:
            raise ValueError(f"class {ks.index(0) + 1} has no atoms")
        Q = [(D_l.T @ D_l) @ P_l - 2.0 * D_l.T for D_l, P_l in zip(self.D, self.P)]
        return np.concatenate(self.P + Q), np.cumsum([0] + ks[:-1])


@dataclass
class CodingState:
    """Nonnegative per-class coefficient blocks S_l (k_l x N_l)."""

    S: list[np.ndarray]


@dataclass
class WeightState:
    """Per-class reconstruction weights W_l (N_l x N_l) with zero diagonal."""

    W: list[np.ndarray]


@dataclass
class ClassState:
    """Training state of one class: D (n x k), P (k x n), S (k x N_l),
    W (N_l x N_l) and the reweighting diagonals h (n), u and v (N_l).

    The updates rebind these attributes to new arrays and never write into
    the arrays, so a shallow copy of a record is a snapshot of it."""

    D: np.ndarray
    P: np.ndarray
    S: np.ndarray
    W: np.ndarray
    h: np.ndarray
    u: np.ndarray
    v: np.ndarray


def _unit_fnorm(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Standard-normal block scaled to Frobenius norm 1."""
    B = rng.standard_normal(shape)
    return B / np.linalg.norm(B)


def init_state(ds: LabeledDataset, hp: Hyperparams) -> list[ClassState]:
    """Seeded random initialization, one ClassState per class in label order.

    Each of D_l, P_l, S_l, W_l is drawn from default_rng(hp.seed) and scaled to
    unit Frobenius norm; S_l takes absolute values before scaling (the
    multiplicative code update cannot repair negative entries), and the diagonal
    of W_l is zeroed after scaling. The reweighting diagonals start at identity.
    """
    n = ds.n_features
    k = hp.atoms_per_class
    rng = np.random.default_rng(hp.seed)
    states = []
    for l, cols in enumerate(ds.per_class, start=1):
        N_l = cols.size
        if k > N_l:
            warnings.warn(f"class {l}: atoms_per_class={k} exceeds N_l={N_l}", stacklevel=2)
        D_l = _unit_fnorm(rng, (n, k))
        P_l = _unit_fnorm(rng, (k, n))
        S_l = np.abs(rng.standard_normal((k, N_l)))
        W_l = _unit_fnorm(rng, (N_l, N_l))
        np.fill_diagonal(W_l, 0.0)
        states.append(ClassState(D_l, P_l, S_l / np.linalg.norm(S_l), W_l, np.ones(n), np.ones(N_l), np.ones(N_l)))
    return states


def save_model(path, pair: DictionaryPair, hp: Hyperparams) -> None:
    """Persist the dictionary pair and hyperparameters; round-trip exact.

    A block that ``load_model`` would reject (a zero dimension, a NaN or
    infinite entry) is a ValueError naming the block and its first bad entry,
    and no file is opened then."""
    for l, (D_l, P_l) in enumerate(zip(pair.D, pair.P), start=1):
        check_block(D_l, f"{path}: class {l} block D_{l}")
        check_block(P_l, f"{path}: class {l} block P_{l}")
    ks = pair.atoms_per_class
    with open(path, "w", encoding="ascii") as fh:
        fh.write(MODEL_MAGIC + "\n")
        fh.write(f"{pair.n_classes} {pair.n_features} {sum(ks)}\n")
        fh.write(" ".join(str(k) for k in ks) + "\n")
        fh.write(
            f"{hp.alpha:.17g} {hp.beta:.17g} {hp.lam:.17g} {hp.tau:.17g} "
            f"{hp.max_iter} {hp.tol:.17g} {hp.seed}\n"
        )
        for D_l, P_l in zip(pair.D, pair.P):
            write_block(fh, D_l)
            write_block(fh, P_l)


def load_model(path) -> tuple[DictionaryPair, Hyperparams]:
    """Load a model file written by save_model; a non-numeric token, a class count,
    dimension or atom count below one, a non-finite hyperparameter or D/P entry,
    or content after the last block is a ValueError naming the file."""
    with open(path, "r", encoding="ascii") as fh:
        lines = enumerate(fh, start=1)
        magic = next(lines, (0, ""))[1].strip()
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: unsupported model version {magic!r} (expected {MODEL_MAGIC!r})")
        lineno, line = next(lines, (0, ""))
        dims = line.split()
        if len(dims) != 3:
            raise ValueError(f"{path}: truncated model file (missing dimensions)")
        c, n, K = parse_tokens(dims, int, path, lineno)
        if c < 1 or n < 1:
            raise ValueError(f"{path}, line {lineno}: c and n must be positive, got c={c}, n={n}")
        lineno, line = next(lines, (0, ""))
        ks = parse_tokens(line.split(), int, path, lineno)
        if len(ks) != c or sum(ks) != K or min(ks) < 1:
            raise ValueError(f"{path}, line {lineno}: atom counts {ks} must be positive and match c={c}, K={K}")
        lineno, line = next(lines, (0, ""))
        hline = line.split()
        if len(hline) != 7:
            raise ValueError(f"{path}: truncated model file (missing hyperparameter line)")
        alpha, beta, lam, tau, tol = parse_tokens(hline[:4] + [hline[5]], float, path, lineno)
        max_iter, seed = parse_tokens([hline[4], hline[6]], int, path, lineno)
        hp = Hyperparams(
            alpha=alpha,
            beta=beta,
            lam=lam,
            tau=tau,
            atoms_per_class=max(ks),
            max_iter=max_iter,
            tol=tol,
            seed=seed,
        )
        D, P = [], []
        for l in range(c):
            D_l = read_block(lines, path)
            P_l = read_block(lines, path)
            if D_l.shape != (n, ks[l]) or P_l.shape != (ks[l], n):
                raise ValueError(f"{path}: class {l + 1} block shapes {D_l.shape}, {P_l.shape} mismatch header")
            check_block(D_l, f"{path}: class {l + 1} block D_{l + 1}")
            check_block(P_l, f"{path}: class {l + 1} block P_{l + 1}")
            D.append(D_l)
            P.append(P_l)
        read_end(lines, path, f"expected nothing after block P_{c}")
    return DictionaryPair(D=D, P=P), hp
