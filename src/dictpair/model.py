"""Model state for dictionary-pair learning.

Per class l the model holds a synthesis block D_l (n x k_l, columns summing to
one after updates) and an analysis block P_l (k_l x n). Training additionally
carries nonnegative codes S_l (k_l x N_l), zero-diagonal reconstruction weights
W_l (N_l x N_l), and three positive reweighting diagonals stored as vectors:
h (length n), u and v (length N_l). Only D and P are persisted; classification
needs nothing else.

Model file format (text, round-trip exact):

    RADPL v1
    c n K
    k_1 ... k_c
    alpha beta lambda tau max_iter tol seed
    D_1, P_1, ..., D_c, P_c   (each in the dense-matrix format of data.py)
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, load_matrix, save_matrix

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


@dataclass
class CodingState:
    """Nonnegative per-class coefficient blocks S_l (k_l x N_l)."""

    S: list[np.ndarray]


@dataclass
class WeightState:
    """Per-class reconstruction weights W_l (N_l x N_l) with zero diagonal."""

    W: list[np.ndarray]


@dataclass
class ReweightState:
    """Positive reweighting diagonals per class, stored as vectors."""

    h: list[np.ndarray]
    u: list[np.ndarray]
    v: list[np.ndarray]


def _unit_fnorm(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Standard-normal block scaled to Frobenius norm 1."""
    B = rng.standard_normal(shape)
    return B / np.linalg.norm(B)


def init_state(
    ds: LabeledDataset, hp: Hyperparams
) -> tuple[DictionaryPair, CodingState, WeightState, ReweightState]:
    """Seeded random initialization.

    Each of D_l, P_l, S_l, W_l is drawn from default_rng(hp.seed) and scaled to
    unit Frobenius norm; S_l takes absolute values before scaling (the
    multiplicative code update cannot repair negative entries), and the diagonal
    of W_l is zeroed after scaling. The reweighting diagonals start at identity.
    """
    n = ds.n_features
    k = hp.atoms_per_class
    rng = np.random.default_rng(hp.seed)
    D, P, S, W, h, u, v = [], [], [], [], [], [], []
    for l, cols in enumerate(ds.per_class, start=1):
        N_l = cols.size
        if k > N_l:
            warnings.warn(f"class {l}: atoms_per_class={k} exceeds N_l={N_l}", stacklevel=2)
        D.append(_unit_fnorm(rng, (n, k)))
        P.append(_unit_fnorm(rng, (k, n)))
        S_l = np.abs(rng.standard_normal((k, N_l)))
        S.append(S_l / np.linalg.norm(S_l))
        W_l = _unit_fnorm(rng, (N_l, N_l))
        np.fill_diagonal(W_l, 0.0)
        W.append(W_l)
        h.append(np.ones(n))
        u.append(np.ones(N_l))
        v.append(np.ones(N_l))
    return DictionaryPair(D=D, P=P), CodingState(S=S), WeightState(W=W), ReweightState(h=h, u=u, v=v)


def save_model(path, pair: DictionaryPair, hp: Hyperparams) -> None:
    """Persist the dictionary pair and hyperparameters; round-trip exact."""
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
            for M in (D_l, P_l):
                fh.write(f"{M.shape[0]} {M.shape[1]}\n")
                for row in M:
                    fh.write(" ".join(f"{val:.17g}" for val in row) + "\n")


def _read_block(fh, path) -> np.ndarray:
    header = fh.readline().split()
    if len(header) != 2:
        raise ValueError(f"{path}: truncated model file (missing matrix header)")
    rows, cols = int(header[0]), int(header[1])
    values = []
    while len(values) < rows * cols:
        line = fh.readline()
        if not line:
            raise ValueError(f"{path}: truncated model file (matrix body ends early)")
        values.extend(float(t) for t in line.split())
    if len(values) != rows * cols:
        raise ValueError(f"{path}: matrix block has {len(values)} values, expected {rows * cols}")
    return np.array(values).reshape(rows, cols)


def load_model(path) -> tuple[DictionaryPair, Hyperparams]:
    """Load a model file written by save_model; a non-finite hyperparameter or
    D/P entry is a ValueError."""
    with open(path, "r", encoding="ascii") as fh:
        magic = fh.readline().strip()
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: unsupported model version {magic!r} (expected {MODEL_MAGIC!r})")
        dims = fh.readline().split()
        if len(dims) != 3:
            raise ValueError(f"{path}: truncated model file (missing dimensions)")
        c, n, K = (int(t) for t in dims)
        ks = [int(t) for t in fh.readline().split()]
        if len(ks) != c or sum(ks) != K:
            raise ValueError(f"{path}: atom counts {ks} inconsistent with c={c}, K={K}")
        hline = fh.readline().split()
        if len(hline) != 7:
            raise ValueError(f"{path}: truncated model file (missing hyperparameter line)")
        hp = Hyperparams(
            alpha=float(hline[0]),
            beta=float(hline[1]),
            lam=float(hline[2]),
            tau=float(hline[3]),
            atoms_per_class=max(ks),
            max_iter=int(hline[4]),
            tol=float(hline[5]),
            seed=int(hline[6]),
        )
        D, P = [], []
        for l in range(c):
            D_l = _read_block(fh, path)
            P_l = _read_block(fh, path)
            if D_l.shape != (n, ks[l]) or P_l.shape != (ks[l], n):
                raise ValueError(f"{path}: class {l + 1} block shapes {D_l.shape}, {P_l.shape} mismatch header")
            for name, block in (("D", D_l), ("P", P_l)):
                if not np.isfinite(block).all():
                    raise ValueError(f"{path}: class {l + 1} block {name}_{l + 1} has a non-finite entry")
            D.append(D_l)
            P.append(P_l)
    return DictionaryPair(D=D, P=P), hp
