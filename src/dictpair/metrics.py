"""Quantitative inspection of trained models: reconstruction error, PSNR,
atom-correlation heat maps, and block-diagonal energy of coding matrices."""

import math

import numpy as np

from .data import write_rows
from .model import DictionaryPair

# atoms with centered norm below this count as constant (zero variance)
_CONST_ATOM_TOL = 1e-12


def reconstruction_error(Y: np.ndarray, model: DictionaryPair) -> float:
    """||Y - D P Y||_F with the assembled dictionary pair."""
    if Y.shape[0] != model.n_features:
        raise ValueError(f"data dimension {Y.shape[0]} != model dimension {model.n_features}")
    D, P = model.assembled()
    return float(np.linalg.norm(Y - D @ (P @ Y)))


def psnr(Y: np.ndarray, recon: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB, with peak = max |entry of Y|.

    RMSE is ||Y - recon||_F / sqrt(numel); an exact match returns math.inf.
    """
    if Y.shape != recon.shape:
        raise ValueError(f"shape mismatch {Y.shape} vs {recon.shape}")
    peak = float(np.abs(Y).max())
    if peak == 0.0:
        raise ValueError("PSNR undefined: Y is all-zero")
    rmse = float(np.linalg.norm(Y - recon)) / math.sqrt(Y.size)
    if rmse == 0.0:
        return math.inf
    return 20.0 * math.log10(peak / rmse)


def atom_similarity(D: np.ndarray) -> np.ndarray:
    """Absolute Pearson correlation between all atom pairs (columns of D).

    Entries lie in [0, 1] with unit diagonal. Constant atoms correlate 0 with
    everything (and 1 with themselves) by convention.
    """
    if D.shape[1] < 2:
        raise ValueError("need at least 2 atoms")
    C = D - D.mean(axis=0, keepdims=True)
    norms = np.linalg.norm(C, axis=0)
    constant = norms < _CONST_ATOM_TOL
    safe = np.where(constant, 1.0, norms)
    sim = np.abs((C / safe).T @ (C / safe))
    sim[constant, :] = 0.0
    sim[:, constant] = 0.0
    np.fill_diagonal(sim, 1.0)
    return np.clip(sim, 0.0, 1.0)


def block_diagonal_energy(
    M: np.ndarray, col_labels: np.ndarray, row_classes: np.ndarray
) -> float:
    """Fraction of squared mass on entries whose row class equals the column
    class; 1.0 means perfectly block-diagonal."""
    col_labels = np.asarray(col_labels)
    row_classes = np.asarray(row_classes)
    if M.shape != (row_classes.size, col_labels.size):
        raise ValueError(f"matrix shape {M.shape} inconsistent with label vectors")
    total = float(np.sum(M * M))
    if total == 0.0:
        raise ValueError("block-diagonal energy undefined for an all-zero matrix")
    mask = row_classes[:, None] == col_labels[None, :]
    return float(np.sum(M[mask] ** 2)) / total


def write_pgm(path, values: np.ndarray) -> None:
    """ASCII PGM (P2, maxval 255) heat map of values in [0, 1].

    Raises ValueError, naming the first offending entry, for a non-finite
    value or one outside [0, 1]; no file is written then."""
    values = np.asarray(values, dtype=float)
    bad = np.argwhere(~((values >= 0.0) & (values <= 1.0)))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise ValueError(f"PGM value {values[idx]} at {idx} is not a finite value in [0, 1]")
    pixels = np.rint(255.0 * values).astype(int)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"P2\n{pixels.shape[1]} {pixels.shape[0]}\n255\n")
        write_rows(fh, pixels, " ")


def write_csv_matrix(path, values: np.ndarray) -> None:
    """Comma-separated matrix dump at full precision."""
    with open(path, "w", encoding="ascii") as fh:
        write_rows(fh, np.asarray(values, dtype=float), ",")
