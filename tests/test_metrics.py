import math

import numpy as np
import pytest

from dictpair import metrics
from dictpair.model import DictionaryPair


def pair_from(D1, P1, D2=None, P2=None):
    if D2 is None:
        return DictionaryPair(D=[np.asarray(D1, float)], P=[np.asarray(P1, float)])
    return DictionaryPair(D=[np.asarray(D1, float), np.asarray(D2, float)],
                          P=[np.asarray(P1, float), np.asarray(P2, float)])


def test_reconstruction_error_identity():
    model = pair_from(np.eye(2), np.eye(2))
    assert metrics.reconstruction_error(np.array([[1.0], [2.0]]), model) == 0.0


def test_reconstruction_error_zero_map():
    model = pair_from(np.zeros((2, 2)), np.zeros((2, 2)))
    assert metrics.reconstruction_error(np.array([[3.0], [4.0]]), model) == 5.0


def test_reconstruction_error_oracle(rng):
    model = pair_from(rng.standard_normal((4, 2)), rng.standard_normal((2, 4)),
                      rng.standard_normal((4, 3)), rng.standard_normal((3, 4)))
    Y = rng.standard_normal((4, 5))
    D, P = model.assembled()
    R = Y - D @ P @ Y
    direct = math.sqrt(sum(R[i, j] ** 2 for i in range(4) for j in range(5)))
    assert abs(metrics.reconstruction_error(Y, model) - direct) < 1e-12


def test_reconstruction_error_dim_mismatch():
    model = pair_from(np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        metrics.reconstruction_error(np.ones((3, 1)), model)


# --- PSNR ---------------------------------------------------------------------

def test_psnr_exact_match_is_inf():
    Y = np.array([[1.0, 2.0]])
    assert metrics.psnr(Y, Y.copy()) == math.inf


def test_psnr_peak_equals_rmse():
    assert metrics.psnr(np.array([[1.0]]), np.array([[0.0]])) == 0.0


def test_psnr_oracle(rng):
    Y = rng.standard_normal((8, 8))
    recon = Y + 0.1 * rng.standard_normal((8, 8))
    rmse = math.sqrt(np.mean((Y - recon) ** 2))
    want = 20.0 * math.log10(np.abs(Y).max() / rmse)
    assert abs(metrics.psnr(Y, recon) - want) < 1e-12


def test_psnr_monotone_in_noise(rng):
    Y = rng.standard_normal((6, 6))
    noise = rng.standard_normal((6, 6))
    values = [metrics.psnr(Y, Y + s * noise) for s in (0.01, 0.1, 1.0)]
    assert values[0] > values[1] > values[2]


def test_psnr_errors():
    with pytest.raises(ValueError, match="all-zero"):
        metrics.psnr(np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError, match="shape"):
        metrics.psnr(np.ones((2, 2)), np.ones((2, 3)))


# --- atom similarity -----------------------------------------------------------

def brute_pearson(a, b):
    """Textbook Pearson correlation, written out longhand."""
    n = len(a)
    am = sum(a) / n
    bm = sum(b) / n
    cov = sum((a[i] - am) * (b[i] - bm) for i in range(n))
    va = sum((a[i] - am) ** 2 for i in range(n)) ** 0.5
    vb = sum((b[i] - bm) ** 2 for i in range(n)) ** 0.5
    return cov / (va * vb)


def test_atom_similarity_affine_atom():
    d = np.array([0.3, -1.2, 0.9])
    D = np.stack([d, 2.0 * d + 1.0], axis=1)
    sim = metrics.atom_similarity(D)
    assert abs(sim[0, 1] - 1.0) < 1e-12


def test_atom_similarity_hand_cases():
    # brute-force Pearson is the oracle for both atom pairs
    a = [1.0, -1.0, 0.0]
    b = [1.0, 1.0, -2.0]
    c = [1.0, 0.0, -1.0]
    assert abs(brute_pearson(a, b)) == 0.0
    assert abs(abs(brute_pearson(a, c)) - 0.5) < 1e-15
    D = np.array([a, b, c]).T * 3.7  # common positive rescale is irrelevant
    sim = metrics.atom_similarity(D)
    assert abs(sim[0, 1] - 0.0) < 1e-12
    assert abs(sim[0, 2] - 0.5) < 1e-12


def test_atom_similarity_structure(rng):
    D = rng.standard_normal((6, 5))
    sim = metrics.atom_similarity(D)
    assert np.array_equal(sim, sim.T)
    assert np.all(np.diag(sim) == 1.0)
    assert np.all((sim >= 0.0) & (sim <= 1.0))


def test_atom_similarity_rescale_invariance(rng):
    D = rng.standard_normal((6, 4))
    scaled = D * np.array([1.0, 7.5, 0.2, 3.0])
    np.testing.assert_allclose(metrics.atom_similarity(D), metrics.atom_similarity(scaled),
                               rtol=0, atol=1e-12)


def test_atom_similarity_constant_atom_convention():
    D = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
    sim = metrics.atom_similarity(D)
    assert sim[0, 0] == 1.0 and sim[0, 1] == 0.0 and sim[1, 0] == 0.0


def test_atom_similarity_needs_two_atoms():
    with pytest.raises(ValueError):
        metrics.atom_similarity(np.ones((3, 1)))


# --- block-diagonal energy ------------------------------------------------------

def test_block_energy_perfect():
    M = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    assert metrics.block_diagonal_energy(M, np.array([1, 1, 2]), np.array([1, 2])) == 1.0


def test_block_energy_all_off_block():
    M = np.array([[0.0, 0.0, 4.0], [5.0, 1.0, 0.0]])
    assert metrics.block_diagonal_energy(M, np.array([1, 1, 2]), np.array([1, 2])) == 0.0


def test_block_energy_oracle(rng):
    M = rng.standard_normal((5, 8))
    rows = rng.integers(1, 3, size=5)
    cols = rng.integers(1, 3, size=8)
    got = metrics.block_diagonal_energy(M, cols, rows)
    on = sum(M[i, j] ** 2 for i in range(5) for j in range(8) if rows[i] == cols[j])
    total = sum(M[i, j] ** 2 for i in range(5) for j in range(8))
    assert abs(got - on / total) < 1e-14


def test_block_energy_zero_matrix_error():
    with pytest.raises(ValueError, match="all-zero"):
        metrics.block_diagonal_energy(np.zeros((2, 2)), np.array([1, 2]), np.array([1, 2]))


# --- exports --------------------------------------------------------------------

def test_write_pgm(tmp_path):
    p = tmp_path / "m.pgm"
    metrics.write_pgm(p, np.array([[0.0, 0.5], [1.0, 0.25]]))
    lines = p.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2" and lines[2] == "255"
    assert lines[3].split() == ["0", "128"]
    assert lines[4].split() == ["255", "64"]


@pytest.mark.parametrize("bad", [1.5, 2.0, -0.25, np.nan, np.inf, -np.inf])
def test_write_pgm_rejects_values_outside_unit_interval(tmp_path, bad):
    p = tmp_path / "m.pgm"
    with pytest.raises(ValueError, match=rf"PGM value {bad} at \(1, 0\)"):
        metrics.write_pgm(p, np.array([[0.0, 0.5], [bad, 0.25]]))
    assert not p.exists()


def test_write_csv_matrix(tmp_path):
    p = tmp_path / "m.csv"
    M = np.array([[0.125, 1.0], [2.0, -3.5]])
    metrics.write_csv_matrix(p, M)
    rows = [[float(v) for v in line.split(",")] for line in p.read_text().splitlines()]
    assert np.array_equal(np.array(rows), M)
