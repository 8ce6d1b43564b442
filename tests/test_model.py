import math

import numpy as np
import pytest

from dictpair import (
    Hyperparams,
    classify_sample,
    init_state,
    load_model,
    make_synthetic,
    save_model,
    train,
)
from dictpair.model import _unit_fnorm


def small_ds():
    return make_synthetic(2, 5, 4, 0.1, 0.0, seed=1)


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        Hyperparams(alpha=-1.0)
    with pytest.raises(ValueError):
        Hyperparams(tau=0.0)
    with pytest.raises(ValueError):
        Hyperparams(atoms_per_class=0)
    with pytest.raises(ValueError):
        Hyperparams(tol=0.0)
    with pytest.raises(ValueError):
        Hyperparams(max_iter=0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["alpha", "beta", "lam", "tau", "tol"])
def test_hyperparams_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        Hyperparams(**{name: value})


def test_unit_fnorm_helper():
    rng = np.random.default_rng(0)
    for shape in [(3, 4), (4, 4), (1, 7)]:
        B = _unit_fnorm(rng, shape)
        assert abs(np.linalg.norm(B) - 1.0) < 1e-12


def test_init_block_norms_and_structure():
    ds = small_ds()
    hp = Hyperparams(atoms_per_class=2, seed=3)
    pair, codes, weights, rw = init_state(ds, hp)
    for l in range(2):
        assert abs(np.linalg.norm(pair.D[l]) - 1.0) < 1e-12
        assert abs(np.linalg.norm(pair.P[l]) - 1.0) < 1e-12
        assert abs(np.linalg.norm(codes.S[l]) - 1.0) < 1e-12
        assert np.all(codes.S[l] >= 0.0)
        assert np.all(np.diag(weights.W[l]) == 0.0)
        # diagonal zeroing happens after scaling, so the F-norm is at most 1
        assert np.linalg.norm(weights.W[l]) <= 1.0
        assert np.all(rw.h[l] == 1.0) and np.all(rw.u[l] == 1.0) and np.all(rw.v[l] == 1.0)


def test_init_determinism():
    ds = small_ds()
    hp = Hyperparams(atoms_per_class=2, seed=9)
    a = init_state(ds, hp)
    b = init_state(ds, hp)
    for l in range(2):
        assert np.array_equal(a[0].D[l], b[0].D[l])
        assert np.array_equal(a[0].P[l], b[0].P[l])
        assert np.array_equal(a[1].S[l], b[1].S[l])
        assert np.array_equal(a[2].W[l], b[2].W[l])


def test_init_warns_when_atoms_exceed_samples():
    ds = small_ds()
    with pytest.warns(UserWarning, match="atoms_per_class"):
        init_state(ds, Hyperparams(atoms_per_class=5, seed=0))


def trained_tiny():
    ds = small_ds()
    hp = Hyperparams(alpha=0.3, beta=0.01, lam=1e-3, atoms_per_class=2, seed=7, tol=1e-3)
    pair, _, _, _ = train(ds, hp)
    return ds, hp, pair


def test_model_roundtrip(tmp_path):
    _, hp, pair = trained_tiny()
    path = tmp_path / "m.model"
    save_model(path, pair, hp)
    loaded, hp2 = load_model(path)
    assert hp2 == hp
    for l in range(2):
        assert np.array_equal(loaded.D[l], pair.D[l])
        assert np.array_equal(loaded.P[l], pair.P[l])


def test_model_wrong_magic(tmp_path):
    path = tmp_path / "m.model"
    path.write_text("RADPL v9\n")
    with pytest.raises(ValueError, match="version"):
        load_model(path)


def test_model_truncated(tmp_path):
    _, hp, pair = trained_tiny()
    path = tmp_path / "m.model"
    save_model(path, pair, hp)
    text = path.read_text().splitlines()
    (tmp_path / "cut.model").write_text("\n".join(text[: len(text) // 2]) + "\n")
    with pytest.raises(ValueError, match="truncated|values"):
        load_model(tmp_path / "cut.model")


def test_model_rejects_non_finite_block(tmp_path):
    _, hp, pair = trained_tiny()
    path = tmp_path / "m.model"
    save_model(path, pair, hp)
    lines = path.read_text().splitlines()
    # magic, dims, atom counts, hyperparameters, then D_1 (header + 5 rows), then P_1
    assert lines[10] == "2 5"
    lines[11] = "nan " + lines[11].split(" ", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"m\.model: class 1 block P_1 has a non-finite entry"):
        load_model(path)


def test_model_rejects_non_finite_hyperparameter(tmp_path):
    _, hp, pair = trained_tiny()
    path = tmp_path / "m.model"
    save_model(path, pair, hp)
    lines = path.read_text().splitlines()
    lines[3] = "nan " + lines[3].split(" ", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="alpha must be finite"):
        load_model(path)


def test_model_behavioral_equivalence(tmp_path):
    ds, hp, pair = trained_tiny()
    path = tmp_path / "m.model"
    save_model(path, pair, hp)
    loaded, _ = load_model(path)
    rng = np.random.default_rng(4)
    for _ in range(20):
        y = rng.standard_normal(5)
        assert classify_sample(y, loaded) == classify_sample(y, pair)
