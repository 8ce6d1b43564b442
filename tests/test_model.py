import math

import numpy as np
import pytest

from dictpair import (
    DictionaryPair,
    Hyperparams,
    classify_sample,
    init_state,
    load_matrix,
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
    for kwargs, message in [
        ({"max_iter": 2.5}, "max_iter must be an integer"),
        ({"atoms_per_class": True}, "atoms_per_class must be an integer"),
        ({"atoms_per_class": 2.0}, "atoms_per_class must be an integer"),
        ({"seed": "3"}, "seed must be an integer"),
        ({"seed": False}, "seed must be an integer"),
        ({"seed": -1}, "seed must be >= 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            Hyperparams(**kwargs)
    # NumPy integers are integers
    assert Hyperparams(atoms_per_class=np.int64(3), seed=np.int32(1)).atoms_per_class == 3


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
    states = init_state(ds, hp)
    assert len(states) == 2
    for st in states:
        assert abs(np.linalg.norm(st.D) - 1.0) < 1e-12
        assert abs(np.linalg.norm(st.P) - 1.0) < 1e-12
        assert abs(np.linalg.norm(st.S) - 1.0) < 1e-12
        assert np.all(st.S >= 0.0)
        assert np.all(np.diag(st.W) == 0.0)
        # diagonal zeroing happens after scaling, so the F-norm is at most 1
        assert np.linalg.norm(st.W) <= 1.0
        assert np.all(st.h == 1.0) and np.all(st.u == 1.0) and np.all(st.v == 1.0)


def test_init_determinism():
    ds = small_ds()
    hp = Hyperparams(atoms_per_class=2, seed=9)
    a = init_state(ds, hp)
    b = init_state(ds, hp)
    for l in range(2):
        assert np.array_equal(a[l].D, b[l].D)
        assert np.array_equal(a[l].P, b[l].P)
        assert np.array_equal(a[l].S, b[l].S)
        assert np.array_equal(a[l].W, b[l].W)


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
    with pytest.raises(ValueError, match=r"m\.model, line 12: non-finite value 'nan' at row 0, column 0"):
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


def test_model_blocks_are_matrix_files(tmp_path):
    _, hp, pair = trained_tiny()
    path = tmp_path / "m.model"
    save_model(path, pair, hp)
    lines = path.read_text().splitlines(keepends=True)
    start = 4  # magic, dims, atom counts, hyperparameters
    for l in range(pair.n_classes):
        for name, M in (("D", pair.D[l]), ("P", pair.P[l])):
            rows = int(lines[start].split()[0])
            block = tmp_path / f"{name}_{l + 1}.mat"
            block.write_text("".join(lines[start : start + 1 + rows]))
            start += 1 + rows
            loaded = load_matrix(block)
            assert loaded.dtype == M.dtype and loaded.shape == M.shape
            assert loaded.tobytes() == M.tobytes()
    assert start == len(lines)


def test_model_rejects_content_after_last_block(tmp_path):
    _, hp, pair = trained_tiny()
    path = tmp_path / "m.model"
    save_model(path, pair, hp)
    text = path.read_text()
    n_lines = len(text.splitlines())
    path.write_text(text + "\n\n")
    load_model(path)
    path.write_text(text + "\n1 1\ngarbage\n")
    with pytest.raises(ValueError, match=rf"m\.model, line {n_lines + 2}: expected nothing after block P_2, found more"):
        load_model(path)


@pytest.mark.parametrize("index, text, message", [
    (1, "0 5 0", r"line 2: c and n must be positive, got c=0, n=5"),
    (1, "2 0 4", r"line 2: c and n must be positive, got c=2, n=0"),
    (2, "0 4", r"line 3: atom counts \[0, 4\] must be positive"),
    (2, "-1 5", r"line 3: atom counts \[-1, 5\] must be positive"),
    (4, "-5 -2", r"line 5: dimensions must be positive, got -5x-2"),
], ids=["no-classes", "no-features", "class-without-atoms", "negative-atoms", "negative-block-header"])
def test_model_rejects_degenerate_header(tmp_path, index, text, message):
    _, hp, pair = trained_tiny()
    path = tmp_path / "m.model"
    save_model(path, pair, hp)
    lines = path.read_text().splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"m\.model, " + message):
        load_model(path)


@pytest.mark.parametrize("case, message", [
    ("nan-in-D", r"class 1 block D_1: non-finite value nan at row 1, column 0"),
    ("inf-in-P", r"class 2 block P_2: non-finite value -inf at row 0, column 2"),
    ("class-without-atoms", r"class 2 block D_2: dimensions must be positive, got 5x0"),
], ids=["nan-in-D", "inf-in-P", "class-without-atoms"])
def test_save_model_rejects_what_load_rejects(tmp_path, case, message):
    _, hp, pair = trained_tiny()
    D, P = [M.copy() for M in pair.D], [M.copy() for M in pair.P]
    if case == "nan-in-D":
        D[0][1, 0] = np.nan
    elif case == "inf-in-P":
        P[1][0, 2] = -np.inf
    else:
        D[1], P[1] = np.zeros((5, 0)), np.zeros((0, 5))
    path = tmp_path / "m.model"
    with pytest.raises(ValueError, match=r"m\.model: " + message):
        save_model(path, DictionaryPair(D=D, P=P), hp)
    assert not path.exists()


def test_model_behavioral_equivalence(tmp_path):
    ds, hp, pair = trained_tiny()
    path = tmp_path / "m.model"
    save_model(path, pair, hp)
    loaded, _ = load_model(path)
    rng = np.random.default_rng(4)
    for _ in range(20):
        y = rng.standard_normal(5)
        assert classify_sample(y, loaded) == classify_sample(y, pair)
