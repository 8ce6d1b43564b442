"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margin. Fixture constants live in conftest.py; instance seeds for
the frozen-sweep property are pinned in the CLI module.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import dataclasses
import time

import numpy as np

from dictpair import (
    Hyperparams,
    classify_sample,
    evaluate,
    make_synthetic,
    objective_relaxed,
    split,
    surrogate_relaxed,
    train,
)
from dictpair import baselines, metrics, solver
from dictpair.cli import SWEEP_SEED_BASE, _sweep_instance, main
from dictpair.model import DictionaryPair

from conftest import final_states


def report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_oracle_suite(capsys):
    t0 = time.monotonic()
    rc = main(["gradcheck", "--seed", "0"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    with capsys.disabled():
        assert rc == 0, out
        assert out.count(": PASS") >= 5
        assert elapsed < 10.0
        report("1 oracle-suite", f"{out.count(': PASS')} checks, {elapsed:.2f}s")


def test_criterion_2_frozen_sweep_monotonicity():
    t0 = time.monotonic()
    worst = -np.inf
    for seed in range(SWEEP_SEED_BASE, SWEEP_SEED_BASE + 20):
        ds, states, hp = _sweep_instance(seed)
        before = surrogate_relaxed(ds, states, hp)
        for l, st in enumerate(states):
            solver.sweep_class(ds, l, st, hp)
        after = surrogate_relaxed(ds, states, hp)
        worst = max(worst, (after - before) / abs(before))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-8
    assert elapsed < 30.0
    report("2 sweep-monotonicity", f"worst relative change {worst:.3e}, {elapsed:.2f}s")


def test_criterion_3_convergence(standard_hp):
    t0 = time.monotonic()
    ds = make_synthetic(3, 20, 25, 0.1, 0.0, 7)
    train_ds, _ = split(ds, 15, 7)
    _, _, _, history = train(train_ds, standard_hp)
    elapsed = time.monotonic() - t0
    objs = history.objective_model
    deltas = np.diff(objs)
    assert history.converged and history.iterations_run <= 30
    assert np.all(deltas[1:] <= 1e-10)  # non-increasing from iteration 2 onward
    assert elapsed < 30.0
    report(
        "3 convergence",
        f"converged in {history.iterations_run} iterations ({elapsed:.2f}s), "
        f"max post-transient increase {deltas[1:].max() if len(deltas) > 1 else 0.0:.3e}",
    )


def test_criterion_4_classification(standard_split, standard_hp):
    t0 = time.monotonic()
    train_ds, test_ds = standard_split
    pair = train(train_ds, standard_hp)[0]
    acc = evaluate(test_ds, pair).accuracy
    floor = evaluate(test_ds, baselines.nearest_class_mean(train_ds)).accuracy
    elapsed = time.monotonic() - t0
    assert acc >= 0.95
    assert elapsed < 60.0
    report("4 classification", f"accuracy {acc:.3f} (nearest-mean floor {floor:.3f}), {elapsed:.2f}s")


def test_criterion_5_ablation_ordering(corrupt_split, corrupt_hp):
    train_ds, test_ds = corrupt_split

    def accuracy_for(hp):
        pair = train(train_ds, hp)[0]
        return evaluate(test_ds, pair).accuracy

    full = accuracy_for(corrupt_hp)
    ablated = {
        "alpha0": accuracy_for(dataclasses.replace(corrupt_hp, alpha=0.0)),
        "beta0": accuracy_for(dataclasses.replace(corrupt_hp, beta=0.0)),
        "lambda0": accuracy_for(dataclasses.replace(corrupt_hp, lam=0.0)),
    }
    for name, acc in ablated.items():
        assert full >= acc, f"full {full} < {name} {acc}"
    reduced_pair = train(train_ds, dataclasses.replace(corrupt_hp, beta=0.0, lam=0.0))[0]
    reduced = evaluate(test_ds, reduced_pair).accuracy
    assert full >= reduced
    report(
        "5 ablation-ordering",
        f"full {full:.3f} >= " + ", ".join(f"{k} {v:.3f}" for k, v in ablated.items())
        + f", reduced {reduced:.3f}",
    )


def test_criterion_6_structure(trained_standard, standard_split):
    pair, codes, weights, _ = trained_standard
    train_ds, _ = standard_split
    for l in range(pair.n_classes):
        assert np.all(codes.S[l] >= 0.0)
        assert np.all(np.diag(weights.W[l]) == 0.0)
        np.testing.assert_allclose(pair.D[l].sum(axis=0), 1.0, rtol=0, atol=1e-10)
    _, P = pair.assembled()
    energy = metrics.block_diagonal_energy(P @ train_ds.X, train_ds.labels, pair.atom_classes())
    assert energy > 0.9
    report("6 structure", f"block-diagonal energy {energy:.4f}, all invariants exact")


def test_criterion_7_weight_invariance():
    # at beta = lam = 0 the relaxed objective does not read W at all
    ds = make_synthetic(2, 6, 5, 0.1, 0.0, seed=2)
    hp = Hyperparams(alpha=0.3, beta=0.0, lam=0.0, atoms_per_class=2, seed=5)
    states = final_states(ds, train(ds, hp), hp)
    base = objective_relaxed(ds, states, hp)
    rng = np.random.default_rng(0)
    bumped = [dataclasses.replace(st, W=st.W + rng.standard_normal(st.W.shape)) for st in states]
    assert objective_relaxed(ds, bumped, hp) == base
    report("7 weight-invariance", "relaxed objective at beta = lam = 0 unchanged by a W perturbation")


def test_criterion_8_classifier_invariances():
    rng = np.random.default_rng(1)
    model = DictionaryPair(
        D=[rng.standard_normal((5, 2)) for _ in range(3)],
        P=[rng.standard_normal((2, 5)) for _ in range(3)],
    )
    y = rng.standard_normal(5)
    label = classify_sample(y, model)
    for scale in (1e-6, 0.5, 3.0, 1e6):
        assert classify_sample(scale * y, model) == label
    zero_model = DictionaryPair(
        D=[np.zeros((5, 2)) for _ in range(3)], P=[np.zeros((2, 5)) for _ in range(3)]
    )
    assert classify_sample(y, zero_model) == 1  # deterministic tie-break
    report("8 classifier-invariances", "scaling-invariant, tie-break to class 1")


def test_criterion_9_determinism(tmp_path, capsys):
    args = [
        "--classes", "2", "--dim", "6", "--per-class", "5",
        "--noise", "0.1", "--corrupt", "0.1", "--seed", "13",
    ]
    for name in ("a", "b"):
        rc = main(["synth", *args, "--out-prefix", str(tmp_path / name)])
        assert rc == 0
        rc = main([
            "train", "--data", f"{tmp_path}/{name}.mat", "--labels", f"{tmp_path}/{name}.labels",
            "--alpha", "0.3", "--beta", "0.01", "--lambda", "0.001", "--atoms", "2",
            "--seed", "2", "--tol", "1e-3",
            "--model-out", f"{tmp_path}/{name}.model", "--history-out", f"{tmp_path}/{name}.hist",
        ])
        assert rc == 0
    capsys.readouterr()
    for ext in (".mat", ".labels", ".model", ".hist"):
        a = (tmp_path / f"a{ext}").read_bytes()
        b = (tmp_path / f"b{ext}").read_bytes()
        assert a == b, f"{ext} differs between identical runs"
    report("9 determinism", "synth/train outputs bit-identical across reruns")
