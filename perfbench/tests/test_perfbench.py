"""Tests of the benchmark itself, on tiny inputs.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import dictpair  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "face_train": workloads.FaceConfig(classes=3, dim=12, per_class=10, train_per_class=5, atoms=2,
                                       accuracy_floor=0.5, setups_per_round=2),
    "desk_sweep": workloads.DeskConfig(draws=1, presets=("yaleb", "eth80"), init_seeds=1, setups_per_round=1),
    "serve_eval": workloads.ServeConfig(classes=3, dim=12, per_class=10, train_per_class=5, atoms=2,
                                        accuracy_floor=0.5, setups_per_round=1),
}


def measure(name, tmp_path, trace):
    cls, _ = workloads.WORKLOADS[name]
    return workloads.measure(cls(TINY[name], 3, tmp_path), seconds=0.01, trace=trace)


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_its_unit(name, trace, tmp_path):
    result = measure(name, tmp_path, trace)
    line = run.result_line(result)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    printed = {k: v["unit"] for k, v in line["metrics"].items()}
    assert printed == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(v["value"], float | int) for v in line["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
        # one set-up before the first round, then the configured number after each round
        assert result.details["setups"] == 1 + result.details["rounds"] * TINY[name].setups_per_round


def test_benchmark_json_names_runnable_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_wrong_prediction_counts_as_failure(tmp_path, monkeypatch):
    original = dictpair.classify.class_residuals
    monkeypatch.setattr(dictpair.classify, "class_residuals", lambda y, model: -original(y, model))
    result = measure("face_train", tmp_path, trace=True)
    assert result.ops.failed > 0
    assert result.metrics["error_rate"] == result.ops.failed / result.ops.attempted > 0
    assert not run.result_line(result)["correct"]
    assert any("batched reference" in reason for reason in result.ops.reasons)
    assert any("below the floor" in reason for reason in result.ops.reasons)


def _diagonal_ones(update_W):
    def broken(X_l, P_l):
        W_l = update_W(X_l, P_l)
        np.fill_diagonal(W_l, 1.0)
        return W_l

    return broken


def _unnormalized(normalize):
    return lambda D_l, n: 2.0 * normalize(D_l, n)


@pytest.mark.parametrize("attr, breaker", [("update_W", _diagonal_ones), ("_normalize_columns", _unnormalized)])
def test_broken_training_invariant_counts_as_failure(attr, breaker, tmp_path, monkeypatch):
    monkeypatch.setattr(dictpair.solver, attr, breaker(getattr(dictpair.solver, attr)))
    result = measure("desk_sweep", tmp_path, trace=False)
    trainings = len(TINY["desk_sweep"].presets) * len(TINY["desk_sweep"].corrupt_fracs)
    assert result.ops.failed >= trainings
    assert any("train:" in reason for reason in result.ops.reasons)


def test_changed_file_on_reload_counts_as_failure(tmp_path, monkeypatch):
    load_matrix = dictpair.load_matrix

    def off_by_one_ulp(path):
        X = load_matrix(path)
        X[0, 0] = np.nextafter(X[0, 0], np.inf)
        return X

    monkeypatch.setattr(dictpair, "load_matrix", off_by_one_ulp)
    result = measure("serve_eval", tmp_path, trace=False)
    assert result.ops.failed > 0
    assert any("differ" in reason for reason in result.ops.reasons)



def child_pids() -> set[int]:
    """Processes whose parent is this one, from /proc/<pid>/stat."""
    pids = set()
    for d in Path("/proc").iterdir():
        try:
            stat = (d / "stat").read_text() if d.name.isdigit() else ""
        except OSError:  # the process ended while we looked
            continue
        if stat and int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            pids.add(int(d.name))
    return pids


def test_serve_setups_leave_no_process_behind(tmp_path):
    if not Path("/proc/self/stat").exists():
        pytest.skip("no /proc to list processes")
    before = child_pids()
    measure("serve_eval", tmp_path, trace=False)
    assert child_pids() <= before

@pytest.mark.parametrize("name", ["face_train", "desk_sweep"])
def test_traced_and_untraced_runs_report_the_same_accuracy(name, tmp_path):
    plain = measure(name, tmp_path, trace=False)
    traced = measure(name, tmp_path, trace=True)
    assert traced.ops.failed == 0
    assert plain.details["accuracy"] == traced.details["accuracy"] == plain.metrics["accuracy"]


def test_traced_run_reports_self_time_and_nesting(tmp_path):
    result = measure("face_train", tmp_path, trace=True)
    m = result.metrics
    classes, iterations = TINY["face_train"].classes, TINY["face_train"].iterations
    assert m["solver.update_P.calls"] == m["solver.analysis_system.calls"] == classes * iterations
    assert m["solver.iterations"] == iterations
    assert m["data.complement_matrix.bytes_computed"] > 0
    spans = result.tracer.spans
    by_id = {s.id: s for s in spans}
    assert all(by_id[s.parent].name == "solver.update_P" for s in spans if s.name == "solver.analysis_system")
    assert all(m[k] >= 0 for k in m if k.endswith(".self_s"))


def test_tracer_restores_the_package():
    before = (dictpair.train, dictpair.solver.update_P, dictpair.data.LabeledDataset.complement_matrix)
    with workloads.Tracer(workloads.ROUND_TARGETS):
        assert dictpair.train is not before[0]
        assert dictpair.solver.train is dictpair.train
    assert (dictpair.train, dictpair.solver.update_P, dictpair.data.LabeledDataset.complement_matrix) == before


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "face_train", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
