"""End-to-end tests of the command-line surface, run in-process through
cli.main so exit codes and output can be asserted directly."""

import csv

import numpy as np
import pytest

from dictpair import load_labels, load_matrix, load_model
from dictpair import metrics
from dictpair.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def synth_args(prefix, classes=2, dim=5, per_class=4, noise=0.0, corrupt=0.0, seed=3):
    return [
        "synth", "--classes", str(classes), "--dim", str(dim), "--per-class", str(per_class),
        "--noise", str(noise), "--corrupt", str(corrupt), "--seed", str(seed),
        "--out-prefix", str(prefix),
    ]


def train_args(prefix, model, history=None, **kw):
    args = [
        "train", "--data", f"{prefix}.mat", "--labels", f"{prefix}.labels",
        "--alpha", str(kw.get("alpha", 0.3)), "--beta", str(kw.get("beta", 0.01)),
        "--lambda", str(kw.get("lam", 0.001)), "--atoms", str(kw.get("atoms", 2)),
        "--seed", str(kw.get("seed", 7)), "--tol", str(kw.get("tol", 1e-3)),
        "--model-out", str(model),
    ]
    if history:
        args += ["--history-out", str(history)]
    if "mode" in kw:
        args += ["--mode", kw["mode"]]
    return args


# --- synth ---------------------------------------------------------------------

def test_synth_writes_consistent_files(workdir, capsys):
    rc, _, _ = run(capsys, *synth_args(workdir / "d"))
    assert rc == 0
    X = load_matrix(workdir / "d.mat")
    labels = load_labels(workdir / "d.labels")
    assert X.shape == (5, 8) and labels.shape == (8,)


def test_synth_rejects_bad_corrupt(workdir, capsys):
    rc, _, err = run(capsys, *synth_args(workdir / "d", corrupt=1.5))
    assert rc == 2 and "corrupt" in err


def test_synth_deterministic(workdir, capsys):
    run(capsys, *synth_args(workdir / "a", noise=0.2, corrupt=0.1, seed=11))
    run(capsys, *synth_args(workdir / "b", noise=0.2, corrupt=0.1, seed=11))
    assert (workdir / "a.mat").read_bytes() == (workdir / "b.mat").read_bytes()
    assert (workdir / "a.labels").read_bytes() == (workdir / "b.labels").read_bytes()


# --- train ---------------------------------------------------------------------

def read_history(path):
    lines = path.read_text().splitlines()
    header = lines[0]
    rows = list(csv.DictReader(lines[1:]))
    return header, rows


def test_train_history_nonincreasing_after_iteration_two(workdir, capsys):
    run(capsys, *synth_args(workdir / "d"))
    rc, _, _ = run(capsys, *train_args(workdir / "d", workdir / "m.model", workdir / "h.csv"))
    assert rc == 0
    header, rows = read_history(workdir / "h.csv")
    assert header.startswith("# converged=true")
    objs = [float(r["obj_eq6"]) for r in rows]
    deltas = np.diff(objs)
    assert np.all(deltas[1:] <= 1e-10)
    assert set(rows[0]) == {"iter", "obj_eq6", "obj_eq9", "dP", "dS", "dD", "dW"}


def test_train_huge_tol_single_row(workdir, capsys):
    run(capsys, *synth_args(workdir / "d"))
    rc, _, _ = run(capsys, *train_args(workdir / "d", workdir / "m.model", workdir / "h.csv", tol=1e9))
    assert rc == 0
    _, rows = read_history(workdir / "h.csv")
    assert len(rows) == 1


def test_train_reduced_mode_rejects_nonzero_beta(workdir, capsys):
    run(capsys, *synth_args(workdir / "d"))
    rc, _, err = run(capsys, *train_args(workdir / "d", workdir / "m.model", mode="reduced", beta=0.1))
    assert rc == 2 and "beta" in err


def test_train_reduced_mode_defaults_to_zero_terms(workdir, capsys):
    run(capsys, *synth_args(workdir / "d"))
    rc = main(["train", "--data", f"{workdir}/d.mat", "--labels", f"{workdir}/d.labels",
               "--alpha", "0.3", "--atoms", "2", "--seed", "7", "--tol", "1e-3",
               "--mode", "reduced", "--model-out", f"{workdir}/m.model"])
    capsys.readouterr()
    assert rc == 0


def test_train_missing_data_file(workdir, capsys):
    rc, _, err = run(capsys, "train", "--data", str(workdir / "no.mat"),
                     "--labels", str(workdir / "no.labels"),
                     "--model-out", str(workdir / "m.model"))
    assert rc == 2


def test_train_rejects_nan_data_file(workdir, capsys):
    run(capsys, *synth_args(workdir / "d"))
    lines = (workdir / "d.mat").read_text().splitlines()
    lines[2] = "nan " + lines[2].split(" ", 1)[1]
    (workdir / "d.mat").write_text("\n".join(lines) + "\n")
    rc, _, err = run(capsys, *train_args(workdir / "d", workdir / "m.model"))
    assert rc == 2
    assert "d.mat" in err and "non-finite value 'nan'" in err and "Traceback" not in err
    assert not (workdir / "m.model").exists()


def test_train_numerical_failure_exit_code(workdir, capsys, monkeypatch):
    from dictpair import solver as solver_mod

    def boom(*a, **kw):
        raise solver_mod.NumericalError("synthetic blow-up")

    run(capsys, *synth_args(workdir / "d"))
    monkeypatch.setattr(solver_mod, "train", boom)
    rc, _, err = run(capsys, *train_args(workdir / "d", workdir / "m.model"))
    assert rc == 3 and "numerical failure" in err


def test_train_print_config(workdir, capsys):
    run(capsys, *synth_args(workdir / "d"))
    rc, out, _ = run(capsys, *train_args(workdir / "d", workdir / "m.model"), "--print-config")
    assert rc == 0
    keys = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert keys["alpha"] == "0.3" and keys["lambda"] == "0.001" and keys["mode"] == "full"


def test_train_self_check_flag(workdir, capsys):
    run(capsys, *synth_args(workdir / "d"))
    rc, _, _ = run(capsys, *train_args(workdir / "d", workdir / "m.model"), "--self-check")
    assert rc == 0


def test_train_self_check_flag_fails_on_inaccurate_solves(workdir, capsys, monkeypatch):
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda A, B: solve(A, B) * (1.0 + 1e-3))
    run(capsys, *synth_args(workdir / "d"))
    rc, _, err = run(capsys, *train_args(workdir / "d", workdir / "m.model"), "--self-check")
    assert rc == 3 and "analysis solve residual" in err


def test_train_rejects_nan_hyperparameter(workdir, capsys):
    run(capsys, *synth_args(workdir / "d"))
    rc, _, err = run(capsys, *train_args(workdir / "d", workdir / "m.model", alpha="nan"))
    assert rc == 2
    assert "error: alpha must be finite" in err and "Traceback" not in err
    assert not (workdir / "m.model").exists()


def test_train_preset_resolution(workdir, capsys):
    run(capsys, *synth_args(workdir / "d"))
    rc, out, _ = run(capsys, "train", "--data", f"{workdir}/d.mat",
                     "--labels", f"{workdir}/d.labels", "--preset", "eth80",
                     "--atoms", "2", "--tol", "1e-3",
                     "--model-out", f"{workdir}/m.model", "--print-config")
    assert rc == 0
    keys = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(keys["alpha"]) == 10.0
    assert float(keys["beta"]) == 1e-3
    assert float(keys["lambda"]) == 0.5


def test_preprocessing_orders_differ(workdir, capsys):
    run(capsys, *synth_args(workdir / "d", noise=0.2))
    base = ["train", "--data", f"{workdir}/d.mat", "--labels", f"{workdir}/d.labels",
            "--alpha", "0.3", "--beta", "0.01", "--lambda", "0.001", "--atoms", "2",
            "--seed", "7", "--tol", "1e-3", "--normalize", "--project-dim", "4",
            "--project-seed", "9"]
    rc1 = main(base + ["--prep-order", "project-then-normalize",
                       "--model-out", f"{workdir}/pn.model"])
    rc2 = main(base + ["--prep-order", "normalize-then-project",
                       "--model-out", f"{workdir}/np.model"])
    capsys.readouterr()
    assert rc1 == rc2 == 0
    a, _ = load_model(workdir / "pn.model")
    b, _ = load_model(workdir / "np.model")
    assert a.n_features == b.n_features == 4
    assert not np.array_equal(a.D[0], b.D[0])


def test_eval_with_matching_preprocessing(workdir, capsys):
    run(capsys, *synth_args(workdir / "d", noise=0.2))
    prep = ["--normalize", "--project-dim", "4", "--project-seed", "9"]
    rc = main(["train", "--data", f"{workdir}/d.mat", "--labels", f"{workdir}/d.labels",
               "--alpha", "0.3", "--beta", "0.01", "--lambda", "0.001", "--atoms", "2",
               "--seed", "7", "--tol", "1e-3", *prep,
               "--model-out", f"{workdir}/m.model"])
    capsys.readouterr()
    assert rc == 0
    rc, out, _ = run(capsys, "eval", "--data", f"{workdir}/d.mat",
                     "--labels", f"{workdir}/d.labels", "--model", f"{workdir}/m.model", *prep)
    assert rc == 0 and out.startswith("accuracy,")


# --- eval ----------------------------------------------------------------------

def test_eval_output_format(workdir, capsys):
    run(capsys, *synth_args(workdir / "d"))
    run(capsys, *train_args(workdir / "d", workdir / "m.model"))
    rc, out, _ = run(capsys, "eval", "--data", f"{workdir}/d.mat",
                     "--labels", f"{workdir}/d.labels", "--model", f"{workdir}/m.model")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "accuracy,1.000000"
    assert len(lines) == 2 + 2  # accuracy + header + one row per class
    assert all("," in line for line in lines)


def test_eval_dimension_mismatch(workdir, capsys):
    run(capsys, *synth_args(workdir / "d"))
    run(capsys, *train_args(workdir / "d", workdir / "m.model"))
    run(capsys, *synth_args(workdir / "e", dim=7))
    rc, _, err = run(capsys, "eval", "--data", f"{workdir}/e.mat",
                     "--labels", f"{workdir}/e.labels", "--model", f"{workdir}/m.model")
    assert rc == 2 and "dimension" in err


def test_eval_rejects_non_finite_model_entry(workdir, capsys):
    run(capsys, *synth_args(workdir / "d"))
    run(capsys, *train_args(workdir / "d", workdir / "m.model"))
    lines = (workdir / "m.model").read_text().splitlines()
    lines[-1] = "nan " + lines[-1].split(" ", 1)[1]  # last row of P_2
    (workdir / "m.model").write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, "eval", "--data", f"{workdir}/d.mat",
                       "--labels", f"{workdir}/d.labels", "--model", f"{workdir}/m.model")
    assert rc == 2 and out == ""
    assert "error: " in err and "m.model: class 2 block P_2" in err and "Traceback" not in err


# --- ablate --------------------------------------------------------------------

@pytest.fixture(scope="module")
def corrupted_prefix(tmp_path_factory):
    d = tmp_path_factory.mktemp("ablate")
    rc = main(synth_args(d / "c", classes=3, dim=20, per_class=25, noise=0.1,
                         corrupt=0.1, seed=7))
    assert rc == 0
    return d / "c"


def ablate_args(prefix):
    return ["ablate", "--data", f"{prefix}.mat", "--labels", f"{prefix}.labels",
            "--alpha", "1.0", "--beta", "0.01", "--lambda", "0.001", "--atoms", "2",
            "--seed", "4", "--train-per-class", "15", "--split-seed", "7"]


def test_ablate_four_rows_and_ordering(corrupted_prefix, capsys):
    rc = main(ablate_args(corrupted_prefix))
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "variant,accuracy"
    rows = dict(line.split(",") for line in lines[1:])
    assert set(rows) == {"alpha0", "beta0", "lambda0", "full"}
    assert len(lines) == 5
    full = float(rows["full"])
    assert full >= float(rows["alpha0"])
    assert full >= float(rows["beta0"])
    assert full >= float(rows["lambda0"])


def test_ablate_deterministic(corrupted_prefix, capsys):
    rc1 = main(ablate_args(corrupted_prefix))
    out1 = capsys.readouterr().out
    rc2 = main(ablate_args(corrupted_prefix))
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0 and out1 == out2


# --- inspect -------------------------------------------------------------------

def test_inspect_outputs(workdir, capsys):
    run(capsys, *synth_args(workdir / "d", classes=3, dim=20, per_class=15, noise=0.1, seed=7))
    rc, _, _ = run(capsys, *train_args(workdir / "d", workdir / "m.model",
                                       alpha=1.0, beta=0.01, lam=0.001, seed=10, tol=1e-4))
    assert rc == 0
    rc, out, _ = run(capsys, "inspect", "--model", f"{workdir}/m.model",
                     "--data", f"{workdir}/d.mat", "--labels", f"{workdir}/d.labels",
                     "--out-prefix", f"{workdir}/insp")
    assert rc == 0
    pgm = (workdir / "insp.atoms.pgm").read_text()
    assert pgm.startswith("P2\n")
    assert (workdir / "insp.atoms.csv").exists()
    report = dict(line.split(",") for line in (workdir / "insp.report.csv").read_text().splitlines())
    # codes of the trained fixture concentrate on the matching class blocks
    assert float(report["block_diagonal_energy"]) > 0.9
    # the reported reconstruction error equals the metrics operation on the same inputs
    pair, _ = load_model(workdir / "m.model")
    want = metrics.reconstruction_error(load_matrix(workdir / "d.mat"), pair)
    assert float(report["reconstruction_error"]) == pytest.approx(want, rel=0, abs=0)


# --- gradcheck -----------------------------------------------------------------

def test_gradcheck_passes(capsys):
    rc, out, _ = run(capsys, "gradcheck", "--seed", "0")
    assert rc == 0
    lines = [l for l in out.strip().splitlines() if ": PASS" in l or ": FAIL" in l]
    assert len(lines) >= 5
    assert all(": PASS" in l for l in lines)


def test_gradcheck_detects_injected_sign_flip(capsys):
    rc, out, _ = run(capsys, "gradcheck", "--seed", "0", "--inject-sign-flip")
    assert rc == 1
    assert "weights-stationarity: FAIL" in out
