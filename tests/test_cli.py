"""End-to-end tests of the command-line surface, run in-process through
cli.main so exit codes and output can be asserted directly."""

import csv
from dataclasses import fields

import numpy as np
import pytest

from dictpair import (
    Hyperparams,
    evaluate,
    load_labels,
    load_matrix,
    load_model,
    partition_by_class,
    split,
    train,
)
from dictpair import metrics
from dictpair.cli import PRESETS, main


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


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_synth_rejects_non_finite_noise(workdir, capsys, noise):
    rc, _, err = run(capsys, *synth_args(workdir / "d", noise=noise))
    assert rc == 2 and "noise_sigma" in err
    assert not (workdir / "d.mat").exists()


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


def test_train_frobenius_mode_rejects_nonzero_beta(workdir, capsys):
    run(capsys, *synth_args(workdir / "d"))
    rc, _, err = run(capsys, *train_args(workdir / "d", workdir / "m.model", mode="frobenius", beta=0.1, lam=0.0))
    assert rc == 2 and "error: mode 'frobenius' requires beta = 0" in err


def test_train_rejects_the_retired_reduced_mode(workdir, capsys):
    # beta = lam = 0 in mode full replaces it
    run(capsys, *synth_args(workdir / "d"))
    with pytest.raises(SystemExit) as exc:
        main(train_args(workdir / "d", workdir / "m.model", mode="reduced", beta=0.0, lam=0.0))
    assert exc.value.code == 2 and "invalid choice: 'reduced'" in capsys.readouterr().err
    assert not (workdir / "m.model").exists()


def test_train_frobenius_mode_defaults_to_zero_terms(workdir, capsys):
    run(capsys, *synth_args(workdir / "d"))
    rc = main(["train", "--data", f"{workdir}/d.mat", "--labels", f"{workdir}/d.labels",
               "--alpha", "0.3", "--atoms", "2", "--seed", "7", "--tol", "1e-3",
               "--mode", "frobenius", "--model-out", f"{workdir}/m.model", "--print-config"])
    out = capsys.readouterr().out
    assert rc == 0 and "beta=0.0\nlambda=0.0\n" in out


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


def test_train_print_config_defaults_are_hyperparams(workdir, capsys):
    run(capsys, *synth_args(workdir / "d", per_class=6))
    rc, out, _ = run(capsys, "train", "--data", f"{workdir}/d.mat", "--labels", f"{workdir}/d.labels",
                     "--model-out", f"{workdir}/m.model", "--print-config")
    assert rc == 0
    hp = Hyperparams()
    flag = {"lam": "lambda", "atoms_per_class": "atoms"}
    want = [f"{flag.get(f.name, f.name)}={getattr(hp, f.name)}" for f in fields(hp)]
    assert out.splitlines() == want + ["mode=full"]


def test_default_preset_is_hyperparams_default():
    # the --preset help text says the default is the yaleb values
    assert PRESETS["yaleb"] == (Hyperparams.alpha, Hyperparams.beta, Hyperparams.lam)


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "error: seed must be >= 0"),
    (["--mode", "frobenius", "--lambda", "0.1"], "error: mode 'frobenius' requires beta = 0 and lam = 0"),
], ids=["seed", "mode-rule"])
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_bad_hyperparameters_exit_2_before_any_output(workdir, capsys, command, flags, message):
    run(capsys, *synth_args(workdir / "d"))
    rc, out, err = run(capsys, command, "--data", f"{workdir}/d.mat", "--labels", f"{workdir}/d.labels",
                       *flags,
                       *(["--model-out", f"{workdir}/m.model"] if command == "train"
                         else ["--train-per-class", "2", "--split-seed", "1"]))
    assert rc == 2 and out == "" and message in err


@pytest.mark.parametrize("argv", [
    ["synth", "--classes", "2", "--dim", "3", "--per-class", "3", "--out-prefix", "x", "--seed", "-1"],
    ["ablate", "--data", "d.mat", "--labels", "d.labels", "--train-per-class", "2", "--split-seed", "-1"],
    ["train", "--data", "d.mat", "--labels", "d.labels", "--model-out", "m", "--project-seed", "-1"],
    ["gradcheck", "--seed", "-1"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_negative_seed_flag_exits_2_naming_the_flag(workdir, capsys, monkeypatch, argv):
    # parsing fails before any file is read or written
    monkeypatch.chdir(workdir)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument {argv[-2]}: must be >= 0, got -1" in captured.err
    assert list(workdir.iterdir()) == []


def test_train_exits_3_on_inaccurate_solves(workdir, capsys, monkeypatch):
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda A, B: solve(A, B) * (1.0 + 1e-3))
    run(capsys, *synth_args(workdir / "d"))
    rc, _, err = run(capsys, *train_args(workdir / "d", workdir / "m.model"))
    assert rc == 3 and "numerical failure: analysis solve residual" in err


def test_train_exits_3_on_linalg_error(workdir, capsys, monkeypatch):
    # LinAlgError is a ValueError; it must not be reported as a usage error
    from dictpair import solver as solver_mod

    def singular(X_l, P_l):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(solver_mod, "update_W", singular)
    run(capsys, *synth_args(workdir / "d"))
    rc, _, err = run(capsys, *train_args(workdir / "d", workdir / "m.model"))
    assert rc == 3 and "numerical failure: Singular matrix" in err
    assert not (workdir / "m.model").exists()


@pytest.mark.parametrize("command", ["eval --data", "train --model-out", "train --history-out",
                                     "train --model-out missing-parent"])
def test_directory_given_as_a_file_exits_2(workdir, capsys, monkeypatch, command):
    """An unusable path exits 2 with the OSError's message; train reports an
    output path it cannot write before it trains, and leaves no file."""
    from dictpair import solver as solver_mod

    run(capsys, *synth_args(workdir / "d"))
    rc, _, _ = run(capsys, *train_args(workdir / "d", workdir / "m.model"))
    assert rc == 0
    (workdir / "dir").mkdir()
    monkeypatch.setattr(solver_mod, "train", lambda *a, **kw: pytest.fail("trained before checking the output paths"))
    message = "Is a directory"
    if command == "eval --data":
        argv = ["eval", "--data", str(workdir / "dir"), "--labels", f"{workdir}/d.labels",
                "--model", str(workdir / "m.model")]
    elif command == "train --model-out":
        argv = train_args(workdir / "d", workdir / "dir")
    elif command == "train --history-out":
        argv = train_args(workdir / "d", workdir / "new.model", history=workdir / "dir")
    else:
        argv = train_args(workdir / "d", workdir / "missing" / "m.model")
        message = "No such file or directory"
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not (workdir / "new.model").exists() and not (workdir / "missing").exists()


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


def test_eval_rejects_more_model_classes_than_labels(workdir, capsys):
    run(capsys, *synth_args(workdir / "d", classes=3))
    run(capsys, *train_args(workdir / "d", workdir / "m.model"))
    run(capsys, *synth_args(workdir / "e", classes=2))
    rc, out, err = run(capsys, "eval", "--data", f"{workdir}/e.mat",
                       "--labels", f"{workdir}/e.labels", "--model", f"{workdir}/m.model")
    assert rc == 2 and out == ""
    assert "error: model has 3 classes, test labels have 2" in err


@pytest.mark.parametrize("index, edit, message", [
    (1, lambda text: text.rsplit(" ", 1)[0] + " x", "expected an integer, got 'x'"),  # "c n K" line
    (-1, lambda text: "abc " + text.split(" ", 1)[1], "expected a number, got 'abc'"),  # last row of P_2
])
def test_eval_rejects_non_numeric_model_token(workdir, capsys, index, edit, message):
    run(capsys, *synth_args(workdir / "d"))
    run(capsys, *train_args(workdir / "d", workdir / "m.model"))
    lines = (workdir / "m.model").read_text().splitlines()
    lines[index] = edit(lines[index])
    (workdir / "m.model").write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, "eval", "--data", f"{workdir}/d.mat",
                       "--labels", f"{workdir}/d.labels", "--model", f"{workdir}/m.model")
    lineno = range(1, len(lines) + 1)[index]
    assert rc == 2 and out == ""
    assert f"error: {workdir}/m.model, line {lineno}: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("index, text, message", [
    (1, "0 5 0", "line 2: c and n must be positive, got c=0, n=5"),  # "c n K" line
    (2, "0 4", "line 3: atom counts [0, 4] must be positive"),  # a class with no atoms
], ids=["no-classes", "class-without-atoms"])
def test_eval_rejects_degenerate_model_header(workdir, capsys, index, text, message):
    run(capsys, *synth_args(workdir / "d"))
    run(capsys, *train_args(workdir / "d", workdir / "m.model"))
    lines = (workdir / "m.model").read_text().splitlines()
    lines[index] = text
    (workdir / "m.model").write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, "eval", "--data", f"{workdir}/d.mat",
                       "--labels", f"{workdir}/d.labels", "--model", f"{workdir}/m.model")
    assert rc == 2 and out == ""
    assert f"error: {workdir}/m.model, {message}" in err and "Traceback" not in err


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


@pytest.mark.parametrize("train_per_class", ["0", "-2"])
def test_ablate_rejects_nonpositive_train_per_class(corrupted_prefix, capsys, train_per_class):
    args = ablate_args(corrupted_prefix)
    args[args.index("--train-per-class") + 1] = train_per_class
    rc, out, err = run(capsys, *args)
    assert rc == 2 and "train_per_class" in err and out == ""


def test_ablate_honours_mode(corrupted_prefix, capsys):
    rc, out, _ = run(capsys, "ablate", "--data", f"{corrupted_prefix}.mat",
                     "--labels", f"{corrupted_prefix}.labels", "--alpha", "1.0", "--atoms", "2",
                     "--seed", "4", "--train-per-class", "15", "--split-seed", "7",
                     "--mode", "frobenius")
    assert rc == 0
    rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
    ds = partition_by_class(load_matrix(f"{corrupted_prefix}.mat"), load_labels(f"{corrupted_prefix}.labels"))
    train_ds, test_ds = split(ds, 15, 7)
    hp = Hyperparams(alpha=1.0, beta=0.0, lam=0.0, atoms_per_class=2, seed=4)
    pair = train(train_ds, hp, mode="frobenius")[0]
    assert rows["full"] == f"{evaluate(test_ds, pair).accuracy:.6f}"


@pytest.mark.parametrize("mode, trainings", [("full", 4), ("frobenius", 2)])
def test_ablate_trains_each_distinct_setting_once(corrupted_prefix, capsys, monkeypatch, mode, trainings):
    # under a non-full mode beta = lam = 0, so beta0 and lambda0 equal full
    from dictpair import solver as solver_mod

    settings, real_train = [], solver_mod.train
    monkeypatch.setattr(solver_mod, "train", lambda ds, hp, **kw: settings.append(hp) or real_train(ds, hp, **kw))
    args = ablate_args(corrupted_prefix)
    if mode != "full":
        for flag in ("--beta", "--lambda"):
            del args[args.index(flag):args.index(flag) + 2]
        args += ["--mode", mode]
    rc, out, _ = run(capsys, *args)
    assert rc == 0 and len(out.splitlines()) == 5
    assert len(settings) == len(set(settings)) == trainings


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


@pytest.mark.parametrize("cause", ["data dimension", "report path"])
def test_inspect_fails_before_writing(workdir, capsys, cause):
    run(capsys, *synth_args(workdir / "d", dim=20))
    rc, _, _ = run(capsys, *train_args(workdir / "d", workdir / "m.model"))
    assert rc == 0
    data = workdir / "d"
    if cause == "data dimension":
        run(capsys, *synth_args(workdir / "d12", dim=12))
        data, message = workdir / "d12", "data dimension 12 != model dimension 20"
    else:
        (workdir / "insp.report.csv").mkdir()
        message = "Is a directory"
    rc, out, err = run(capsys, "inspect", "--model", f"{workdir}/m.model", "--data", f"{data}.mat",
                       "--labels", f"{data}.labels", "--out-prefix", f"{workdir}/insp")
    assert rc == 2 and out == "" and err.startswith("error: ") and message in err
    assert sorted(p.name for p in workdir.glob("insp*")) == (["insp.report.csv"] if cause == "report path" else [])


# --- gradcheck -----------------------------------------------------------------

def test_gradcheck_passes(capsys):
    rc, out, _ = run(capsys, "gradcheck", "--seed", "0")
    assert rc == 0
    assert [line.split(" (")[0] for line in out.strip().splitlines()] == [
        "gradient-quadratic: PASS",
        "gradient-linear: PASS",
        "weights-stationarity: PASS",
        "weights-minimizer: PASS",
        "codes-surrogate-monotone: PASS",
        "sweep-surrogate-monotone: PASS",
    ]


def test_gradcheck_detects_injected_sign_flip(capsys, monkeypatch):
    # a sign-flipped weight update is not the minimizer on diag(W) = 0
    from dictpair import solver as solver_mod

    update_W = solver_mod.update_W
    monkeypatch.setattr(solver_mod, "update_W", lambda X_l, P_l: -update_W(X_l, P_l))
    rc, out, _ = run(capsys, "gradcheck", "--seed", "0")
    assert rc == 1
    assert "weights-stationarity: FAIL" in out and "weights-minimizer: FAIL" in out


def test_gradcheck_checks_the_shipped_weight_update(capsys, monkeypatch):
    # the zeroed unconstrained minimizer, I - M^-1 with its diagonal set to 0,
    # is not the minimizer on diag(W) = 0; both weight oracles must see that
    from dictpair import solver as solver_mod

    def zeroed_unconstrained(X_l, P_l):
        PX = P_l @ X_l
        N_l = X_l.shape[1]
        W = np.eye(N_l) - np.linalg.inv(X_l.T @ X_l + PX.T @ PX + np.eye(N_l))
        np.fill_diagonal(W, 0.0)
        return W

    monkeypatch.setattr(solver_mod, "update_W", zeroed_unconstrained)
    rc, out, _ = run(capsys, "gradcheck", "--seed", "0")
    assert rc == 1
    assert "weights-stationarity: FAIL" in out and "weights-minimizer: FAIL" in out
