"""Command-line interface.

Commands: synth (write a synthetic dataset), train, eval, ablate (accuracy of
the three single-term ablations against the full model), inspect (heat maps and
reconstruction metrics), gradcheck (numerical oracle suite).

An unset hyperparameter flag takes its model.Hyperparams default; Hyperparams
and solver.train (the mode rule) reject bad values with a ValueError, and the
parser rejects a negative value of the other seed flags.

train, eval, ablate and inspect project the --data matrix (--project-dim) and
then scale its columns to unit l2 norm (--normalize), each when it is set; a
model file records neither, so eval and inspect must repeat the training flags.
A --project-seed without --project-dim exits 2.

Exit codes: 0 success, 1 oracle-check failure, 2 usage error (any ValueError
or OSError, such as a missing file or a directory given as one), 3 numerical
failure (NumericalError, LinAlgError or FloatingPointError). Every command is
deterministic given its flags.
"""

import argparse
import errno
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import classify, metrics, solver
from .data import (
    LabeledDataset,
    load_labels,
    load_matrix,
    make_synthetic,
    normalize_unit_l2,
    partition_by_class,
    random_projection_features,
    save_labels,
    save_matrix,
    split,
    write_rows,
)
from .model import ClassState, Hyperparams, init_state, load_model, save_model

# alpha, beta, lambda triples for the shipped experiment presets
PRESETS = {
    "yaleb": (1e-4, 5e-3, 1e-4),
    "ar": (5e-5, 1.0, 1e-2),
    "pie": (1e-5, 5e-3, 5e-5),
    "umist": (5e-3, 5e-2, 5e-5),
    "scene15": (5e-5, 5e-5, 5e-5),
    "eth80": (10.0, 1e-3, 0.5),
}

EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# first seed of the instance family for the frozen-sweep check; gradcheck
# --seed s runs its five instances SWEEP_SEED_BASE + 5 s to SWEEP_SEED_BASE + 5 s + 4
SWEEP_SEED_BASE = 366


def _seed(text: str) -> int:
    """argparse type of the seed flags that Hyperparams does not validate: an
    integer >= 0, so a bad value exits 2 with a message naming the flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named alpha/beta/lambda triple (default: yaleb values)")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--atoms", dest="atoms_per_class", type=int, help="atoms per class")
    p.add_argument("--max-iter", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=["full", "frobenius"], default="full")


def _add_prep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--normalize", action="store_true", help="scale samples to unit l2 norm")
    p.add_argument("--project-dim", type=int, default=None,
                   help="random-projection feature dimension")
    p.add_argument("--project-seed", type=_seed, default=None,
                   help="seed of the random projection (default 0); needs --project-dim")


def _resolve_hp(args) -> Hyperparams:
    """Hyperparams from the --preset triple, then the beta = lam = 0 defaults
    of a non-full --mode, then the flags that were set (each flag's dest is
    its field name); every other field keeps its Hyperparams default."""
    values = dict(zip(("alpha", "beta", "lam"), PRESETS[args.preset])) if args.preset else {}
    if args.mode != "full":
        values.update(beta=0.0, lam=0.0)
    for f in fields(Hyperparams):
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
    return Hyperparams(**values)


def _load_dataset(args) -> LabeledDataset:
    """The --data matrix, projected and then normalized as the flags ask, with
    the --labels labels, one per column, as one dataset built by
    partition_by_class. A --project-seed without --project-dim is a
    ValueError, raised before the data are read."""
    if args.project_seed is not None and args.project_dim is None:
        raise ValueError("--project-seed needs --project-dim")
    X = load_matrix(args.data)
    labels = load_labels(args.labels)
    if labels.size != X.shape[1]:
        raise ValueError(f"{args.labels}: {labels.size} labels for the {X.shape[1]} columns of {args.data}")
    if args.project_dim is not None:
        X = random_projection_features(X, args.project_dim, args.project_seed or 0)
    if args.normalize:
        X = normalize_unit_l2(X)
    return partition_by_class(X, labels)


def _write_history(path, history: solver.TrainHistory) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# converged={'true' if history.converged else 'false'} "
                 f"iterations={history.iterations_run}\n")
        fh.write("iter,obj_eq6,obj_eq9,dP,dS,dD,dW\n")
        write_rows(fh, np.column_stack([
            np.arange(1, history.iterations_run + 1), history.objective_model, history.objective_relaxed,
            history.delta_P, history.delta_S, history.delta_D, history.delta_W,
        ]), ",")


def cmd_synth(args) -> int:
    ds = make_synthetic(args.classes, args.dim, args.per_class, args.noise, args.corrupt, args.seed)
    save_matrix(args.out_prefix + ".mat", ds.X)
    save_labels(args.out_prefix + ".labels", ds.labels)
    return 0


def _check_output_path(path) -> None:
    """Raise the OSError that opening ``path`` for writing would raise when it
    is a directory or its parent directory is missing, creating no file."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def cmd_train(args) -> int:
    hp = _resolve_hp(args)
    for path in (args.model_out, args.history_out):
        if path is not None:
            _check_output_path(path)
    ds = _load_dataset(args)
    if args.print_config:
        # printed under the flag names where they differ from the field names
        flag = {"lam": "lambda", "atoms_per_class": "atoms"}
        print(*(f"{flag.get(f.name, f.name)}={getattr(hp, f.name)}" for f in fields(hp)), f"mode={args.mode}", sep="\n")
    pair, codes, weights, history = solver.train(ds, hp, mode=args.mode)
    save_model(args.model_out, pair, hp)
    if args.history_out:
        _write_history(args.history_out, history)
    return 0


def cmd_eval(args) -> int:
    pair, _ = load_model(args.model)
    ds = _load_dataset(args)
    report = classify.evaluate(ds, pair)
    c = report.confusion.shape[0]
    print(f"accuracy,{report.accuracy:.6f}")
    print("confusion," + ",".join(f"pred_{j + 1}" for j in range(c)))
    for i in range(c):
        print(f"true_{i + 1}," + ",".join(str(v) for v in report.confusion[i]))
    return 0


def cmd_ablate(args) -> int:
    hp = _resolve_hp(args)
    ds = _load_dataset(args)
    split_seed = args.split_seed if args.split_seed is not None else hp.seed
    train_ds, test_ds = split(ds, args.train_per_class, split_seed)
    variants = [
        ("alpha0", replace(hp, alpha=0.0)),
        ("beta0", replace(hp, beta=0.0)),
        ("lambda0", replace(hp, lam=0.0)),
        ("full", hp),
    ]
    # each distinct setting is trained once (beta0 and lambda0 equal full under
    # --mode frobenius), all before the table, so a failed run prints none of it
    accuracy = {}
    for _, hp_v in variants:
        if hp_v not in accuracy:
            pair = solver.train(train_ds, hp_v, mode=args.mode)[0]
            accuracy[hp_v] = classify.evaluate(test_ds, pair).accuracy
    print("variant,accuracy", *(f"{name},{accuracy[hp_v]:.6f}" for name, hp_v in variants), sep="\n")
    return 0


def cmd_inspect(args) -> int:
    pair, _ = load_model(args.model)
    ds = _load_dataset(args)
    # every value is computed, and every output path checked, before a file is opened
    D, P = pair.assembled()
    sim = metrics.atom_similarity(D)
    if ds.n_features != pair.n_features:
        raise ValueError(f"data dimension {ds.n_features} != model dimension {pair.n_features}")
    codes = P @ ds.X
    recon = D @ codes
    recon_err = float(np.linalg.norm(ds.X - recon))
    psnr_val = metrics.psnr(ds.X, recon)
    energy = metrics.block_diagonal_energy(codes, ds.labels, pair.atom_classes())
    lines = [
        f"reconstruction_error,{recon_err:.17g}",
        f"psnr,{'inf' if math.isinf(psnr_val) else format(psnr_val, '.17g')}",
        f"block_diagonal_energy,{energy:.17g}",
    ]
    pgm, csv, report = (args.out_prefix + suffix for suffix in (".atoms.pgm", ".atoms.csv", ".report.csv"))
    for path in (pgm, csv, report):
        _check_output_path(path)
    metrics.write_pgm(pgm, sim)
    metrics.write_csv_matrix(csv, sim)
    with open(report, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


# steps without a new lowest objective after which the weight reference stops
GD_PATIENCE = 50


def numeric_gradient(f, M: np.ndarray, h: float) -> np.ndarray:
    """Entrywise central-difference gradient of a scalar matrix function."""
    if h <= 0:
        raise ValueError("step h must be > 0")
    G = np.zeros(M.shape)
    for idx in np.ndindex(M.shape):
        E = np.zeros(M.shape)
        E[idx] = h
        G[idx] = (f(M + E) - f(M - E)) / (2.0 * h)
    return G


def _minimize_weights_gd(X_l: np.ndarray, P_l: np.ndarray) -> np.ndarray:
    """Plain gradient descent with backtracking on solver.weight_term over the
    matrices with diag(W) = 0 (the gradient's diagonal is zeroed), for at most
    20000 steps, to gradient norm 1e-10, or until the objective has not gone
    below its lowest value for GD_PATIENCE steps; independent of the
    closed-form update. In float64 the objective stalls first, after a few
    hundred steps about 1e-7 from the minimizer on the oracle instances; the
    sufficient-decrease test keeps accepting rounding-level steps after that,
    which leave the result where it is."""
    PX = P_l @ X_l
    N = X_l.shape[1]
    W = np.zeros((N, N))
    step, lowest, stalled = 1.0, np.inf, 0
    for _ in range(20000):
        grad = -2.0 * X_l.T @ (X_l - X_l @ W) - 2.0 * PX.T @ (PX - PX @ W) + 2.0 * W
        np.fill_diagonal(grad, 0.0)
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-10:
            break
        f0 = solver.weight_term(X_l, P_l, W)
        if f0 < lowest:
            lowest, stalled = f0, 0
        else:
            stalled += 1
            if stalled == GD_PATIENCE:
                break
        while step > 1e-16:
            W_try = W - step * grad
            if solver.weight_term(X_l, P_l, W_try) <= f0 - 0.5 * step * gnorm**2:
                break
            step *= 0.5
        W = W - step * grad
        step *= 1.3
    return W


def gradient_oracles(M: np.ndarray) -> tuple:
    """Two (name, passed, detail) checks of numeric_gradient at M: the gradients
    of ||M||_F^2 (2M) and of sum(M) (all ones) are within 1e-6 entrywise."""
    results = []
    for name, f, grad in (("gradient-quadratic", lambda A: float(np.sum(A * A)), 2.0 * M),
                          ("gradient-linear", lambda A: float(np.sum(A)), 1.0)):
        err = float(np.abs(numeric_gradient(f, M, 1e-6) - grad).max())
        results.append((name, err < 1e-6, f"max entry error {err:.3e}"))
    return tuple(results)


def weight_oracles(X_l: np.ndarray, P_l: np.ndarray) -> tuple:
    """Two (name, passed, detail) checks of W = solver.update_W(X_l, P_l): the
    numerical weight-term gradient off the diagonal is below 1e-5 (1 + ||W||),
    and W is within 1e-6 entrywise of _minimize_weights_gd."""
    W = solver.update_W(X_l, P_l)
    grad = numeric_gradient(lambda V: solver.weight_term(X_l, P_l, V), W, 1e-5)
    gnorm = float(np.linalg.norm(grad[~np.eye(W.shape[0], dtype=bool)]))
    bound = 1e-5 * (1.0 + float(np.linalg.norm(W)))
    err = float(np.abs(_minimize_weights_gd(X_l, P_l) - W).max())
    return (("weights-stationarity", gnorm < bound, f"gradient norm {gnorm:.3e} vs bound {bound:.3e}"),
            ("weights-minimizer", err < 1e-6, f"max entry difference {err:.3e}"))


def code_oracle(rngs) -> tuple:
    """(name, passed, detail): on a nonnegative one-class instance from each RNG
    of ``rngs``, 10 solver.update_S steps raise surrogate_relaxed at alpha =
    beta = lam = 0 (its two fit terms) by at most 1e-12 relative."""
    hp = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, atoms_per_class=3)
    worst = -np.inf
    for rng in rngs:
        X = rng.uniform(0.2, 1.0, (4, 6))
        ds = partition_by_class(X, np.ones(6, dtype=int))
        st = ClassState(
            D=np.abs(rng.standard_normal((4, 3))),
            P=np.abs(rng.standard_normal((3, 4))),
            S=np.abs(rng.standard_normal((3, 6))),
            W=np.zeros((6, 6)),
            h=np.ones(4),
            u=rng.uniform(0.5, 2.0, 6),
            v=rng.uniform(0.5, 2.0, 6),
        )
        prev = solver.surrogate_relaxed(ds, [st], hp)
        for _ in range(10):
            st.S = solver.update_S(X, st.D, st.P, st.S, st.u, st.v, 1e-6)
            cur = solver.surrogate_relaxed(ds, [st], hp)
            worst = max(worst, (cur - prev) / max(abs(prev), 1e-30))
            prev = cur
    return "codes-surrogate-monotone", worst <= 1e-12, f"worst relative increase {worst:.3e}"


def sweep_oracle(seeds) -> tuple:
    """(name, passed, detail): a solver.sweep_class of every class of each seed's
    _sweep_instance, diagonals frozen, raises surrogate_relaxed by at most 1e-8
    relative."""
    worst = -np.inf
    for seed in seeds:
        ds, states, hp = _sweep_instance(seed)
        s0 = solver.surrogate_relaxed(ds, states, hp)
        for l, st in enumerate(states):
            solver.sweep_class(ds, ds.class_matrix(l + 1), st, hp)
        s1 = solver.surrogate_relaxed(ds, states, hp)
        worst = max(worst, (s1 - s0) / max(abs(s0), 1e-30))
    return "sweep-surrogate-monotone", worst <= 1e-8, f"worst relative increase {worst:.3e}"


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    results = []

    def record(name: str, ok: bool, detail: str) -> None:
        results.append(ok)
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")

    for result in gradient_oracles(rng.standard_normal((3, 4))):
        record(*result)
    for result in weight_oracles(rng.uniform(1.0, 2.0, (4, 3)), rng.standard_normal((2, 4))):
        record(*result)
    record(*code_oracle([rng] * 5))
    record(*sweep_oracle(range(SWEEP_SEED_BASE + 5 * args.seed, SWEEP_SEED_BASE + 5 * args.seed + 5)))
    return 0 if all(results) else EXIT_CHECK_FAILED


def _sweep_instance(seed: int):
    """Random two-class instance (dataset, ClassState records, hyperparameters)
    for the frozen-diagonal sweep check."""
    rng = np.random.default_rng(seed)
    c, n, N_l, k = 2, 6, 5, 3
    X = np.concatenate([rng.uniform(1.0, 2.0, (n, N_l)) for _ in range(c)], axis=1)
    ds = partition_by_class(X, np.repeat(np.arange(1, c + 1), N_l))
    hp = Hyperparams(alpha=0.05, beta=0.05, lam=1e-3, tau=1e-6, atoms_per_class=k, seed=seed)
    states = init_state(ds, hp)
    for st in states:
        D_l = np.abs(rng.standard_normal((n, k)))
        st.D = D_l / np.linalg.norm(D_l)
    return ds, states, hp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dictpair",
                                     description="discriminative dictionary-pair learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--corrupt", type=float, default=0.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a dictionary pair")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    _add_hyper_flags(p)
    _add_prep_flags(p)
    p.add_argument("--model-out", required=True)
    p.add_argument("--history-out", default=None)
    p.add_argument("--print-config", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="classify a labeled dataset and print accuracy + confusion")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--model", required=True)
    _add_prep_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="compare the full model against single-term ablations")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    _add_hyper_flags(p)
    _add_prep_flags(p)
    p.add_argument("--train-per-class", type=int, required=True)
    p.add_argument("--split-seed", type=_seed, default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("inspect", help="export heat maps and reconstruction metrics")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    _add_prep_flags(p)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("gradcheck", help="run the numerical oracle suite")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError is a ValueError, so the numerical clause comes first
    except (solver.NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
