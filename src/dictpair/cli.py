"""Command-line interface.

Commands: synth (write a synthetic dataset), train, eval, ablate (accuracy of
the three single-term ablations against the full model), inspect (heat maps and
reconstruction metrics), gradcheck (numerical oracle suite).

Exit codes: 0 success, 1 oracle-check failure, 2 usage error, 3 numerical
failure. Every command is deterministic given its flags.
"""

import argparse
import math
import sys
from dataclasses import replace

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
)
from .model import Hyperparams, init_state, load_model, save_model

# alpha, beta, lambda triples for the shipped experiment presets
PRESETS = {
    "yaleb": (1e-4, 5e-3, 1e-4),
    "ar": (5e-5, 1.0, 1e-2),
    "pie": (1e-5, 5e-3, 5e-5),
    "umist": (5e-3, 5e-2, 5e-5),
    "scene15": (5e-5, 5e-5, 5e-5),
    "eth80": (10.0, 1e-3, 0.5),
}
DEFAULT_PRESET = "yaleb"

EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# first seed of the pinned instance family for the frozen-sweep check
SWEEP_SEED_BASE = 366


class UsageError(ValueError):
    pass


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                   help="named alpha/beta/lambda triple (default: yaleb values)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--tau", type=float, default=1e-6)
    p.add_argument("--atoms", type=int, default=5, help="atoms per class")
    p.add_argument("--max-iter", type=int, default=30)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["full", "reduced", "frobenius"], default="full")


def _add_prep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--normalize", action="store_true", help="scale samples to unit l2 norm")
    p.add_argument("--project-dim", type=int, default=None,
                   help="random-projection feature dimension")
    p.add_argument("--project-seed", type=int, default=0)
    p.add_argument("--prep-order", choices=["project-then-normalize", "normalize-then-project"],
                   default="project-then-normalize")


def _resolve_hp(args) -> Hyperparams:
    base = PRESETS[args.preset] if args.preset else PRESETS[DEFAULT_PRESET]
    alpha, beta, lam = base
    if args.mode in ("reduced", "frobenius"):
        beta, lam = 0.0, 0.0
    if args.alpha is not None:
        alpha = args.alpha
    if args.beta is not None:
        beta = args.beta
    if args.lam is not None:
        lam = args.lam
    if args.mode in ("reduced", "frobenius") and (beta != 0.0 or lam != 0.0):
        raise UsageError(f"--mode {args.mode} requires beta = 0 and lambda = 0")
    try:
        return Hyperparams(
            alpha=alpha, beta=beta, lam=lam, tau=args.tau, atoms_per_class=args.atoms,
            max_iter=args.max_iter, tol=args.tol, seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_dataset(args) -> LabeledDataset:
    X = load_matrix(args.data)
    labels = load_labels(args.labels)
    ds = partition_by_class(X, labels)
    return _preprocess(ds, args)


def _preprocess(ds: LabeledDataset, args) -> LabeledDataset:
    if getattr(args, "project_dim", None) is None and not getattr(args, "normalize", False):
        return ds
    X = ds.X
    steps = []
    if getattr(args, "project_dim", None) is not None:
        steps.append("project")
    if getattr(args, "normalize", False):
        steps.append("normalize")
    if getattr(args, "prep_order", "project-then-normalize") == "normalize-then-project":
        steps = steps[::-1]
    for step in steps:
        if step == "project":
            X = random_projection_features(X, args.project_dim, args.project_seed)
        else:
            X = normalize_unit_l2(X)
    return partition_by_class(X, ds.labels)


def _print_config(args, hp: Hyperparams | None = None, extra: dict | None = None) -> None:
    if not getattr(args, "print_config", False):
        return
    items = {}
    if hp is not None:
        items.update(
            alpha=hp.alpha, beta=hp.beta, **{"lambda": hp.lam}, tau=hp.tau,
            atoms=hp.atoms_per_class, max_iter=hp.max_iter, tol=hp.tol, seed=hp.seed,
        )
    if extra:
        items.update(extra)
    for key, val in items.items():
        print(f"{key}={val}")


def _write_history(path, history: solver.TrainHistory) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# converged={'true' if history.converged else 'false'} "
                 f"iterations={history.iterations_run}\n")
        fh.write("iter,obj_eq6,obj_eq9,dP,dS,dD,dW\n")
        for i in range(history.iterations_run):
            fh.write(
                f"{i + 1},{history.objective_model[i]:.17g},{history.objective_relaxed[i]:.17g},"
                f"{history.delta_P[i]:.17g},{history.delta_S[i]:.17g},"
                f"{history.delta_D[i]:.17g},{history.delta_W[i]:.17g}\n"
            )


def cmd_synth(args) -> int:
    ds = make_synthetic(args.classes, args.dim, args.per_class, args.noise, args.corrupt, args.seed)
    _print_config(args, extra={
        "classes": args.classes, "dim": args.dim, "per_class": args.per_class,
        "noise": args.noise, "corrupt": args.corrupt, "seed": args.seed,
    })
    save_matrix(args.out_prefix + ".mat", ds.X)
    save_labels(args.out_prefix + ".labels", ds.labels)
    return 0


def cmd_train(args) -> int:
    hp = _resolve_hp(args)
    ds = _load_dataset(args)
    _print_config(args, hp, extra={"mode": args.mode})
    pair, codes, weights, history = solver.train(ds, hp, mode=args.mode, self_check=args.self_check)
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
    split_seed = args.split_seed if args.split_seed is not None else args.seed
    train_ds, test_ds = split(ds, args.train_per_class, split_seed)
    _print_config(args, hp, extra={"train_per_class": args.train_per_class, "split_seed": split_seed})
    variants = [
        ("alpha0", replace(hp, alpha=0.0)),
        ("beta0", replace(hp, beta=0.0)),
        ("lambda0", replace(hp, lam=0.0)),
        ("full", hp),
    ]
    print("variant,accuracy")
    for name, hp_v in variants:
        pair, _, _, _ = solver.train(train_ds, hp_v)
        report = classify.evaluate(test_ds, pair)
        print(f"{name},{report.accuracy:.6f}")
    return 0


def cmd_inspect(args) -> int:
    pair, _ = load_model(args.model)
    ds = _load_dataset(args)
    D, P = pair.assembled()
    sim = metrics.atom_similarity(D)
    metrics.write_pgm(args.out_prefix + ".atoms.pgm", sim)
    metrics.write_csv_matrix(args.out_prefix + ".atoms.csv", sim)
    recon_err = metrics.reconstruction_error(ds.X, pair)
    recon = D @ (P @ ds.X)
    psnr_val = metrics.psnr(ds.X, recon)
    codes = P @ ds.X
    energy = metrics.block_diagonal_energy(codes, ds.labels, pair.atom_classes())
    lines = [
        f"reconstruction_error,{recon_err:.17g}",
        f"psnr,{'inf' if math.isinf(psnr_val) else format(psnr_val, '.17g')}",
        f"block_diagonal_energy,{energy:.17g}",
    ]
    with open(args.out_prefix + ".report.csv", "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


def _weights_objective(X_l: np.ndarray, P_l: np.ndarray, W: np.ndarray) -> float:
    PX = P_l @ X_l
    return (
        np.linalg.norm(X_l - X_l @ W) ** 2
        + np.linalg.norm(PX - PX @ W) ** 2
        + np.linalg.norm(W) ** 2
    )


def _minimize_weights_gd(X_l: np.ndarray, P_l: np.ndarray, max_iter: int = 20000) -> np.ndarray:
    """Plain gradient descent with backtracking on the weight objective,
    run to gradient norm 1e-10; independent of the closed-form solve."""
    PX = P_l @ X_l
    N = X_l.shape[1]
    W = np.zeros((N, N))
    step = 1.0
    for _ in range(max_iter):
        grad = -2.0 * X_l.T @ (X_l - X_l @ W) - 2.0 * PX.T @ (PX - PX @ W) + 2.0 * W
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-10:
            break
        f0 = _weights_objective(X_l, P_l, W)
        while step > 1e-16:
            W_try = W - step * grad
            if _weights_objective(X_l, P_l, W_try) <= f0 - 0.5 * step * gnorm**2:
                break
            step *= 0.5
        W = W - step * grad
        step *= 1.3
    return W


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    results = []

    def record(name: str, ok: bool, detail: str) -> None:
        results.append(ok)
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")

    # gradient oracle on a quadratic: f(M) = ||M||_F^2, grad = 2M
    M = rng.standard_normal((3, 4))
    G = solver.numeric_gradient(lambda A: float(np.sum(A * A)), M, 1e-6)
    err = float(np.abs(G - 2.0 * M).max())
    record("gradient-quadratic", err < 1e-6, f"max entry error {err:.3e}")

    # gradient oracle on a linear map: f(M) = sum(M), grad = all-ones
    G = solver.numeric_gradient(lambda A: float(np.sum(A)), M, 1e-6)
    err = float(np.abs(G - 1.0).max())
    record("gradient-linear", err < 1e-6, f"max entry error {err:.3e}")

    # analysis solve residual on random instances
    hp = Hyperparams(alpha=0.05, beta=0.05, lam=1e-3, tau=1e-6, atoms_per_class=3, seed=args.seed)
    worst = 0.0
    for _ in range(5):
        X_l = rng.uniform(1.0, 2.0, (5, 8))
        Xbar_l = rng.uniform(1.0, 2.0, (5, 6))
        S_l = np.abs(rng.standard_normal((3, 8)))
        W_l = rng.standard_normal((8, 8))
        np.fill_diagonal(W_l, 0.0)
        u = rng.uniform(0.5, 2.0, 8)
        h = rng.uniform(0.5, 2.0, 5)
        ds = partition_by_class(np.hstack([X_l, Xbar_l]), np.repeat([1, 2], [8, 6]))
        m, mbar = solver.compute_means(rng.standard_normal((3, 5)), X_l, ds.sample_sum, ds.n_samples)
        A, B, _ = solver.analysis_system(X_l, ds.gram, S_l, W_l, u, h, m, mbar, hp)
        P_l, _ = solver.update_P(X_l, ds.gram, S_l, W_l, u, h, m, mbar, hp)
        worst = max(worst, np.linalg.norm(P_l @ A - B) / np.linalg.norm(B))
    record("analysis-solve-residual", worst < 1e-8, f"worst relative residual {worst:.3e}")

    # synthesis solve residual
    worst = 0.0
    for _ in range(5):
        X_l = rng.uniform(1.0, 2.0, (5, 8))
        S_l = np.abs(rng.standard_normal((3, 8))) + 0.1
        v = rng.uniform(0.5, 2.0, 8)
        D_pre = solver.solve_synthesis(X_l, S_l, v, 1e-6)
        A = (S_l * v) @ S_l.T + 1e-6 * np.eye(3)
        B = (X_l * v) @ S_l.T
        worst = max(worst, np.linalg.norm(D_pre @ A - B) / np.linalg.norm(B))
    record("synthesis-solve-residual", worst < 1e-8, f"worst relative residual {worst:.3e}")

    # weight update: stationarity of the pre-zeroing solution
    X_l = rng.uniform(1.0, 2.0, (4, 3))
    P_l = rng.standard_normal((2, 4))
    PX = P_l @ X_l
    Gm = X_l.T @ X_l + PX.T @ PX
    W_star = np.linalg.solve(Gm + np.eye(3), Gm)
    if args.inject_sign_flip:
        W_star = -W_star
    grad = solver.numeric_gradient(lambda W: _weights_objective(X_l, P_l, W), W_star, 1e-5)
    gnorm = float(np.linalg.norm(grad))
    bound = 1e-5 * (1.0 + float(np.linalg.norm(W_star)))
    record("weights-stationarity", gnorm < bound, f"gradient norm {gnorm:.3e} vs bound {bound:.3e}")

    # weight update matches an independent numerical minimizer
    W_gd = _minimize_weights_gd(X_l, P_l)
    err = float(np.abs(W_gd - np.linalg.solve(Gm + np.eye(3), Gm)).max())
    record("weights-minimizer", err < 1e-6, f"max entry difference {err:.3e}")

    # code update: surrogate non-increasing over 10 consecutive updates
    def code_surrogate(X, D, P, S, u, v):
        R1 = X - D @ S
        R2 = S - P @ X
        return 2.0 * float(np.sum((R1 * R1) * v)) + 2.0 * float(np.sum((R2 * R2) * u))

    worst = -np.inf
    for _ in range(5):
        X = rng.uniform(0.2, 1.0, (4, 6))
        D = np.abs(rng.standard_normal((4, 3)))
        P = np.abs(rng.standard_normal((3, 4)))
        S = np.abs(rng.standard_normal((3, 6)))
        u = rng.uniform(0.5, 2.0, 6)
        v = rng.uniform(0.5, 2.0, 6)
        prev = code_surrogate(X, D, P, S, u, v)
        for _ in range(10):
            S = solver.update_S(X, D, P, S, u, v, 1e-6)
            cur = code_surrogate(X, D, P, S, u, v)
            worst = max(worst, (cur - prev) / max(abs(prev), 1e-30))
            prev = cur
    record("codes-surrogate-monotone", worst <= 1e-12, f"worst relative increase {worst:.3e}")

    # full sweep with frozen diagonals never increases the quadratic surrogate
    worst = -np.inf
    for inst in range(5):
        ds, pair, codes, weights, rw, hp_s = _sweep_instance(SWEEP_SEED_BASE + inst)
        s0 = solver.surrogate_relaxed(ds, pair, codes, weights, rw, hp_s)
        for l in range(ds.n_classes):
            solver.sweep_class(ds, l, pair, codes, weights, rw, hp_s)
        s1 = solver.surrogate_relaxed(ds, pair, codes, weights, rw, hp_s)
        worst = max(worst, (s1 - s0) / max(abs(s0), 1e-30))
    record("sweep-surrogate-monotone", worst <= 1e-8, f"worst relative increase {worst:.3e}")

    return 0 if all(results) else EXIT_CHECK_FAILED


def _sweep_instance(seed: int):
    """Random two-class instance for the frozen-diagonal sweep check."""
    rng = np.random.default_rng(seed)
    c, n, N_l, k = 2, 6, 5, 3
    X = np.concatenate([rng.uniform(1.0, 2.0, (n, N_l)) for _ in range(c)], axis=1)
    ds = partition_by_class(X, np.repeat(np.arange(1, c + 1), N_l))
    hp = Hyperparams(alpha=0.05, beta=0.05, lam=1e-3, tau=1e-6, atoms_per_class=k, seed=seed)
    pair, codes, weights, rw = init_state(ds, hp)
    for l in range(c):
        D_l = np.abs(rng.standard_normal((n, k)))
        pair.D[l] = D_l / np.linalg.norm(D_l)
    return ds, pair, codes, weights, rw, hp


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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--print-config", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a dictionary pair")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    _add_hyper_flags(p)
    _add_prep_flags(p)
    p.add_argument("--model-out", required=True)
    p.add_argument("--history-out", default=None)
    p.add_argument("--self-check", action="store_true",
                   help="verify the linear-solve residuals every iteration")
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
    p.add_argument("--split-seed", type=int, default=None)
    p.add_argument("--print-config", action="store_true")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("inspect", help="export heat maps and reconstruction metrics")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    _add_prep_flags(p)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("gradcheck", help="run the numerical oracle suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-sign-flip", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (solver.NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
