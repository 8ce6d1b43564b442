"""The three benchmark workloads and the loop that measures them.

Each workload has a set-up, which makes its inputs, and a round: a fixed unit
of work that is repeated until the run's seconds are up. Set-ups are timed
apart and run between the rounds, so that they sample the whole run. Timings
of the rounds are means over the run: the machine's speed drifts between fast
and slow phases, and a mean over a run varies less from run to run than a
median, which jumps from one phase to the other. README.md explains why each
workload exists.
"""

import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dictpair
from dictpair.cli import PRESETS
from checks import (
    Ops,
    confusion,
    prediction_mismatches,
    reference_residuals,
    same_bits,
    same_model,
    trained_problems,
)
from tracer import ROUND_TARGETS, SETUP_TARGETS, Tracer

# classify_p50_us is the mean of the medians of windows of this many
# consecutive classify_sample calls. A window lasts about 0.1 s, so the
# machine's speed is the same throughout it; a median over longer stretches
# jumps between the machine's fast and slow phases.
P50_WINDOW = 256

# A tol no objective change can fall below, so face-scale training runs
# exactly the configured number of iterations.
NO_EARLY_STOP = 1e-300


@dataclass(frozen=True)
class FaceConfig:
    """YaleB-sized synthetic set, trained for a fixed number of iterations.

    The data are clean: with 5% corruption at this shape accuracy falls to
    about 0.04-0.06, near chance (1/38); desk_sweep covers corruption.
    """

    classes: int = 38
    dim: int = 504
    per_class: int = 64
    train_per_class: int = 32
    noise: float = 0.05
    atoms: int = 5
    # two iterations, so that the objective rise between iterations shows in
    # solver.objective_increases, while a round stays near 7 s
    iterations: int = 2
    preset: str = "yaleb"
    accuracy_floor: float = 0.5
    # set-ups run after each round; one takes about 30 ms
    setups_per_round: int = 5
    # the trained model is reloaded and served this many times per round, so
    # the short load and classify timings get more samples per run
    reloads: int = 2


@dataclass(frozen=True)
class DeskConfig:
    """Grid of desk-scale trainings under the default stopping rule."""

    classes: int = 3
    dim: int = 20
    per_class: int = 25
    train_per_class: int = 15
    noise: float = 0.1
    corrupt_fracs: tuple = (0.0, 0.1)
    draws: int = 2
    presets: tuple = tuple(sorted(PRESETS))
    init_seeds: int = 4
    atoms: int = 2
    accuracy_floor: float = 0.55
    setups_per_round: int = 20


@dataclass(frozen=True)
class ServeConfig:
    """A face-scale model served on a held-out 504 x 2432 test matrix."""

    classes: int = 38
    dim: int = 504
    per_class: int = 96
    train_per_class: int = 32
    noise: float = 0.05
    atoms: int = 5
    iterations: int = 1
    preset: str = "yaleb"
    accuracy_floor: float = 0.5
    # one set-up (about 4 s) runs after each round
    setups_per_round: int = 1
    # the files are loaded and served this many times per round, so the load
    # and classify timings get more samples per run
    serves: int = 3


@dataclass
class Round:
    """What one round measured."""

    wall_s: float = 0.0
    train_s: float = 0.0
    eval_s: float = 0.0
    eval_samples: int = 0
    load_s: list[float] = field(default_factory=list)
    latencies_ns: list[int] = field(default_factory=list)
    # 99th percentile latency of each pass over a test set, in us
    pass_p99_us: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    iterations: int = 0
    objective_increases: int = 0

    @property
    def accuracy(self) -> float:
        return float(np.mean(self.accuracies)) if self.accuracies else 0.0


@dataclass
class Setups:
    """What the set-ups of one run measured: one entry per set-up, and the
    layer figures of each traced set-up."""

    times_s: list[float] = field(default_factory=list)
    train_s: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)

    def add(self, out: dict) -> None:
        self.times_s.append(out["time_s"])
        self.train_s.extend(out.get("train_s", []))
        if out["layers"]:
            self.layers.append(out["layers"])

    def layer_means(self) -> dict:
        """Mean per set-up of each traced layer figure."""
        out = {}
        for layers in self.layers:
            for name, figures in layers.items():
                for f, v in figures.items():
                    out.setdefault(name, {}).setdefault(f, 0.0)
                    out[name][f] += v / len(self.layers)
        return out


def _hyperparams(preset: str, atoms: int, seed: int, **kw) -> dictpair.Hyperparams:
    alpha, beta, lam = PRESETS[preset]
    return dictpair.Hyperparams(alpha=alpha, beta=beta, lam=lam, atoms_per_class=atoms, seed=seed, **kw)


def _face_hyperparams(cfg, seed: int) -> dictpair.Hyperparams:
    return _hyperparams(cfg.preset, cfg.atoms, seed, max_iter=cfg.iterations, tol=NO_EARLY_STOP)


def train_checked(ds, hp, ops: Ops, r: Round):
    """One timed, checked train call; the model, or None if it raised."""
    ops.attempt()
    t0 = time.perf_counter()
    try:
        pair, codes, weights, history = dictpair.train(ds, hp)
    except Exception as exc:  # count the failure and keep measuring
        ops.fail(f"train raised {exc!r}")
        return None
    finally:
        r.train_s += time.perf_counter() - t0
    problems = trained_problems(pair, codes, weights, history)
    if problems:
        ops.fail("train: " + "; ".join(problems[:3]))
    obj = history.objective_model
    r.iterations += history.iterations_run
    r.objective_increases += sum(b > a for a, b in zip(obj, obj[1:]))
    return pair


def reload_checked(pair, hp, path: Path, ops: Ops, r: Round):
    """Save the model, load it back (timed) and check it is bit-identical."""
    dictpair.save_model(path, pair, hp)
    ops.attempt()
    t0 = time.perf_counter()
    try:
        loaded, _ = dictpair.load_model(path)
    except (OSError, ValueError) as exc:
        ops.fail(f"load_model raised {exc!r}")
        return pair
    finally:
        r.load_s.append(time.perf_counter() - t0)
    if not same_model(pair, loaded):
        ops.fail("reloaded model differs from the saved one")
    return loaded


def classify_checked(test, pair, ops: Ops, r: Round) -> None:
    """Timed evaluate, then one timed classify_sample per test column, both
    checked against a batched residual reference computed here."""
    ops.attempt()
    t0 = time.perf_counter()
    try:
        report = dictpair.evaluate(test, pair)
    except Exception as exc:  # count the failure and keep measuring
        ops.fail(f"evaluate raised {exc!r}")
        return
    finally:
        r.eval_s += time.perf_counter() - t0
    r.eval_samples += test.n_samples
    r.accuracies.append(report.accuracy)

    predicted = np.zeros(test.n_samples, dtype=int)
    raised = np.zeros(test.n_samples, dtype=bool)
    first = len(r.latencies_ns)
    for j in range(test.n_samples):
        y = test.X[:, j]
        ops.attempt()
        t0 = time.perf_counter_ns()
        try:
            predicted[j] = dictpair.classify_sample(y, pair)
        except Exception as exc:  # count the failure and keep measuring
            raised[j] = True
            ops.fail(f"classify_sample raised {exc!r}")
        r.latencies_ns.append(time.perf_counter_ns() - t0)
    r.pass_p99_us.append(float(np.percentile(r.latencies_ns[first:], 99)) / 1e3)

    returned = np.flatnonzero(~raised)
    in_range = returned[(predicted[returned] >= 1) & (predicted[returned] <= pair.n_classes)]
    bad = returned.size - in_range.size + prediction_mismatches(
        predicted[in_range], reference_residuals(test.X[:, in_range], pair)
    ).size
    if bad:
        ops.fail(f"classify_sample disagrees with the batched reference on {bad} samples", n=bad)
    elif not raised.any() and not np.array_equal(
        report.confusion, confusion(test.labels, predicted, pair.n_classes)
    ):
        ops.fail("evaluate confusion differs from the classify_sample predictions")


def check_accuracy(r: Round, floor: float, ops: Ops) -> None:
    if r.accuracies and not r.accuracy >= floor:
        ops.fail(f"accuracy {r.accuracy:.4f} below the floor {floor}")


def timed_setup(once, trace: bool) -> dict:
    """Run one set-up; its seconds and, with trace, its layer figures."""
    tracer = Tracer(SETUP_TARGETS) if trace else None
    t0 = time.perf_counter()
    with tracer or nullcontext():
        once()
    elapsed = time.perf_counter() - t0
    return {"time_s": elapsed, "layers": layer_figures(tracer, 1) if tracer else {}}


class FaceTrain:
    def __init__(self, cfg: FaceConfig, seed: int, work_dir: Path):
        self.cfg, self.seed, self.work_dir = cfg, seed, work_dir
        self.hp = _face_hyperparams(cfg, seed)

    def setup(self, trace: bool, ops: Ops) -> dict:
        cfg = self.cfg

        def once():
            ds = dictpair.make_synthetic(cfg.classes, cfg.dim, cfg.per_class, cfg.noise, 0.0, self.seed)
            self.train_set, self.test_set = dictpair.split(ds, cfg.train_per_class, self.seed)

        return timed_setup(once, trace)

    def round(self, ops: Ops) -> Round:
        r = Round()
        pair = train_checked(self.train_set, self.hp, ops, r)
        if pair is not None:
            for _ in range(self.cfg.reloads):
                loaded = reload_checked(pair, self.hp, self.work_dir / "model.txt", ops, r)
                classify_checked(self.test_set, loaded, ops, r)
        check_accuracy(r, self.cfg.accuracy_floor, ops)
        return r


class DeskSweep:
    def __init__(self, cfg: DeskConfig, seed: int, work_dir: Path):
        self.cfg, self.seed, self.work_dir = cfg, seed, work_dir

    def setup(self, trace: bool, ops: Ops) -> dict:
        cfg = self.cfg

        def once():
            self.splits = []
            for corrupt in cfg.corrupt_fracs:
                for d in range(cfg.draws):
                    data_seed = self.seed * cfg.draws + d
                    ds = dictpair.make_synthetic(cfg.classes, cfg.dim, cfg.per_class, cfg.noise, corrupt, data_seed)
                    self.splits.append(dictpair.split(ds, cfg.train_per_class, data_seed))

        return timed_setup(once, trace)

    def round(self, ops: Ops) -> Round:
        r = Round()
        cfg = self.cfg
        for train_set, test_set in self.splits:
            for preset in cfg.presets:
                for init_seed in range(cfg.init_seeds):
                    hp = _hyperparams(preset, cfg.atoms, init_seed)
                    pair = train_checked(train_set, hp, ops, r)
                    if pair is not None:
                        pair = reload_checked(pair, hp, self.work_dir / "model.txt", ops, r)
                        classify_checked(test_set, pair, ops, r)
        check_accuracy(r, cfg.accuracy_floor, ops)
        return r


def serve_setup(cfg: ServeConfig, seed: int, work_dir: Path, trace: bool) -> dict:
    """Train a face-scale model and write it, the test matrix and the labels.

    Runs in a process of its own so that its training leaves no mark on the
    peak RSS of the process that measures serving. After the timed part it
    also writes the written arrays in binary form, for the bit-exact reload
    check.
    """
    hp = _face_hyperparams(cfg, seed)
    ops = Ops()
    r = Round()
    written = {}

    def once():
        ds = dictpair.make_synthetic(cfg.classes, cfg.dim, cfg.per_class, cfg.noise, 0.0, seed)
        train_set, test_set = dictpair.split(ds, cfg.train_per_class, seed)
        pair = train_checked(train_set, hp, ops, r)
        if pair is None:
            raise RuntimeError("set-up training failed: " + "; ".join(ops.reasons))
        dictpair.save_model(work_dir / "model.txt", pair, hp)
        dictpair.save_matrix(work_dir / "test.mat", test_set.X)
        dictpair.save_labels(work_dir / "test.labels", test_set.labels)
        written.update(pair=pair, test_set=test_set)

    out = timed_setup(once, trace)
    pair, test_set = written["pair"], written["test_set"]
    blocks = {f"{kind}{l}": M for kind, Ms in (("D", pair.D), ("P", pair.P)) for l, M in enumerate(Ms)}
    np.savez(work_dir / "written.npz", X=test_set.X, labels=test_set.labels, **blocks)
    return {**out, "train_s": [r.train_s], "attempted": ops.attempted, "failed": ops.failed, "reasons": ops.reasons}


SERVE_SETUP = Path(__file__).resolve().parent / "serve_setup.py"


class ServeEval:
    def __init__(self, cfg: ServeConfig, seed: int, work_dir: Path):
        self.cfg, self.seed, self.work_dir = cfg, seed, work_dir
        self.written_model = None

    def setup(self, trace: bool, ops: Ops) -> dict:
        """Run serve_setup in a child interpreter; after the first, read back what it wrote.

        The child is waited for, and killed on a timeout, so no process
        outlives a set-up. Every set-up writes the same files, as the inputs
        and the training are seeded; reading them back once keeps peak_rss_mb
        the same in every run.
        """
        request, result = self.work_dir / "setup-request.json", self.work_dir / "setup-result.json"
        request.write_text(json.dumps({"config": dataclasses.asdict(self.cfg), "seed": self.seed,
                                       "work_dir": str(self.work_dir), "trace": trace}), encoding="ascii")
        subprocess.run([sys.executable, str(SERVE_SETUP), str(request), str(result)],
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True, timeout=150)
        out = json.loads(result.read_text(encoding="ascii"))
        ops.merge(out["attempted"], out["failed"], out["reasons"])
        if self.written_model is not None:
            return out
        with np.load(self.work_dir / "written.npz") as z:
            c = sum(name.startswith("D") for name in z.files)
            self.written_X, self.written_labels = z["X"], z["labels"]
            self.written_model = dictpair.DictionaryPair(
                D=[z[f"D{l}"] for l in range(c)], P=[z[f"P{l}"] for l in range(c)]
            )
        return out

    def round(self, ops: Ops) -> Round:
        r = Round()
        for _ in range(self.cfg.serves):
            self.serve(ops, r)
        check_accuracy(r, self.cfg.accuracy_floor, ops)
        return r

    def serve(self, ops: Ops, r: Round) -> None:
        """Load the model and the test set from files, check them, classify."""
        t0 = time.perf_counter()
        try:
            ops.attempt(3)
            pair, _ = dictpair.load_model(self.work_dir / "model.txt")
            X = dictpair.load_matrix(self.work_dir / "test.mat")
            labels = dictpair.load_labels(self.work_dir / "test.labels")
            test_set = dictpair.partition_by_class(X, labels)
        except (OSError, ValueError) as exc:
            ops.fail(f"loading raised {exc!r}", n=3)
            return
        finally:
            r.load_s.append(time.perf_counter() - t0)
        for what, same in (("model", same_model(pair, self.written_model)),
                           ("test matrix", same_bits(X, self.written_X)),
                           ("labels", same_bits(labels, self.written_labels))):
            if not same:
                ops.fail(f"reloaded {what} differs from what set-up wrote")
        classify_checked(test_set, pair, ops, r)


def layer_figures(tracer: Tracer, units: int) -> dict:
    """Per-unit calls, self seconds and computed bytes of every traced name."""
    return {
        name: {"calls": t.calls / units, "self_s": t.self_s / units, "total_s": t.total_s / units,
               "bytes_computed": t.bytes_computed / units}
        for name, t in tracer.totals().items()
    }


def run_rounds(workload, seconds: float, ops: Ops, setups: Setups, trace: bool,
               tracer: Tracer | None = None) -> list[Round]:
    """Start rounds until the seconds are up, at least one, each followed by
    the workload's set-ups; with a tracer, trace the rounds only."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if tracer:
            tracer.new_trace()
        t0 = time.perf_counter()
        with tracer or nullcontext():
            r = workload.round(ops)
        r.wall_s = time.perf_counter() - t0
        rounds.append(r)
        for _ in range(workload.cfg.setups_per_round):
            setups.add(workload.setup(trace, ops))
    return rounds


WORKLOADS = {
    "face_train": (FaceTrain, FaceConfig),
    "desk_sweep": (DeskSweep, DeskConfig),
    "serve_eval": (ServeEval, ServeConfig),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "eval_samples_per_s": "1/s",
    "classify_p50_us": "us",
    "classify_p99_us": "us",
    "load_s": "s",
    "accuracy": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer figures of a traced run: "<module>.<function>.<field>" comes from
# the spans of that function; the rest are listed in per_layer() below.
_TRACED = {
    "solver.train": ("calls", "self_s"),
    "solver.analysis_system": ("calls", "self_s"),
    "solver.update_P": ("calls", "self_s"),
    "solver.compute_means": ("calls", "self_s"),
    "solver.objective_model": ("calls", "self_s"),
    "solver.objective_relaxed": ("calls", "self_s"),
    "solver.update_S": ("calls", "self_s"),
    "solver.solve_synthesis": ("calls", "self_s"),
    "solver.update_reweights": ("calls", "self_s"),
    "solver.update_W": ("calls", "self_s"),
    "model.init_state": ("calls", "self_s"),
    "model.save_model": ("calls", "self_s"),
    "model.load_model": ("calls", "self_s"),
    "data.complement_matrix": ("calls", "self_s", "bytes_computed"),
    "data.load_matrix": ("calls", "self_s"),
    "data.load_labels": ("calls", "self_s"),
    "data.save_matrix": ("calls", "self_s"),
    "data.make_synthetic": ("calls", "self_s"),
    "classify.class_residuals": ("calls", "self_s"),
    "classify.evaluate": ("calls", "self_s"),
}
_FIELD_UNITS = {"calls": "count", "self_s": "s", "bytes_computed": "B"}

PER_LAYER_UNITS = {
    **{f"{name}.{f}": _FIELD_UNITS[f] for name, fields in _TRACED.items() for f in fields},
    "solver.train.uncovered_s": "s",
    "solver.iterations": "count",
    "solver.objective_increases": "count",
    "trace.overhead_pct": "%",
    "error_rate": "ratio",
}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _train_s(setups: Setups, rounds: list[Round]) -> float:
    """Mean train time per round; serve_eval trains only in its set-ups."""
    if any(r.train_s for r in rounds):
        return mean([r.train_s for r in rounds])
    return mean(setups.train_s)


def windowed_p50_us(latencies_ns: list[int]) -> float:
    """Mean over windows of P50_WINDOW consecutive calls of each window's median."""
    windows = np.array_split(np.asarray(latencies_ns), max(1, len(latencies_ns) // P50_WINDOW))
    return float(np.mean([np.median(w) for w in windows])) / 1e3 if latencies_ns else 0.0


def end_to_end(setups: Setups, rounds: list[Round], peak_rss_mb: float) -> dict:
    # p99 needs more calls than a p50 window to have ten beyond it: it is
    # taken per pass over the test set (1216 or 2432 calls), and the median
    # over the passes keeps a burst of slow calls in one pass from moving it
    eval_s = sum(r.eval_s for r in rounds)
    return {
        "setup_s": median(setups.times_s),
        "train_s": _train_s(setups, rounds),
        "eval_samples_per_s": sum(r.eval_samples for r in rounds) / eval_s if eval_s else 0.0,
        "classify_p50_us": windowed_p50_us([x for r in rounds for x in r.latencies_ns]),
        "classify_p99_us": median([x for r in rounds for x in r.pass_p99_us]),
        "load_s": mean([x for r in rounds for x in r.load_s]),
        "accuracy": median([r.accuracy for r in rounds]),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(setups: Setups, plain: list[Round], traced: list[Round], tracer: Tracer, ops: Ops) -> dict:
    """Layer figures per round of the traced rounds, plus per set-up of the
    traced set-ups, and the tracing overhead against the untraced rounds."""
    rounds = layer_figures(tracer, len(traced))
    setup = setups.layer_means()
    out = {}
    for name, fields in _TRACED.items():
        for f in fields:
            out[f"{name}.{f}"] = rounds.get(name, {}).get(f, 0.0) + setup.get(name, {}).get(f, 0.0)
    train = rounds.get("solver.train", {})
    covered = train.get("total_s", 0.0) - train.get("self_s", 0.0)
    untraced_train = mean([r.train_s for r in plain])
    out["solver.train.uncovered_s"] = untraced_train - covered if untraced_train else 0.0
    out["solver.iterations"] = median([r.iterations for r in traced])
    out["solver.objective_increases"] = median([r.objective_increases for r in traced])
    out["trace.overhead_pct"] = 100.0 * (mean([r.wall_s for r in traced]) / mean([r.wall_s for r in plain]) - 1.0)
    out["error_rate"] = ops.error_rate
    return out


@dataclass
class Result:
    metrics: dict
    units: dict
    ops: Ops
    details: dict
    tracer: Tracer | None = None


def measure(workload, seconds: float, trace: bool) -> Result:
    """Set up, run rounds and set-ups for the given seconds, and compute the metrics.

    Untraced, the metrics are the end-to-end ones. Traced, half the seconds
    run untraced rounds and half traced ones, and the metrics are the
    per-layer ones, with the tracing overhead measured between the halves.
    Set-ups are traced in every part of a traced run, apart from the rounds.
    """
    ops = Ops()
    setups = Setups()
    setups.add(workload.setup(trace, ops))
    if not trace:
        rounds = run_rounds(workload, seconds, ops, setups, trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(setups, rounds, peak_rss_mb)
        units, tracer = END_TO_END_UNITS, None
    else:
        plain = run_rounds(workload, seconds / 2, ops, setups, trace)
        tracer = Tracer(ROUND_TARGETS)
        rounds = run_rounds(workload, seconds / 2, ops, setups, trace, tracer)
        if {r.accuracy for r in plain} != {r.accuracy for r in rounds}:
            ops.fail("traced and untraced rounds report different accuracies")
        metrics = per_layer(setups, plain, rounds, tracer, ops)
        units = PER_LAYER_UNITS
    details = {
        "rounds": len(rounds),
        "setups": len(setups.times_s),
        "accuracy": median([r.accuracy for r in rounds]),
        "classify_samples": sum(len(r.latencies_ns) for r in rounds),
        "per_round": {
            "wall_s": [r.wall_s for r in rounds],
            "train_s": [r.train_s for r in rounds],
            "eval_samples_per_s": [r.eval_samples / r.eval_s if r.eval_s else 0.0 for r in rounds],
            "load_s": [mean(r.load_s) for r in rounds],
            "classify_p50_us": [float(np.percentile(r.latencies_ns, 50)) / 1e3 for r in rounds if r.latencies_ns],
        },
        "setup_s": setups.times_s,
        "computed_per_round": {
            "solver.iterations": median([r.iterations for r in rounds]),
            "solver.objective_increases": median([r.objective_increases for r in rounds]),
        },
    }
    return Result(metrics=metrics, units=units, ops=ops, details=details, tracer=tracer)
