"""In-memory span tracer that wraps dictpair functions from outside the package.

A ``Tracer`` replaces each target function by a wrapper that records a span
(id, parent id, name, start, end, trace id) around the call, and restores the
originals on exit. The wrapper is installed under every name the package binds
the function to (``dictpair.train`` and ``dictpair.solver.train`` are one
object), so calls made inside the package are traced too: ``update_P`` calling
``analysis_system`` yields a parent-child pair. Spans stay in memory until
``write_jsonl`` is called at the end of a run.
"""

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass

import dictpair

PACKAGE_MODULES = ("solver", "model", "data", "classify", "cli", "baselines", "metrics")

# Every function a traced round wraps, as (module, attribute path). The span
# name is "<module>.<last part of the path>".
ROUND_TARGETS = (
    ("solver", "train"),
    ("solver", "analysis_system"),
    ("solver", "update_P"),
    ("solver", "compute_means"),
    ("solver", "update_S"),
    ("solver", "solve_synthesis"),
    ("solver", "update_reweights"),
    ("solver", "update_W"),
    ("solver", "objective_model"),
    ("solver", "objective_relaxed"),
    ("model", "init_state"),
    ("model", "save_model"),
    ("model", "load_model"),
    ("data", "LabeledDataset.complement_matrix"),
    ("data", "load_matrix"),
    ("data", "load_labels"),
    ("classify", "class_residuals"),
    ("classify", "evaluate"),
)

# The functions a traced set-up wraps. Set-up is traced apart from the rounds
# so that the training done by the serve_eval set-up adds nothing to the
# solver figures of that workload.
SETUP_TARGETS = (
    ("data", "make_synthetic"),
    ("data", "save_matrix"),
    ("model", "save_model"),
)

# Spans whose returned arrays count toward "<name>.bytes_computed".
BYTES_COMPUTED = {"data.complement_matrix"}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    trace: int


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    bytes_computed: int = 0


def _resolve(module_name: str, path: str):
    """Owner object, attribute name and current value of a dotted target."""
    owner = importlib.import_module(f"dictpair.{module_name}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Context manager that traces the given targets while it is entered."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self.bytes: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0
        self._trace = 0
        self._patched = []
        self._t0 = time.perf_counter()

    def _wrap(self, fn, name):
        count_bytes = name in BYTES_COMPUTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, parent, name, start, end, self._trace))
            if count_bytes:
                self.bytes[name] += out.nbytes
            return out

        return traced

    def __enter__(self):
        modules = [dictpair] + [importlib.import_module(f"dictpair.{m}") for m in PACKAGE_MODULES]
        for module_name, path in self.targets:
            owner, attr, fn = _resolve(module_name, path)
            wrapped = self._wrap(fn, f"{module_name}.{attr}")
            holders = [(owner, attr)] + [
                (m, key) for m in modules for key, value in vars(m).items() if value is fn and m is not owner
            ]
            for holder, key in holders:
                self._patched.append((holder, key, fn))
                setattr(holder, key, wrapped)
        return self

    def __exit__(self, *exc):
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()
        return False

    def new_trace(self) -> None:
        """Start a new trace id: spans recorded from now on belong to it."""
        self._trace += 1

    def totals(self) -> dict[str, LayerTotals]:
        """Calls, total time, self time and computed bytes per span name.

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap, as every call runs on one thread.
        """
        child_s: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        out: dict[str, LayerTotals] = defaultdict(LayerTotals)
        for s in self.spans:
            t = out[s.name]
            t.calls += 1
            t.total_s += s.end - s.start
            t.self_s += s.end - s.start - child_s[s.id]
        for name, nbytes in self.bytes.items():
            out[name].bytes_computed = nbytes
        return dict(out)

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON object per line, times relative to the tracer's start."""
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name, "trace": s.trace,
                    "start_s": s.start - self._t0, "end_s": s.end - self._t0,
                }) + "\n")
