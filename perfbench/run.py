"""Benchmark for dictpair: face-scale training, desk-scale sweeps and serving.

    python3 perfbench/run.py --workload face_train --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. It imports ``dictpair`` from ``src/`` of
that checkout, pins the BLAS thread count to 1, builds its inputs from
``--seed``, measures for ``--seconds`` and checks every output. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``. The line before it records the
environment. Spans and the full result go to ``perfbench/out/``.
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

WORKLOAD_NAMES = ("face_train", "desk_sweep", "serve_eval")


def pin_threads() -> None:
    """Pin the BLAS pool to BLAS_THREADS; effective only before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import dictpair from this checkout's src/, never from an installed copy."""
    if not (SRC / "dictpair" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'dictpair'} not found; run from a dictpair checkout")
    sys.path.insert(0, str(SRC))
    import dictpair

    if Path(dictpair.__file__).resolve().parent != (SRC / "dictpair").resolve():
        raise SystemExit(f"error: imported dictpair from {dictpair.__file__}, not from {SRC}")
    return dictpair


def _blas_threads_in_use():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.strip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def result_line(result) -> dict:
    """The object printed as the last line of standard output."""
    return {
        "correct": result.ops.failed == 0,
        "attempted": result.ops.attempted,
        "failed": result.ops.failed,
        "metrics": {k: {"value": v, "unit": result.units[k]} for k, v in result.metrics.items()},
    }


def run_workload(args) -> int:
    import workloads

    cls, config = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir()
    try:
        result = workloads.measure(cls(config(), args.seed, work_dir), args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    stem = f"{args.workload}-trace{args.trace}"
    if result.tracer is not None:
        result.tracer.write_jsonl(OUT_DIR / f"spans-{args.workload}.jsonl")
    line = result_line(result)
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "details": result.details, "failures": result.ops.reasons, **line}
    with open(OUT_DIR / f"result-{stem}.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print("details: " + json.dumps(result.details))
    print("environment: " + json.dumps(env))
    print(json.dumps(line))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")

    # a SIGTERM unwinds like an exception, so a running set-up child is
    # killed and waited for on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_threads()
    import_package()
    sys.path.insert(0, str(BENCH_DIR))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
