#!/usr/bin/env python3
"""Run one bkm benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload paper|wide|frm --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there, never from an installed copy. One client drives the library
in a closed loop for ``--seconds`` seconds after one warm-up op.

``--trace 0`` runs OpenBLAS on one thread. With the default two threads on
a two-vCPU virtual machine, the 144 x 144 ``wide`` factorisation waits
~140 ms for the idle vCPU to wake in some runs and not at all in others,
which measures the host instead of the library. ``--trace 1`` keeps the
default threading, so ``linalg.factor_s_max`` still shows such waits.

``--trace 0`` times ops with no instrumentation and reports the end-to-end
metrics; ``setup_s`` is the median of several fresh interpreters, each
timed from its start until its first op completes. ``--trace 1`` alternates
traced and untraced ops and reports the per-layer metrics of the traced
ones (see ``tracer.py``). The last line of standard output is the result
object; the line before it records the environment.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_REPEATS = 5

#: Times and rates are slow-tail percentiles: on a shared host whose speed
#: changes by up to 1.8x in phases of seconds, a median swings with the share
#: of fast phases in a run, while the slow tail stays put.
END_TO_END_UNITS = {
    "solve_s_p90": "s",
    "eval_pts_per_s_p10": "points/s",
    "max_abs_err": "model_units",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit. ``*_s`` times are self times per traced op.
PER_LAYER_UNITS = {
    "kernels.bessel_s": "s",
    "kernels.bessel_entries": "count",
    "kernels.bessel_far_frac": "share",
    "kernels.bessel_ns_per_entry": "ns",
    "kernels.mq_s": "s",
    "kernels.mq_entries": "count",
    "linalg.factor_s": "s",
    "linalg.factor_s_max": "s",
    "linalg.solve_s": "s",
    "linalg.factorizations": "count",
    "linalg.condition_max": "ratio",
    "frm.truncate_system_s": "s",
    "frm.solve_sparse_s": "s",
    "frm.nnz": "count",
    "frm.dense_bytes": "B",
    "frm.backward_error_max": "ratio",
    "geometry.ellipse_knots_s": "s",
    "drm.build_interpolation_matrix_s": "s",
    "drm.evaluate_particular_s": "s",
    "drm.normal_calls": "count",
    "solver.assemble_homogeneous_rows_s": "s",
    "solver.boundary_rhs_s": "s",
    "solver.evaluate_s": "s",
    "solver.rows_kept_frac": "share",
    "bench.solve_s_p50": "s",
    "bench.trace_overhead_frac": "share",
    "bench.failed_frac": "share",
}

#: Per-layer time metric -> the span whose self time it reports.
SELF_TIME_SPANS = {
    "kernels.bessel_s": "kernels.bessel",
    "kernels.mq_s": "kernels.mq",
    "linalg.factor_s": "linalg.factor",
    "linalg.solve_s": "linalg.solve",
    "frm.truncate_system_s": "frm.truncate_system",
    "frm.solve_sparse_s": "frm.solve_sparse",
    "geometry.ellipse_knots_s": "geometry.ellipse_knots",
    "drm.build_interpolation_matrix_s": "drm.build_interpolation_matrix",
    "drm.evaluate_particular_s": "drm.evaluate_particular",
    "solver.assemble_homogeneous_rows_s": "solver.assemble_homogeneous_rows",
    "solver.boundary_rhs_s": "solver.boundary_rhs",
    "solver.evaluate_s": "solver.evaluate",
}

#: Per-op counts reported as their mean over traced ops.
MEAN_COUNTS = ("kernels.bessel_entries", "kernels.mq_entries",
               "linalg.factorizations", "drm.normal_calls")


def import_package():
    """Import bkm from this checkout's ``src/``; exit if it is not there."""
    if not (SRC / "bkm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bkm sources at {SRC / 'bkm'}")
    sys.path.insert(0, str(SRC))
    import bkm
    if Path(bkm.__file__).resolve().parent != SRC / "bkm":
        sys.exit(f"perfbench: imported bkm from {bkm.__file__}, not {SRC}")
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of every OpenBLAS the process has loaded, by file name."""
    import ctypes
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return {}
    threads = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads[Path(path).name] = getter()
                break
    return threads


def _blas_name(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(args) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS
    import platform
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numpy_blas": _blas_name(numpy), "scipy_blas": _blas_name(scipy),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

def setup_probe(workload, seed):
    """Child side: build the workload, run its first op, stamp the clock."""
    wl = import_package().WORKLOADS[workload](seed)
    result = wl.op(0)
    if result.failure is not None:
        sys.exit(f"perfbench: first op failed: {result.failure}")
    print(time.monotonic())


def setup_seconds(workload, seed) -> float:
    """Fresh interpreter start until its first op completes, in seconds."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, cwd=ROOT, timeout=150)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _loop(seconds, step):
    """Call step(i) for i = 1, 2, ... until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    i = 1
    while True:
        step(i)
        i += 1
        if time.perf_counter() >= deadline:
            return


def _report_failures(failures):
    for failure in failures[:5]:
        print(f"perfbench: failed op: {failure}", file=sys.stderr)
    return len(failures)


class _Tally:
    """Running aggregates of a timed run.

    Two floats per op are kept, so the process's peak memory does not grow
    with the number of ops the host lets the run complete.
    """

    def __init__(self):
        self.solve = array("d")
        self.rates = array("d")     # query points per second of evaluation
        self.failures = []
        self.attempted = 0
        self.max_abs_err = 0.0

    def add(self, result):
        self.attempted += 1
        self.max_abs_err = max(self.max_abs_err, result.max_abs_err)
        if result.failure is not None:
            self.failures.append(result.failure)
            return
        self.solve.append(result.solve_s)
        # where evaluation runs inside the solve (``frm``), per solve second
        seconds = result.solve_s if result.eval_s is None else result.eval_s
        self.rates.append(result.points / seconds)


def timed_run(args, workloads) -> dict:
    setup = [setup_seconds(args.workload, args.seed)
             for _ in range(SETUP_REPEATS)]
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.op(0)
    tally = _Tally()
    _loop(args.seconds, lambda i: tally.add(wl.op(i)))

    failed = _report_failures(tally.failures)
    values = {
        "solve_s_p90": _percentile(tally.solve or [0.0], 90),
        "eval_pts_per_s_p10": _percentile(tally.rates or [0.0], 10),
        "max_abs_err": tally.max_abs_err,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return _result(tally.attempted, failed, values, END_TO_END_UNITS)


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q))


def _trace_problem(name, tracer, workloads, frm_module):
    """Invariants only a traced op can check, or None when they hold."""
    if name == "paper" and tracer.counts["linalg.factorizations"] != 2:
        return (f"{tracer.counts['linalg.factorizations']} factorisations, "
                f"expected one pair")
    if name == "frm":
        for n, k, nnz in tracer.nnz_per_system:
            if (n, k) != (workloads.FRM_KNOTS, workloads.FRM_K) or nnz != n * k:
                return f"truncated system n={n} k={k} has nnz {nnz} != n*k"
        eta = tracer.maxima["frm.backward_error_max"]
        if eta > frm_module.RESIDUAL_TOL:
            return f"backward error {eta:.3e} > {frm_module.RESIDUAL_TOL:.0e}"
    return None


def traced_run(args, workloads) -> dict:
    wl = workloads.WORKLOADS[args.workload](args.seed)
    from bkm import frm
    from tracer import Tracer
    wl.op(0)
    tracer = Tracer()
    traced, untraced, per_op = [], [], []

    def step(i):
        if i % 2:
            untraced.append(wl.op(i))
            return
        tracer.reset()
        with tracer:
            result = wl.op(i)
        problem = _trace_problem(args.workload, tracer, workloads, frm)
        if result.failure is None and problem is not None:
            result.failure = problem
        traced.append(result)
        per_op.append((tracer.self_times(), dict(tracer.counts),
                       dict(tracer.maxima)))

    _loop(args.seconds, step)
    if not traced:      # a run shorter than one op pair still traces one op
        step(2)
    if tracer.missing:
        print(f"perfbench: untraced, no longer defined: {tracer.missing}",
              file=sys.stderr)
    results = traced + untraced
    failed = _report_failures([r.failure for r in results
                               if r.failure is not None])
    values = _layer_values(per_op)
    base = statistics.median(r.solve_s for r in untraced) if untraced else 0.0
    values["bench.solve_s_p50"] = base
    values["bench.trace_overhead_frac"] = (
        statistics.median(r.solve_s for r in traced) / base - 1.0
        if base > 0 else 0.0)
    values["bench.failed_frac"] = failed / len(results)
    return _result(len(results), failed, values, PER_LAYER_UNITS)


def _layer_values(per_op) -> dict:
    """Per-layer metrics from the per-op self times, counts and maxima."""
    n = len(per_op)
    total = {}
    for _, counts, _ in per_op:
        for key, value in counts.items():
            total[key] = total.get(key, 0) + value
    maxima = {}
    for _, _, op_max in per_op:
        for key, value in op_max.items():
            maxima[key] = max(maxima.get(key, 0.0), value)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {metric: statistics.median(times.get(span, 0.0)
                                        for times, _, _ in per_op)
              for metric, span in SELF_TIME_SPANS.items()}
    values.update({key: ratio(total.get(key, 0), n) for key in MEAN_COUNTS})
    bessel_s = sum(times.get("kernels.bessel", 0.0) for times, _, _ in per_op)
    entries = total.get("kernels.bessel_entries", 0)
    systems = total.get("frm.systems", 0)
    values.update({
        "kernels.bessel_far_frac": ratio(total.get("kernels.bessel_far", 0),
                                         entries),
        "kernels.bessel_ns_per_entry": ratio(bessel_s * 1e9, entries),
        "linalg.factor_s_max": maxima.get("linalg.factor_s_max", 0.0),
        "linalg.condition_max": maxima.get("linalg.condition_max", 0.0),
        "frm.nnz": ratio(total.get("frm.nnz", 0), systems),
        "frm.dense_bytes": ratio(total.get("frm.dense_bytes", 0), systems),
        "frm.backward_error_max": maxima.get("frm.backward_error_max", 0.0),
        "solver.rows_kept_frac": ratio(total.get("solver.rows_kept", 0),
                                       total.get("solver.rows_assembled", 0)),
    })
    return values


def _result(attempted, failed, values, units) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units.items()}}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("paper", "wide", "frm"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return
    if not args.trace:
        # set before numpy loads OpenBLAS; the set-up probes inherit it
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    workloads = import_package()
    print(json.dumps({"env": environment(args)}))
    run = traced_run if args.trace else timed_run
    result = run(args, workloads)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
