"""Command-line front end: benchmark runs, custom solves and sweeps.

Results go to standard output (or ``--out``); diagnostics go to standard
error at a verbosity picked by the ``BKM_LOG`` environment variable
(quiet, info or debug). Exit codes: 0 success, 1 solver failure, 2 bad
arguments.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bench
from .errors import BkmError
from .geometry import Ellipse, ellipse_knots
from .kernels import mq_pair
from .solver import ProblemSpec, RhoZero, evaluate, solve_linear

log = logging.getLogger("bkm")

#: Named data functions available to problem files.
BUILTIN_FUNCTIONS = {
    "x": lambda p: p[:, 0],
    "sin_x_plus_x": lambda p: np.sin(p[:, 0]) + p[:, 0],
    "y_exp_x": lambda p: p[:, 1] * np.exp(p[:, 0]),
    "zero": lambda p: np.zeros(p.shape[0]),
}

_LOG_LEVELS = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


@dataclass
class RunConfig:
    """Validated invocation parameters for one CLI run."""

    subcommand: str
    case: Optional[str] = None
    problem_path: Optional[str] = None
    n_knots: Optional[int] = None
    knot_counts: Optional[list[int]] = None
    c: Optional[float] = None
    frm_k: Optional[int] = None
    out: Optional[str] = None
    fmt: str = "csv"


def _configure_logging():
    raw = os.environ.get("BKM_LOG", "quiet").strip().lower()
    level = _LOG_LEVELS.get(raw)
    if level is None:
        level = logging.INFO
    # force so the env var takes effect even if logging was configured before
    logging.basicConfig(stream=sys.stderr, level=level, force=True,
                        format="%(levelname)s %(name)s: %(message)s")
    if raw not in _LOG_LEVELS:
        log.warning("unknown BKM_LOG value %r, using info", raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bkm",
        description="Boundary knot collocation for Helmholtz-type problems.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    pb = sub.add_parser("bench", help="run a built-in benchmark case")
    pb.add_argument("case", choices=("table1", "table2"))
    pb.add_argument("--knots", type=int, default=None,
                    help="boundary knot count (default: the case's largest)")
    pb.add_argument("--c", type=float, default=None,
                    help="multiquadric shape parameter (default per case)")
    pb.add_argument("--frm", type=int, default=None, metavar="K",
                    help="truncate both systems to K nearest neighbours")
    pb.add_argument("--out", default=None, help="write output to this path")
    pb.add_argument("--format", dest="fmt", choices=("csv", "table"), default="csv")

    ps = sub.add_parser("sweep", help="run a case over several knot counts")
    ps.add_argument("case", choices=("table1", "table2"))
    ps.add_argument("--knots", required=True, metavar="N1,N2,...",
                    help="comma-separated ascending knot counts")
    ps.add_argument("--c", type=float, default=None)
    ps.add_argument("--out", default=None)
    ps.add_argument("--format", dest="fmt", choices=("csv", "table"), default="csv")

    pv = sub.add_parser("solve", help="solve a problem described in a file")
    pv.add_argument("problem_file")
    pv.add_argument("--out", default=None)
    return parser


def _usage_error(parser, message) -> int:
    print(f"error: {message}", file=sys.stderr)
    parser.print_usage(sys.stderr)
    return 2


def _emit(lines, out_path) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _format_report(report, fmt) -> list[str]:
    if fmt == "table":
        return bench.report_table_lines(report)
    return bench.report_csv_lines(report)


def _run_bench(config: RunConfig) -> tuple[int, list[str]]:
    case = bench.named_case(config.case)
    n = config.n_knots if config.n_knots is not None else case.default_knot_counts[-1]
    c = config.c if config.c is not None else case.default_shape
    log.info("case %s: %d knots, shape %g%s", case.label, n, c,
             "" if config.frm_k is None else f", frm k={config.frm_k}")
    report = bench.run_case(case, n, c, frm_k=config.frm_k)
    if report.error is not None:
        print(f"solver error: {report.error}", file=sys.stderr)
        return 1, []
    for rec in report.diagnostics:
        log.info("%s: size %d, condition estimate %.3e",
                 rec.label, rec.size, rec.condition)
    return 0, _format_report(report, config.fmt)


def _run_sweep(config: RunConfig) -> tuple[int, list[str]]:
    case = bench.named_case(config.case)
    c = config.c if config.c is not None else case.default_shape
    reports = bench.convergence_sweep(case, config.knot_counts, c)
    lines = []
    failures = 0
    for report in reports:
        if report.error is not None:
            failures += 1
            print(f"solver error at {report.n_knots} knots: {report.error}",
                  file=sys.stderr)
            continue
        lines.append(f"# knots={report.n_knots} c={bench._fmt(report.shape)} "
                     f"rms={bench._fmt(report.rms)}")
        lines.extend(_format_report(report, config.fmt))
        lines.append("")
    if lines and lines[-1] == "":
        lines.pop()
    if failures == len(reports):
        return 1, []
    return 0, lines


def parse_problem_file(path: str) -> dict:
    """Flat key-value problem description; see the README for the grammar."""
    parsed = {"knots": None, "c": None, "ellipse": None,
              "forcing": None, "dirichlet": None, "eval": []}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            try:                 # every error, bad numbers too, names the line
                if key == "dimension":
                    if int(value) != 2:
                        raise ValueError("dimension must be 2: the domain is "
                                         f"an ellipse, got {value}")
                elif key == "ellipse":
                    parts = [float(v) for v in value.split()]
                    if len(parts) != 4:
                        raise ValueError("ellipse needs 'cx cy a b'")
                    parsed["ellipse"] = Ellipse(np.array(parts[:2]), parts[2], parts[3])
                elif key in ("forcing", "dirichlet"):
                    if value not in BUILTIN_FUNCTIONS:
                        raise ValueError(f"unknown function {value!r}; "
                                         f"builtins: {sorted(BUILTIN_FUNCTIONS)}")
                    parsed[key] = BUILTIN_FUNCTIONS[value]
                elif key == "knots":
                    parsed["knots"] = int(value)
                elif key == "c":
                    parsed["c"] = float(value)
                elif key == "eval":
                    parts = [float(v) for v in value.split()]
                    if len(parts) != 2:
                        raise ValueError("eval needs 'x y'")
                    parsed["eval"].append(parts)
                else:
                    raise ValueError(f"unknown key {key!r}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    for required in ("ellipse", "forcing", "dirichlet", "knots", "c"):
        if parsed[required] is None:
            raise ValueError(f"{path}: missing required key {required!r}")
    return parsed


def _run_solve(config: RunConfig) -> tuple[int, list[str]]:
    parsed = parse_problem_file(config.problem_path)
    if parsed["knots"] < 1:
        raise ValueError("knots must be at least 1")
    if parsed["c"] <= 0:
        raise ValueError("c must be positive")
    problem = ProblemSpec(forcing=parsed["forcing"], dirichlet=parsed["dirichlet"],
                          rho=RhoZero(), geometry=parsed["ellipse"])
    knots = ellipse_knots(parsed["ellipse"], parsed["knots"])
    solution = solve_linear(problem, knots, mq_pair(parsed["c"]))
    for rec in solution.diagnostics:
        log.info("%s: size %d, condition estimate %.3e",
                 rec.label, rec.size, rec.condition)
    lines = ["x,y,computed"]
    if parsed["eval"]:
        pts = np.array(parsed["eval"])
        values = evaluate(solution, pts)
        for (x, y), u in zip(pts, values):
            lines.append(f"{x:.10g},{y:.10g},{u:.10g}")
    return 0, lines


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    config = RunConfig(subcommand=args.subcommand,
                       case=getattr(args, "case", None),
                       problem_path=getattr(args, "problem_file", None),
                       n_knots=getattr(args, "knots", None)
                       if args.subcommand == "bench" else None,
                       c=getattr(args, "c", None),
                       frm_k=getattr(args, "frm", None),
                       out=args.out,
                       fmt=getattr(args, "fmt", "csv"))

    # validation that argparse cannot express
    if config.subcommand == "bench":
        if config.n_knots is not None and config.n_knots < 1:
            return _usage_error(parser, "--knots must be at least 1")
        if config.c is not None and config.c <= 0:
            return _usage_error(parser, "--c must be positive")
        if config.frm_k is not None and config.frm_k < 1:
            return _usage_error(parser, "--frm must be at least 1")
    if config.subcommand == "sweep":
        try:
            counts = [int(v) for v in args.knots.split(",") if v.strip()]
        except ValueError:
            return _usage_error(parser, f"bad --knots list {args.knots!r}")
        if not counts or any(n < 1 for n in counts):
            return _usage_error(parser, "--knots needs positive counts")
        if any(b <= a for a, b in zip(counts, counts[1:])):
            return _usage_error(parser, "--knots counts must be ascending")
        if config.c is not None and config.c <= 0:
            return _usage_error(parser, "--c must be positive")
        config.knot_counts = counts

    try:
        if config.subcommand == "bench":
            code, lines = _run_bench(config)
        elif config.subcommand == "sweep":
            code, lines = _run_sweep(config)
        else:
            code, lines = _run_solve(config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BkmError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1

    if code == 0:
        _emit(lines, config.out)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
