"""Command-line front end: benchmark runs, custom solves and sweeps.

Results go to standard output (or ``--out``); diagnostics go to standard
error at a verbosity picked by the ``BKM_LOG`` environment variable
(quiet, info or debug), for ``bench``, ``sweep`` and ``solve`` alike. Exit
codes: 0 success, 1 solver failure, 2 bad arguments.

Each input rule is one function, :func:`count`, :func:`shape` or
:func:`count_list`, used both as the argparse ``type=`` of a flag and by
:func:`parse_problem_file`. They apply the library's rules: counts are
integers of at least 1 and ``c`` is finite and above 0, as ``KernelPair``
takes it. Problem-file ellipse semi-axes must be finite, ``eval`` points must
lie in the closed ellipse, and every problem-file error names ``path:lineno``.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import bench
from .errors import BkmError
from .geometry import Ellipse, _checked_count, ellipse_knots
from .kernels import KernelPair
from .solver import ProblemSpec, RhoZero, evaluate, solve_linear

log = logging.getLogger("bkm")


def _quiet(fn):
    """``fn`` with numpy's overflow and invalid-value warnings off: the solve
    refuses a value that is not finite, naming the data, so that refusal is
    all a user sees."""
    def quiet(p):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(p)
    return quiet


#: Named data functions available to problem files.
BUILTIN_FUNCTIONS = {name: _quiet(fn) for name, fn in {
    "x": lambda p: p[:, 0],
    "sin_x_plus_x": lambda p: np.sin(p[:, 0]) + p[:, 0],
    "y_exp_x": lambda p: p[:, 1] * np.exp(p[:, 0]),
    "zero": lambda p: np.zeros(p.shape[0]),
}.items()}

_LOG_LEVELS = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


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


def count(text: str) -> int:
    """A count: an integer of at least 1."""
    return _checked_count(int(text), "count", 1)


def shape(text: str) -> float:
    """A multiquadric shape parameter, as :class:`KernelPair` takes it."""
    return KernelPair(float(text)).shape


def count_list(text: str) -> list[int]:
    """Comma-separated counts, e.g. ``5,7``; empty entries are skipped."""
    counts = [count(v) for v in text.split(",") if v.strip()]
    if not counts:
        raise ValueError("expected at least one count")
    return counts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bkm",
        description="Boundary knot collocation for Helmholtz-type problems.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    pb = sub.add_parser("bench", help="run a built-in benchmark case")
    pb.add_argument("case", choices=("table1", "table2"))
    pb.add_argument("--knots", type=count, default=None,
                    help="boundary knot count, at least 1 "
                         "(default: the case's largest)")
    pb.add_argument("--c", type=shape, default=None,
                    help="multiquadric shape parameter, finite and above 0 "
                         "(default per case)")
    pb.add_argument("--frm", type=count, default=None, metavar="K",
                    help="truncate both systems to K >= 1 nearest neighbours")
    pb.add_argument("--out", default=None, help="write output to this path")
    pb.add_argument("--format", dest="fmt", choices=("csv", "table"), default="csv")
    pb.set_defaults(run=_run_bench)

    ps = sub.add_parser("sweep", help="run a case over several knot counts")
    ps.add_argument("case", choices=("table1", "table2"))
    ps.add_argument("--knots", type=count_list, required=True, metavar="N1,N2,...",
                    help="comma-separated ascending knot counts")
    ps.add_argument("--c", type=shape, default=None)
    ps.add_argument("--out", default=None)
    ps.add_argument("--format", dest="fmt", choices=("csv", "table"), default="csv")
    ps.set_defaults(run=_run_sweep)

    pv = sub.add_parser("solve", help="solve a problem described in a file")
    pv.add_argument("problem_file")
    pv.add_argument("--out", default=None)
    pv.set_defaults(run=_run_solve)
    return parser


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


def _log_diagnostics(records) -> None:
    for rec in records:
        log.info("%s: size %d, condition estimate %.3e, eta %.3e",
                 rec.label, rec.size, rec.condition, rec.eta)


def _run_bench(args) -> tuple[int, list[str]]:
    case = bench.named_case(args.case)
    n = args.knots if args.knots is not None else case.default_knot_counts[-1]
    c = args.c if args.c is not None else case.default_shape
    log.info("case %s: %d knots, shape %g%s", case.label, n, c,
             "" if args.frm is None else f", frm k={args.frm}")
    report = bench.run_case(case, n, c, frm_k=args.frm)
    if report.error is not None:
        print(f"solver error: {report.error}", file=sys.stderr)
        return 1, []
    _log_diagnostics(report.diagnostics)
    return 0, _format_report(report, args.fmt)


def _run_sweep(args) -> tuple[int, list[str]]:
    case = bench.named_case(args.case)
    c = args.c if args.c is not None else case.default_shape
    reports = bench.convergence_sweep(case, args.knots, c)
    lines = []
    failures = 0
    for report in reports:
        if report.error is not None:
            failures += 1
            print(f"solver error at {report.n_knots} knots: {report.error}",
                  file=sys.stderr)
            continue
        _log_diagnostics(report.diagnostics)
        lines.append(f"# knots={report.n_knots} c={bench._fmt(report.shape)} "
                     f"rms={bench._fmt(report.rms)}")
        lines.extend(_format_report(report, args.fmt))
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
    eval_lines = []
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
                    parsed["knots"] = count(value)
                elif key == "c":
                    parsed["c"] = shape(value)
                elif key == "eval":
                    parts = [float(v) for v in value.split()]
                    if len(parts) != 2 or not np.all(np.isfinite(parts)):
                        raise ValueError("eval needs two finite numbers 'x y'")
                    parsed["eval"].append(parts)
                    eval_lines.append(lineno)
                else:
                    raise ValueError(f"unknown key {key!r}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    for required in ("ellipse", "forcing", "dirichlet", "knots", "c"):
        if parsed[required] is None:
            raise ValueError(f"{path}: missing required key {required!r}")
    # checked once the file is read, so the ellipse may follow the eval lines
    outside = ~parsed["ellipse"].contains(np.reshape(parsed["eval"], (-1, 2)))
    if outside.any():
        i = int(np.argmax(outside))
        x, y = parsed["eval"][i]
        raise ValueError(f"{path}:{eval_lines[i]}: eval point ({x:g}, {y:g}) "
                         "lies outside the ellipse")
    return parsed


def _run_solve(args) -> tuple[int, list[str]]:
    parsed = parse_problem_file(args.problem_file)
    problem = ProblemSpec(forcing=parsed["forcing"], dirichlet=parsed["dirichlet"],
                          rho=RhoZero(), geometry=parsed["ellipse"])
    knots = ellipse_knots(parsed["ellipse"], parsed["knots"])
    solution = solve_linear(problem, knots, KernelPair(parsed["c"]))
    _log_diagnostics(solution.diagnostics)
    lines = ["x,y,computed"]
    pts = np.reshape(parsed["eval"], (-1, 2))     # (0, 2) without eval lines
    for (x, y), u in zip(pts, evaluate(solution, pts)):
        lines.append(",".join(bench._fmt(v) for v in (x, y, u)))
    return 0, lines


def main(argv=None) -> int:
    _configure_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        code, lines = args.run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BkmError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1

    if code == 0:
        _emit(lines, args.out)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
