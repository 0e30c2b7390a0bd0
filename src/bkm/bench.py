"""Canonical benchmark problems, error metrics and report serialisation.

Two benchmark cases are built in. ``table1`` is the inhomogeneous Helmholtz
problem (laplacian u + u = x, boundary data sin x + x, which is also the
exact solution) on the ellipse with semi-axes 2 and 1. ``table2`` is the
nonlinear problem laplacian u + u^2 = y e^x + y^2 e^{2x} with boundary data
y e^x (again the exact solution); its reference points sit around x = 3, so
the ellipse is centred at (3, 0) with semi-axes 1.5 and 0.5, inferred from
the points that lie exactly on that boundary. Two of table2's reference
points, (4.2, -0.35) and (1.8, -0.35), lie outside that ellipse, so 2 of its
8 reported errors are off the domain; the true domain needs the paper's
Table 2 text.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._linalg import SolveRecord
from .errors import BkmError
# not used here: test_tracer_replaces_by_name_imports_and_restores_them
# (perfbench/tests) checks that the tracer replaces this by-name import
from .frm import truncate_system  # noqa: F401
from .geometry import Ellipse, _checked_count, ellipse_knots
from .kernels import mq_pair
from .solver import (ProblemSpec, RhoBoundaryNonlinear, RhoZero, evaluate,
                     solve_linear, solve_nonlinear_boundary_only)

#: Exact values smaller than this are treated as zero for relative errors.
_REL_FLOOR = 1e-12

#: Governing-equation residual allowed for a case's exact solution.
_EXACT_TOL = 1e-10


@dataclass(frozen=True)
class BenchmarkCase:
    """A benchmark problem plus its reference points and defaults.

    ``governing_residual`` evaluates the governing equation on the exact
    solution analytically; it must vanish (within 1e-10) at every test
    point, which is checked at construction.
    """

    label: str
    problem: ProblemSpec
    governing_residual: Callable[[np.ndarray], np.ndarray]
    test_points: np.ndarray
    exact_values: np.ndarray
    default_knot_counts: tuple[int, ...]
    default_shape: float

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.test_points, dtype=float))
        vals = np.asarray(self.exact_values, dtype=float)
        if pts.shape[0] != vals.shape[0]:
            raise ValueError("test points and exact values must align")
        object.__setattr__(self, "test_points", pts)
        object.__setattr__(self, "exact_values", vals)
        if pts.shape[0]:
            resid = np.max(np.abs(self.governing_residual(pts)))
            if resid > _EXACT_TOL:
                raise ValueError(
                    f"exact solution violates the governing equation "
                    f"(residual {resid:.3e})")


def table1_case() -> BenchmarkCase:
    """Inhomogeneous Helmholtz benchmark: laplacian u + u = x, u* = sin x + x."""
    def forcing(p):
        return p[:, 0]

    def exact(p):
        return np.sin(p[:, 0]) + p[:, 0]

    def governing_residual(p):
        # laplacian of (sin x + x) is -sin x; left side minus forcing
        return -np.sin(p[:, 0]) + exact(p) - forcing(p)

    problem = ProblemSpec(forcing=forcing, dirichlet=exact, rho=RhoZero(),
                          geometry=Ellipse(np.zeros(2), 2.0, 1.0), exact=exact)
    pts = np.array([[1.5, 0.0], [1.2, -0.35], [0.6, -0.45], [0.0, 0.0],
                    [0.9, 0.0], [0.3, 0.0]])
    return BenchmarkCase(label="table1", problem=problem,
                         governing_residual=governing_residual,
                         test_points=pts, exact_values=exact(pts),
                         default_knot_counts=(5, 7), default_shape=3.0)


def table2_case() -> BenchmarkCase:
    """Nonlinear benchmark: laplacian u + u^2 = y e^x + y^2 e^{2x}, u* = y e^x.

    The Helmholtz split moves u - u^2 to the right-hand side, where the
    Dirichlet data supplies the u values at boundary knots, so one linear
    solve suffices.
    """
    def forcing(p):
        return p[:, 1] * np.exp(p[:, 0]) + p[:, 1] ** 2 * np.exp(2.0 * p[:, 0])

    def exact(p):
        return p[:, 1] * np.exp(p[:, 0])

    def governing_residual(p):
        # laplacian of (y e^x) is y e^x
        u = exact(p)
        return u + u * u - forcing(p)

    rho = RhoBoundaryNonlinear(apply=lambda u, p: u - u * u)
    problem = ProblemSpec(forcing=forcing, dirichlet=exact, rho=rho,
                          geometry=Ellipse(np.array([3.0, 0.0]), 1.5, 0.5),
                          exact=exact)
    pts = np.array([[4.5, 0.0], [4.2, -0.35], [3.6, -0.45], [3.0, -0.45],
                    [2.4, -0.45], [1.8, -0.35], [3.0, 0.5], [3.0, -0.5]])
    return BenchmarkCase(label="table2", problem=problem,
                         governing_residual=governing_residual,
                         test_points=pts, exact_values=exact(pts),
                         default_knot_counts=(7, 9), default_shape=18.0)


_CASES = {"table1": table1_case, "table2": table2_case}


def named_case(name: str) -> BenchmarkCase:
    """Look up a built-in benchmark case by label."""
    try:
        return _CASES[name]()
    except KeyError:
        raise ValueError(f"unknown case {name!r}; available: {sorted(_CASES)}") from None


@dataclass
class ErrorReport:
    """Per-point errors and solve diagnostics for one benchmark run."""

    label: str
    n_knots: int
    shape: float
    frm_k: Optional[int]
    points: np.ndarray
    exact: np.ndarray
    computed: np.ndarray
    abs_err: np.ndarray
    rel_err: np.ndarray
    diagnostics: tuple[SolveRecord, ...] = ()
    error: Optional[str] = None

    @property
    def max_abs(self) -> float:
        return float(np.max(self.abs_err)) if self.abs_err.size else 0.0

    @property
    def rms(self) -> float:
        if not self.abs_err.size:
            return 0.0
        return float(np.sqrt(np.mean(self.abs_err ** 2)))

    @property
    def max_rel(self) -> float:
        finite = self.rel_err[np.isfinite(self.rel_err)]
        return float(np.max(finite)) if finite.size else 0.0


def _empty_report(case, n_knots, c, frm_k, error):
    empty = np.empty(0)
    return ErrorReport(label=case.label, n_knots=n_knots, shape=c, frm_k=frm_k,
                       points=np.empty((0, 2)), exact=empty, computed=empty,
                       abs_err=empty, rel_err=empty, error=error)


def run_case(case: BenchmarkCase, n_knots: int, c: float,
             frm_k: Optional[int] = None) -> ErrorReport:
    """Place knots, solve, evaluate at the case's reference points.

    Solver failures are recorded on the report (``error`` field) rather than
    raised, so sweeps can degrade gracefully.
    """
    knots = ellipse_knots(case.problem.geometry, n_knots)
    n_knots = knots.n_boundary
    kernel = mq_pair(c)
    solve = (solve_nonlinear_boundary_only
             if isinstance(case.problem.rho, RhoBoundaryNonlinear)
             else solve_linear)
    try:
        solution = solve(case.problem, knots, kernel, frm_k=frm_k)
    except (BkmError, np.linalg.LinAlgError) as exc:
        return _empty_report(case, n_knots, c, frm_k, str(exc))

    computed = evaluate(solution, case.test_points)
    abs_err = np.abs(computed - case.exact_values)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_err = np.where(np.abs(case.exact_values) > _REL_FLOOR,
                           abs_err / np.abs(case.exact_values), np.nan)
    return ErrorReport(label=case.label, n_knots=n_knots, shape=c, frm_k=frm_k,
                       points=case.test_points, exact=case.exact_values,
                       computed=computed, abs_err=abs_err, rel_err=rel_err,
                       diagnostics=solution.diagnostics)


def convergence_sweep(case: BenchmarkCase, knot_counts, c: float) -> list[ErrorReport]:
    """One report per knot count; counts must be ascending."""
    counts = [_checked_count(n, "knot count", 1) for n in knot_counts]
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError("knot counts must be strictly ascending")
    return [run_case(case, n, c) for n in counts]


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

CSV_HEADER = "x,y,exact,computed,abs_err,rel_err"


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def report_csv_lines(report: ErrorReport) -> list[str]:
    """RFC-4180-style rows, 10 significant digits, header included."""
    lines = [CSV_HEADER]
    for i in range(report.points.shape[0]):
        x, y = report.points[i]
        lines.append(",".join(_fmt(v) for v in
                              (x, y, report.exact[i], report.computed[i],
                               report.abs_err[i], report.rel_err[i])))
    return lines


def report_table_lines(report: ErrorReport) -> list[str]:
    """Human-readable columns mirroring the benchmark table layout."""
    head = f"{'x':>8} {'y':>8} {'exact':>12} {f'bkm({report.n_knots})':>12}"
    lines = [head, "-" * len(head)]
    for i in range(report.points.shape[0]):
        x, y = report.points[i]
        lines.append(f"{x:8.2f} {y:8.2f} {report.exact[i]:12.4f} "
                     f"{report.computed[i]:12.4f}")
    lines.append(f"max_abs={_fmt(report.max_abs)} rms={_fmt(report.rms)}")
    return lines
