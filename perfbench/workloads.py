"""Workload inputs, one benchmark operation each, and the per-op checks.

Every workload is built from a seed and hands the library only generated
inputs. ``op(i)`` runs the i-th operation of the closed loop and returns an
:class:`OpResult`; a refusal, a non-finite output or a failed check marks
the op as failed instead of raising.

* ``paper``: the two published cases alternately, each solve followed by
  ``evaluate`` at the case's reference points.
* ``wide``: a mixed Dirichlet/Neumann problem with interior knots on a large
  ellipse, evaluated at 256 seeded random points per op.
* ``frm``: both published cases at 1000 boundary knots through the
  k-nearest-neighbour truncated path of ``bench.run_case``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from bkm import bench, geometry, kernels, solver
from bkm.errors import BkmError

#: Largest |computed - exact| a ``wide`` evaluation may show. The seed
#: commit's worst value over 54 thirty-second runs (~6e5 points) is 2.05e-4.
WIDE_MAX_ABS_ERR = 4e-4

#: Boundary knots and neighbours per row of the ``frm`` workload.
FRM_KNOTS = 1000
FRM_K = 8


@dataclass
class OpResult:
    """Timing and accuracy of one operation.

    ``eval_s`` is None where evaluation runs inside the timed solve, as on
    ``frm``; ``failure`` names the refusal or failed check, if any.
    """

    solve_s: float
    eval_s: Optional[float]
    points: int
    max_abs_err: float
    failure: Optional[str] = None


def _failed(solve_s, exc) -> OpResult:
    return OpResult(solve_s, None, 0, 0.0, f"{type(exc).__name__}: {exc}")


def _checked(result: OpResult, values, problem: Optional[str]) -> OpResult:
    if not np.all(np.isfinite(values)):
        result.failure = "non-finite output"
    elif problem is not None:
        result.failure = problem
    return result


def _paper_check(label, exact, computed) -> Optional[str]:
    """The acceptance suite's bounds for the two published cases."""
    abs_err = np.abs(computed - exact)
    if label == "table1":
        return None if abs_err.max() <= 0.1 else \
            f"table1 max_abs {abs_err.max():.3e} > 0.1"
    nonzero = np.abs(exact) > 1e-12
    max_rel = float(np.max(abs_err[nonzero] / np.abs(exact[nonzero])))
    if max_rel > 0.08:
        return f"table2 max_rel {max_rel:.3e} > 0.08"
    at_zero = float(np.max(np.abs(computed[~nonzero])))
    if at_zero > 0.05:
        return f"table2 |u| at the zero point {at_zero:.3e} > 0.05"
    return None


class PaperWorkload:
    """table1 (7 knots, c = 3) and table2 (9 knots, c = 18), alternating."""

    name = "paper"

    def __init__(self, seed: int):
        self.cases = [(bench.table1_case(), 7, 3.0),
                      (bench.table2_case(), 9, 18.0)]
        self.start = seed % 2

    def solve(self, case, n_knots, c):
        knots = geometry.ellipse_knots(case.problem.geometry, n_knots)
        kernel = kernels.mq_pair(c)
        if isinstance(case.problem.rho, solver.RhoBoundaryNonlinear):
            return solver.solve_nonlinear_boundary_only(case.problem, knots,
                                                        kernel)
        return solver.solve_linear(case.problem, knots, kernel)

    def op(self, i: int) -> OpResult:
        case, n_knots, c = self.cases[(self.start + i) % 2]
        t0 = time.perf_counter()
        try:
            solution = self.solve(case, n_knots, c)
        except (BkmError, np.linalg.LinAlgError) as exc:
            return _failed(time.perf_counter() - t0, exc)
        t1 = time.perf_counter()
        computed = solver.evaluate(solution, case.test_points)
        t2 = time.perf_counter()
        err = np.abs(computed - case.exact_values)
        result = OpResult(t1 - t0, t2 - t1, len(computed),
                          float(np.max(err)) if err.size else 0.0)
        return _checked(result, computed,
                        _paper_check(case.label, case.exact_values, computed))


class WideWorkload:
    """Mixed problem on a large ellipse: Delta u + u = x, u* = sin x + x.

    32 boundary knots (16 Dirichlet, then 16 Neumann), 112 interior knots
    from a 12 x 12 grid clipped to (x/a)^2 + (y/b)^2 < 0.8, shape c = 4.
    Only the evaluation points depend on the seed.
    """

    name = "wide"
    a, b = 10.0, 5.0
    n_boundary = 32
    n_dirichlet = 16
    shape = 4.0
    n_points = 256

    def __init__(self, seed: int):
        a, b = self.a, self.b
        g = np.linspace(-1.0, 1.0, 14)[1:-1]
        x, y = np.meshgrid(g * a, g * b)
        grid = np.column_stack([x.ravel(), y.ravel()])
        self.interior = grid[(grid[:, 0] / a) ** 2 + (grid[:, 1] / b) ** 2 < 0.8]
        self.problem = solver.ProblemSpec(
            forcing=lambda p: p[:, 0], dirichlet=self.exact,
            neumann=self.neumann, exact=self.exact,
            geometry=geometry.Ellipse(np.zeros(2), a, b))
        self.rng = np.random.default_rng(seed)

    @staticmethod
    def exact(p):
        return np.sin(p[:, 0]) + p[:, 0]

    def neumann(self, p):
        """grad u* . n with the ellipse's outward normal at boundary points."""
        n = np.column_stack([p[:, 0] / self.a ** 2, p[:, 1] / self.b ** 2])
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        return (np.cos(p[:, 0]) + 1.0) * n[:, 0]

    def query_points(self) -> np.ndarray:
        """The next 256 points drawn uniformly in the ellipse."""
        r = np.sqrt(self.rng.random(self.n_points))
        t = 2.0 * np.pi * self.rng.random(self.n_points)
        return np.column_stack([self.a * r * np.cos(t), self.b * r * np.sin(t)])

    def solve(self):
        knots = geometry.ellipse_knots(self.problem.geometry, self.n_boundary)
        knots = knots.with_dirichlet_count(self.n_dirichlet) \
            .with_interior(self.interior)
        return solver.solve_linear(self.problem, knots, kernels.mq_pair(self.shape))

    def op(self, i: int) -> OpResult:
        pts = self.query_points()
        t0 = time.perf_counter()
        try:
            solution = self.solve()
        except (BkmError, np.linalg.LinAlgError) as exc:
            return _failed(time.perf_counter() - t0, exc)
        t1 = time.perf_counter()
        computed = solver.evaluate(solution, pts)
        t2 = time.perf_counter()
        err = float(np.max(np.abs(computed - self.exact(pts))))
        problem = None if err <= WIDE_MAX_ABS_ERR else \
            f"max_abs_err {err:.3e} > {WIDE_MAX_ABS_ERR:.0e}"
        return _checked(OpResult(t1 - t0, t2 - t1, len(pts), err),
                        computed, problem)


class FrmWorkload:
    """table1 (c = 3) and table2 (c = 18) at 1000 knots, truncated to k = 8."""

    name = "frm"

    def __init__(self, seed: int):
        self.cases = [(bench.table1_case(), 3.0), (bench.table2_case(), 18.0)]
        self.start = seed % 2

    def op(self, i: int) -> OpResult:
        case, c = self.cases[(self.start + i) % 2]
        t0 = time.perf_counter()
        report = bench.run_case(case, FRM_KNOTS, c, frm_k=FRM_K)
        t1 = time.perf_counter()
        if report.error is not None:
            return OpResult(t1 - t0, None, 0, 0.0, report.error)
        return _checked(OpResult(t1 - t0, None, len(report.computed),
                                 report.max_abs), report.computed, None)


WORKLOADS = {w.name: w for w in (PaperWorkload, WideWorkload, FrmWorkload)}
