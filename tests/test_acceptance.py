"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""
import numpy as np
import pytest

import bkm
from bkm._linalg import FactoredMatrix
from bkm.bench import run_case, table1_case, table2_case
from bkm.drm import build_interpolation_matrix
from bkm.frm import solve_sparse, truncate_system
from bkm.geometry import Ellipse, ellipse_knots
from bkm.gsr import (GsrKernel, constrained_interpolate, evaluate_constrained,
                     timespace_distance)
from bkm.kernels import bessel_j0, bessel_j1, mq_pair
from bkm.solver import (ProblemSpec, RhoZero, evaluate, evaluate_homogeneous,
                        solve_linear, solve_nonlinear_boundary_only)
from oracles import safe_log, series_j0, series_j1

ELL1 = Ellipse(np.zeros(2), 2.0, 1.0)


def check(num, passed, description):
    print(f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'} {description}")
    assert passed, f"criterion {num}: {description}"


def test_criterion_01_table1_reproduction():
    case = table1_case()
    r7 = run_case(case, 7, 3.0)
    r5 = run_case(case, 5, 3.0)
    ok = r7.error is None and r5.error is None and \
        r7.max_abs <= 0.1 and r5.max_abs <= 0.15
    check(1, ok, f"table1 errors: N=7 max {r7.max_abs:.4f} <= 0.1, "
                 f"N=5 max {r5.max_abs:.4f} <= 0.15")


def test_criterion_02_table1_convergence():
    reports = bkm.convergence_sweep(table1_case(), [5, 7], 3.0)
    rms5, rms7 = reports[0].rms, reports[1].rms
    check(2, rms7 <= rms5,
          f"table1 RMS non-increasing: {rms7:.4f} (N=7) <= {rms5:.4f} (N=5)")


def test_criterion_03_table2_reproduction_single_solve():
    report = run_case(table2_case(), 9, 18.0)
    nonzero = np.abs(report.exact) > 1e-12
    rel_ok = report.error is None and \
        np.all(report.rel_err[nonzero] <= 0.08)
    zero_ok = abs(report.computed[0]) <= 0.05        # the (4.5, 0) point
    single_pair = len(report.diagnostics) == 2 and \
        [r.label for r in report.diagnostics] == ["particular-fit", "collocation"]
    check(3, rel_ok and zero_ok and single_pair,
          f"table2 N=9: max rel {report.max_rel:.4f} <= 0.08, "
          f"|u(4.5,0)| = {abs(report.computed[0]):.2e} <= 0.05, "
          f"{len(report.diagnostics)} factorisations (one pair)")


def test_criterion_04_operator_consistency():
    rng = np.random.default_rng(4)
    worst = 0.0
    h = np.longdouble(1e-5)
    for c in (1.0, 3.0, 18.0):
        pair = mq_pair(c)
        for r in rng.uniform(1e-3, 5.0, 40):
            r_ld = np.longdouble(r)
            f0, fp, fm = (pair.phi_hat(v) for v in (r_ld, r_ld + h, r_ld - h))
            lap = (fp - 2.0 * f0 + fm) / h**2 + (fp - fm) / (2.0 * h) / r_ld
            resid = abs(float(lap + f0) - pair.phi(r)) / pair.phi(r)
            worst = max(worst, resid)
    check(4, worst <= 1e-6,
          f"operator image equals (laplacian+1) of the basis: "
          f"worst rel {worst:.2e} <= 1e-6 over r in (0,5], c in {{1,3,18}}")


def _homogeneous_fd_residual(solution, points, h=1e-4):
    offsets = np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    stencil = (points[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
    v = evaluate_homogeneous(solution, stencil).reshape(len(points), 5)
    lap = (v[:, 1] + v[:, 2] + v[:, 3] + v[:, 4] - 4.0 * v[:, 0]) / h**2
    return np.max(np.abs(lap + v[:, 0]))


def test_criterion_05_homogeneous_residual():
    runs = []
    case1, case2 = table1_case(), table2_case()
    for case, counts, c in ((case1, (5, 7), 3.0), (case2, (7, 9), 18.0)):
        pts = case.problem.geometry.interior_samples(100, seed=55, shrink=0.98)
        for n in counts:
            knots = ellipse_knots(case.problem.geometry, n)
            kernel = mq_pair(c)
            if isinstance(case.problem.rho, RhoZero):
                sol = solve_linear(case.problem, knots, kernel)
            else:
                sol = solve_nonlinear_boundary_only(case.problem, knots, kernel)
            resid = _homogeneous_fd_residual(sol, pts)
            scale = max(1.0, float(np.sum(np.abs(sol.lam))))
            runs.append((case.label, n, resid / scale))
    worst = max(r for _, _, r in runs)
    ok = worst <= 1e-6
    detail = ", ".join(f"{label} N={n}: {r:.2e}" for label, n, r in runs)
    check(5, ok, f"homogeneous component solves the equation at 100 interior "
                 f"points (scaled FD residual <= 1e-6): {detail}")


def test_criterion_06_drm_exactness():
    rng = np.random.default_rng(6)
    pair = mq_pair(1.0)
    worst = 0.0
    fits = 0
    for total, n_interior in ((5, 0), (12, 5), (24, 10), (36, 16), (50, 24)):
        knots = ellipse_knots(ELL1, total - n_interior)
        if n_interior:
            knots = knots.with_interior(
                ELL1.interior_samples(n_interior, seed=total, shrink=0.9))
        matrix = build_interpolation_matrix(knots, pair)
        fit_lu = FactoredMatrix(matrix)     # the solver's fit stage
        for _ in range(4):
            rhs = rng.standard_normal(knots.size)
            alpha = fit_lu.solve(rhs)
            resid = np.max(np.abs(matrix @ alpha - rhs)) / np.max(np.abs(rhs))
            worst = max(worst, resid)
            fits += 1
    check(6, fits == 20 and worst <= 1e-9,
          f"DRM interpolation exactness on {fits} random right-hand sides over "
          f"5..50 knots: worst rel residual {worst:.2e} <= 1e-9")


def test_criterion_07_manufactured_homogeneous_field():
    xstar = np.array([3.0, 2.0])             # outside the ellipse
    ustar = lambda p: bessel_j0(np.linalg.norm(p - xstar, axis=1))
    problem = ProblemSpec(forcing=lambda p: np.zeros(len(p)), dirichlet=ustar,
                          rho=RhoZero(), geometry=ELL1)
    sol = solve_linear(problem, ellipse_knots(ELL1, 16), mq_pair(3.0))
    pts = ELL1.interior_samples(50, seed=77)
    err = np.max(np.abs(evaluate(sol, pts) - ustar(pts)))
    check(7, err <= 1e-6,
          f"field sampled from the basis reproduced at 50 interior points "
          f"with N=16: max err {err:.2e} <= 1e-6")


def test_criterion_08_frm_consistency():
    # full truncation equals the dense solve
    knots = ellipse_knots(ELL1, 20)
    pair = mq_pair(1.0)
    matrix = build_interpolation_matrix(knots, pair)
    rhs = matrix @ np.random.default_rng(8).uniform(-1.0, 1.0, 20)
    dense_x = FactoredMatrix(matrix).solve(rhs)
    sparse_x = solve_sparse(truncate_system(lambda i, j: matrix[i, j], rhs, knots, 20))
    full_diff = np.max(np.abs(sparse_x - dense_x))

    # widening the support must not increase the interpolant error
    knots50 = ellipse_knots(ELL1, 50)
    m50 = build_interpolation_matrix(knots50, pair)
    bp = knots50.boundary_positions
    fvals = np.sin(bp[:, 0]) + bp[:, 0] * bp[:, 1]
    grid = ELL1.interior_samples(40, seed=0)
    basis = pair.phi(np.linalg.norm(grid[:, None, :] - bp[None, :, :], axis=2))
    reference = basis @ solve_sparse(
        truncate_system(lambda i, j: m50[i, j], fvals, knots50, 50))
    errs = [np.max(np.abs(basis @ solve_sparse(
        truncate_system(lambda i, j: m50[i, j], fvals, knots50, k)) - reference))
            for k in (10, 25, 50)]
    monotone = errs[0] >= errs[1] >= errs[2]
    ok = full_diff <= 1e-10 and monotone
    check(8, ok, f"FRM: k=N matches dense within {full_diff:.2e} <= 1e-10; "
                 f"50-knot sweep errors {[f'{e:.2e}' for e in errs]} "
                 f"non-increasing")


def test_criterion_09_gsr_suite():
    # side condition on a batch of fits
    tps = GsrKernel("simple", g=safe_log, m=1)
    rng = np.random.default_rng(9)
    side_worst = 0.0
    interp_worst = 0.0
    for n, psi in ((8, lambda x: 1.0), (10, lambda x: 1.0),
                   (12, lambda x: x[..., 0]), (9, lambda x: 1.0 + x[..., 1])):
        nodes = rng.uniform(-2, 2, size=(n, 2))
        values = rng.standard_normal(n)
        fit = constrained_interpolate(nodes, tps, psi, values)
        side_worst = max(side_worst, abs(fit.side_condition))
        reproduced = np.array([evaluate_constrained(fit, x) for x in nodes])
        interp_worst = max(interp_worst, float(np.max(np.abs(reproduced - values)))
                           / float(np.max(np.abs(values))))

    # pre-wavelet kernels reduce exactly to the plain form at c = 0
    plain = GsrKernel("simple", g=safe_log, m=1)
    reduced = GsrKernel("simple", g=safe_log, m=1, prewavelet_c=0.0)
    radii = np.linspace(0.05, 10.0, 100)
    reduction_exact = all(reduced(r) == plain(r) for r in radii)

    # thin plate spline values
    tps_worst = max(abs(plain(r) - r * r * np.log(r)) / max(abs(r * r * np.log(r)), 1e-30)
                    for r in np.linspace(0.01, 10.0, 300) if r != 1.0)

    # metric axioms on 1000 random space-time triples
    pts = rng.uniform(-30, 30, size=(1000, 3, 3))
    metric_ok = True
    for a, b, c in pts:
        dab = timespace_distance(a, b)
        if abs(dab - timespace_distance(b, a)) > 1e-12:
            metric_ok = False
        if timespace_distance(a, a) != 0.0:
            metric_ok = False
        if timespace_distance(a, c) > dab + timespace_distance(b, c) + 1e-12:
            metric_ok = False

    ok = side_worst <= 1e-10 and interp_worst <= 1e-9 and reduction_exact and \
        tps_worst <= 1e-12 and metric_ok
    check(9, ok, f"GSR: side condition {side_worst:.2e} <= 1e-10, "
                 f"interpolation {interp_worst:.2e} <= 1e-9, pre-wavelet "
                 f"reduction exact: {reduction_exact}, TPS match "
                 f"{tps_worst:.2e} <= 1e-12, metric axioms on 1000 triples: "
                 f"{metric_ok}")


def test_criterion_10_bessel_accuracy():
    grid = np.linspace(0.0, 20.0, 100)
    worst = 0.0
    for x in grid:
        for mine, oracle in ((bessel_j0(float(x)), series_j0(x)),
                             (bessel_j1(float(x)), series_j1(x))):
            rel = abs(mine - oracle) / max(abs(oracle), 1e-300)
            worst = max(worst, rel)
    check(10, worst <= 1e-12,
          f"J0/J1 match the extended-precision series oracle on 100 points "
          f"over [0, 20]: worst rel {worst:.2e} <= 1e-12")
