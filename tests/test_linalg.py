"""FactoredMatrix against the scipy wrappers it replaces, the backward-error
gate every solve passes, and the input checks that guard every dense solve
and field evaluation."""
import functools
import re
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from bkm import _linalg, frm, solver
from bkm._linalg import FactoredMatrix
from bkm.drm import evaluate_particular
from bkm.errors import IllConditionedError
from bkm.geometry import Ellipse, ellipse_knots
from bkm.gsr import GsrKernel, constrained_interpolate, evaluate_constrained
from bkm.kernels import _validated_radius, mq_pair
from bkm.solver import ProblemSpec, solve_linear
from oracles import allocation_peak, mp_solve


def well_conditioned(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + n * np.eye(n), rng.standard_normal(n)


def wide_range(n, seed):
    """A system whose entries span 1e-8 to 1e8 in magnitude: each row is
    made diagonally dominant, so the scaling stays well inside COND_LIMIT."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8, 8, (n, n))
    a[np.diag_indices(n)] = 2 * np.abs(a).sum(axis=1)
    return a, rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)


def lu_oracle(a, b):
    """Plain lu_factor + lu_solve: no refinement."""
    return sla.lu_solve(sla.lu_factor(a), b)


@pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 144, 300])
def test_vector_solve_bit_identical_to_scipy_oracle(n):
    # a backward-stable LU solve is accepted as it is: no refinement step
    for a, b in (well_conditioned(n, seed=n), wide_range(n, seed=n)):
        f = FactoredMatrix(a)
        got = f.solve(b)
        assert got.tobytes() == lu_oracle(a, b).tobytes()
        assert f.eta <= _linalg.RESIDUAL_TOL


def test_vector_solve_makes_no_matrix_sized_copy():
    n = 144
    a, b = well_conditioned(n, seed=5)
    f = FactoredMatrix(a)
    assert allocation_peak(lambda: f.solve(b)) < n * n * 8


def test_matrix_rhs_bit_identical_to_scipy_oracle():
    a, _ = well_conditioned(40, seed=3)
    b = np.random.default_rng(4).standard_normal((40, 40))
    got = FactoredMatrix(a).solve(b)
    assert got.tobytes() == lu_oracle(a, b).tobytes()


def test_condition_estimate_matches_dgecon_on_the_scipy_factors():
    a, _ = well_conditioned(7, seed=1)
    rcond, _ = sla.lapack.dgecon(sla.lu_factor(a)[0], np.linalg.norm(a, 1))
    assert FactoredMatrix(a).condition == 1.0 / rcond


@pytest.mark.parametrize("n", [1, 2, 7, 40, 144])
def test_inverse_norm_estimate_is_dgecons_iteration(n):
    # dgecon runs LAPACK's dlacn2 on U^-1 L^-1 (A^-1 with its columns
    # permuted, which keeps the 1-norm): the same iteration over the same
    # triangular solves gives its estimate up to rounding (there are no ties
    # in the sign vectors or the argmax on these matrices)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0, n)
        lu = sla.lu_factor(a)[0]
        rcond, _ = sla.lapack.dgecon(lu, np.linalg.norm(a, 1))
        triangular = functools.partial(sla.solve_triangular, lu)   # U by default
        unit_lower = {"lower": True, "unit_diagonal": True}
        estimate = _linalg.inverse_norm_estimate(
            lambda b: triangular(triangular(b, **unit_lower)),
            lambda b: triangular(triangular(b, trans=1), trans=1, **unit_lower), n)
        assert estimate * np.linalg.norm(a, 1) == pytest.approx(1.0 / rcond, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_raises(bad):
    a, _ = well_conditioned(5, seed=2)
    a[3, 1] = bad
    with pytest.raises(ValueError, match="matrix must not contain infs"):
        FactoredMatrix(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rhs_raises(bad):
    # b is examined only once its solution fails the finiteness check, so an
    # inf or a nan anywhere in a 1-d or 2-d b must reach x: on full, diagonal
    # and triangular factors alike, whose zero multipliers turn inf into nan
    n = 5
    a, _ = well_conditioned(n, seed=2)
    for matrix in (a, np.diag(np.arange(1.0, n + 1)), np.triu(a) + n * np.eye(n),
                   np.tril(a) + n * np.eye(n)):
        f = FactoredMatrix(matrix)
        for shape in ((n,), (n, 3)):
            for index in np.ndindex(shape):
                b = np.ones(shape)
                b[index] = bad
                with pytest.raises(ValueError, match=re.escape(
                        "right-hand side must not contain infs or NaNs")):
                    f.solve(b)


@pytest.mark.parametrize("shape", [(2, 3), (0, 0)], ids=["non-square", "empty"])
def test_non_square_or_empty_matrix_raises(shape):
    with pytest.raises(ValueError, match=re.escape(
            f"matrix must be square and non-empty, got shape {shape}")):
        FactoredMatrix(np.ones(shape))


def test_rhs_of_wrong_shape_raises():
    a, _ = well_conditioned(5, seed=2)
    with pytest.raises(ValueError, match="does not fit"):
        FactoredMatrix(a).solve(np.ones(4))


def test_exactly_singular_matrix_is_refused_without_a_warning():
    # pytest turns any warning into an error, so this also checks that none
    # is emitted on the way to the refusal
    with pytest.raises(IllConditionedError) as info:
        FactoredMatrix(np.ones((4, 4)), label="fit")
    assert info.value.condition == np.inf


@pytest.mark.parametrize("bad,message", [(np.nan, "must be finite"),
                                         (np.inf, "must be finite"),
                                         (-np.inf, "must be finite"),
                                         (-1e-300, "must be non-negative")])
def test_validated_radius_messages(bad, message):
    for r in (bad, np.array([[0.5, 2.0], [bad, 1.0]])):
        with pytest.raises(ValueError, match=message):
            _validated_radius(r)


def test_validated_radius_accepts_empty_and_zero():
    assert _validated_radius(np.empty((0, 3))).shape == (0, 3)
    assert _validated_radius(0.0) == 0.0


def _table1_evaluators():
    """A 7-knot solution on table1's ellipse and its three point evaluators."""
    e = Ellipse(np.zeros(2), 2.0, 1.0)
    problem = ProblemSpec(forcing=lambda p: p[:, 0],
                          dirichlet=lambda p: np.sin(p[:, 0]) + p[:, 0])
    solution = solve_linear(problem, ellipse_knots(e, 7), mq_pair(3.0))
    evaluators = (solver.evaluate, solver.evaluate_homogeneous,
                  lambda sol, x: evaluate_particular(sol.drm_fit, x))
    return solution, evaluators


def test_evaluate_rejects_non_finite_query_points():
    # (m, d) query arrays are refused, also by the component evaluators,
    # whose kernels validate nothing, naming the coordinates
    solution, evaluators = _table1_evaluators()
    for evaluator in evaluators:
        for bad in ([[np.nan, 0.0]], [[0.0, np.inf]],
                    [[np.nan, 0.0], [0.5, 0.1]], [[0.5, 0.1], [0.0, -np.inf]]):
            with pytest.raises(ValueError, match="point coordinates must be finite"):
                evaluator(solution, bad)


def test_evaluate_rejects_points_whose_distances_overflow():
    # finite coordinates whose distances to the knots overflow to inf are
    # refused by every evaluator, one point or many, in one block or in
    # row slices, with no numpy warning on the way; the constrained GSR
    # evaluator, whose cos kernel would turn inf into nan, among them
    solution, evaluators = _table1_evaluators()
    nodes = solution.knots.boundary_positions
    gsr_fit = constrained_interpolate(nodes, GsrKernel("simple", np.cos),
                                      lambda p: 1.0, np.sin(nodes[:, 0]))
    evaluators += (lambda sol, x: evaluate_constrained(gsr_fit, x),)
    far = [1e200, 0.0]
    many = np.zeros((5000, 2))
    many[4321] = far
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluator in evaluators:
            for bad in (far, [far], [[0.5, 0.1], far], many):
                with pytest.raises(ValueError, match=re.escape(
                        "distances from point (1e+200, 0) to the knots overflow")):
                    evaluator(solution, bad)
            # far points whose distances and kernels stay finite evaluate
            assert np.isfinite(evaluator(solution, [[1e100, 0.0]])).all()


def wilkinson(n):
    """Wilkinson's matrix: 1 on the diagonal and in the last column, -1 below
    the diagonal. Partial pivoting swaps no row and the last column of U
    doubles at each step, a pivot growth of 2^(n-1)."""
    a = np.eye(n) - np.tril(np.ones((n, n)), -1)
    a[:, -1] = 1.0
    return a


def test_large_pivot_growth_is_refined_once(monkeypatch):
    a, b = wilkinson(60), np.random.default_rng(0).standard_normal(60)
    f = FactoredMatrix(a)
    unrefined = sla.lu_solve(sla.lu_factor(a), b)
    eta = np.max(np.abs(b - a @ unrefined)) / (
        np.abs(a).sum(axis=1).max() * np.max(np.abs(unrefined)) + np.max(np.abs(b)))
    assert eta > 1e-3                    # the growth spoils the plain solve
    solves = []
    lu_solve = FactoredMatrix._lu_solve
    monkeypatch.setattr(FactoredMatrix, "_lu_solve",
                        lambda self, rhs: solves.append(rhs) or lu_solve(self, rhs))
    x = f.solve(b)
    assert len(solves) == 2              # the solve and one refinement step
    assert f.eta <= _linalg.RESIDUAL_TOL and f.record().eta == f.eta
    exact = mp_solve(a, b)
    assert np.max(np.abs(x - exact)) <= 1e-14 * np.max(np.abs(exact))


def test_record_carries_the_largest_backward_error_of_its_solves():
    a, b = well_conditioned(30, seed=8)
    f = FactoredMatrix(a, label="fit")
    assert f.record() == _linalg.SolveRecord("fit", 30, f.condition, 0.0)
    etas = []
    for rhs in (b, np.random.default_rng(9).standard_normal((30, 4)), 1e3 * b):
        f.solve(rhs)
        etas.append(f.eta)
    assert etas == sorted(etas) and 0 < f.record().eta <= _linalg.RESIDUAL_TOL


def test_one_tolerance_serves_dense_and_sparse_solves():
    assert frm.RESIDUAL_TOL is _linalg.RESIDUAL_TOL


@pytest.mark.parametrize("rhs_columns", [None, 3], ids=["vector", "matrix"])
def test_dense_refusal_names_the_stage_and_its_condition(monkeypatch, rhs_columns):
    a, b = well_conditioned(20, seed=6)
    if rhs_columns:
        b = np.random.default_rng(7).standard_normal((20, rhs_columns))
    f = FactoredMatrix(a, label="particular-fit")
    monkeypatch.setattr(_linalg, "RESIDUAL_TOL", 0.0)
    with pytest.raises(IllConditionedError, match=re.escape(
            "particular-fit solve backward error")) as info:
        f.solve(b)
    assert info.value.condition == f.condition
    assert f"condition estimate {f.condition:.3e}" in str(info.value)


def test_a_refusal_without_a_condition_names_no_estimate():
    err = IllConditionedError("collocation solve backward error 1e-08 exceeds 1e-09")
    assert err.condition is None
    assert str(err) == "collocation solve backward error 1e-08 exceeds 1e-09"
    assert str(IllConditionedError("fit", np.inf)) == "fit (condition estimate inf)"


def test_a_non_finite_solution_is_refused_before_its_backward_error(monkeypatch):
    a, b = well_conditioned(5, seed=2)
    f = FactoredMatrix(a, label="fit")
    monkeypatch.setattr(FactoredMatrix, "_lu_solve", lambda self, rhs: rhs * np.inf)
    with pytest.raises(np.linalg.LinAlgError, match="fit solve produced non-finite"):
        f.solve(b)
