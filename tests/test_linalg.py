"""FactoredMatrix against the scipy wrappers it replaces, and the input checks
that guard every dense solve and field evaluation."""
import math
import re

import numpy as np
import pytest
import scipy.linalg as sla

from bkm import _linalg, solver
from bkm._linalg import FactoredMatrix
from bkm.bench import run_case, table2_case
from bkm.drm import evaluate_particular
from bkm.errors import IllConditionedError
from bkm.geometry import Ellipse, ellipse_knots
from bkm.kernels import _validated_radius, mq_pair
from bkm.solver import ProblemSpec, solve_linear
from oracles import allocation_peak

LD = np.longdouble


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


def lu_oracle(a, b, residual_dtype):
    """lu_factor + lu_solve with one refinement step, residual in the given dtype."""
    lu = sla.lu_factor(a)
    x = sla.lu_solve(lu, b)
    resid = (b.astype(residual_dtype)
             - a.astype(residual_dtype) @ x.astype(residual_dtype)).astype(float)
    return x + sla.lu_solve(lu, resid)


def long_double_residual(a, b, x):
    return float(np.max(np.abs(b.astype(LD) - a.astype(LD) @ x.astype(LD))))


#: The largest n whose long-double residual is formed in one block.
ONE_BLOCK = math.isqrt(_linalg._RESIDUAL_BLOCK_ENTRIES)


@pytest.mark.parametrize("n", [1, 7, ONE_BLOCK - 1, ONE_BLOCK, ONE_BLOCK + 1,
                               144, 300])
def test_vector_solve_bit_identical_to_scipy_oracle(n):
    # the oracle forms the residual from the whole long-double matrix; the
    # solver forms it by np.dot, a block of rows at a time past ONE_BLOCK
    for a, b in (well_conditioned(n, seed=n), wide_range(n, seed=n)):
        got = FactoredMatrix(a).solve(b)
        assert got.tobytes() == lu_oracle(a, b, LD).tobytes()


def test_vector_solve_makes_no_matrix_sized_copy():
    n = 144
    a, b = well_conditioned(n, seed=5)
    f = FactoredMatrix(a)
    assert allocation_peak(lambda: f.solve(b)) < n * n * 8


def test_matrix_rhs_refines_with_a_float64_residual():
    a, _ = well_conditioned(40, seed=3)
    b = np.random.default_rng(4).standard_normal((40, 40))
    got = FactoredMatrix(a).solve(b)
    assert got.tobytes() == lu_oracle(a, b, float).tobytes()


def test_condition_estimate_matches_dgecon_on_the_scipy_factors():
    a, _ = well_conditioned(7, seed=1)
    rcond, _ = sla.lapack.dgecon(sla.lu_factor(a)[0], np.linalg.norm(a, 1))
    assert FactoredMatrix(a).condition == 1.0 / rcond


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_raises(bad):
    a, _ = well_conditioned(5, seed=2)
    a[3, 1] = bad
    with pytest.raises(ValueError, match="matrix must not contain infs"):
        FactoredMatrix(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rhs_raises(bad):
    a, b = well_conditioned(5, seed=2)
    b[2] = bad
    with pytest.raises(ValueError, match="right-hand side must not contain infs"):
        FactoredMatrix(a).solve(b)


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


def test_evaluate_rejects_non_finite_query_points():
    # (m, d) query arrays are refused before any distance is computed, also
    # by the component evaluators, whose kernels validate nothing
    e = Ellipse(np.zeros(2), 2.0, 1.0)
    problem = ProblemSpec(forcing=lambda p: p[:, 0],
                          dirichlet=lambda p: np.sin(p[:, 0]) + p[:, 0])
    solution = solve_linear(problem, ellipse_knots(e, 7), mq_pair(3.0))
    evaluators = (solver.evaluate, solver.evaluate_homogeneous,
                  lambda sol, x: evaluate_particular(sol.drm_fit, x))
    for evaluator in evaluators:
        for bad in ([[np.nan, 0.0]], [[0.0, np.inf]],
                    [[np.nan, 0.0], [0.5, 0.1]], [[0.5, 0.1], [0.0, -np.inf]]):
            with pytest.raises(ValueError, match="point coordinates must be finite"):
                evaluator(solution, bad)


def test_refinement_reduces_both_table2_residuals(monkeypatch):
    """The extended-precision step is what makes the 9-knot table2 systems
    (fit condition ~2e10) closer to solved than a plain LU solve.

    Against the exact field the refined and unrefined answers differ by
    ~3e-5, about 3000 times less than the discretisation error (~9e-2) and
    in either direction point by point, so the pin is on the residual of
    each system, the quantity the refinement reduces.
    """
    stages = []
    refined_solve = FactoredMatrix.solve

    def spy(self, rhs):
        x = refined_solve(self, rhs)
        stages.append((self.label, self.matrix, np.asarray(rhs, dtype=float), x))
        return x

    monkeypatch.setattr(_linalg.FactoredMatrix, "solve", spy)
    report = run_case(table2_case(), 9, 18.0)
    assert report.error is None and report.max_rel <= 0.08
    assert [label for label, *_ in stages] == ["particular-fit", "collocation"]
    for label, a, b, x in stages:
        plain = sla.lu_solve(sla.lu_factor(a), b)
        assert long_double_residual(a, b, x) < long_double_residual(a, b, plain), label
