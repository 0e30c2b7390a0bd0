import numpy as np
import pytest

from bkm._linalg import FactoredMatrix
from bkm.drm import (apply_operator_coupling, build_interpolation_matrix,
                     evaluate_particular, evaluate_particular_normal,
                     fit_particular)
from bkm.errors import IllConditionedError
from bkm.geometry import Ellipse, KnotSet, ellipse_knots
from bkm.kernels import mq_pair
from oracles import fd_directional, fd_laplacian, interior_points

ELL = Ellipse(np.zeros(2), 2.0, 1.0)


def single_knot_set():
    return KnotSet(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))


def test_single_knot_matrix_is_phi_at_zero():
    m = build_interpolation_matrix(single_knot_set(), mq_pair(3.0))
    np.testing.assert_allclose(m, [[45.0]])


def test_two_knot_matrix_structure():
    ks = KnotSet(np.array([[0.0, 0.0], [1.0, 0.5]]),
                 np.array([[1.0, 0.0], [0.0, 1.0]]))
    pair = mq_pair(3.0)
    m = build_interpolation_matrix(ks, pair)
    assert m[0, 0] == m[1, 1] == pytest.approx(45.0)
    assert m[0, 1] == m[1, 0]
    d = np.hypot(1.0, 0.5)
    assert m[0, 1] == pytest.approx(float(pair.phi(d)))


def test_seven_knot_matrix_symmetric_with_constant_diagonal():
    ks = ellipse_knots(ELL, 7)
    m = build_interpolation_matrix(ks, mq_pair(3.0))
    assert m.shape == (7, 7)
    np.testing.assert_array_equal(m, m.T)
    np.testing.assert_allclose(np.diag(m), 45.0)


def test_matrix_symmetry_survives_knot_permutation():
    base = ellipse_knots(ELL, 9).boundary_positions
    rng = np.random.default_rng(0)
    perm = rng.permutation(9)
    normals = ellipse_knots(ELL, 9).boundary_normals
    permuted = KnotSet(base[perm], normals[perm])
    m = build_interpolation_matrix(permuted, mq_pair(3.0))
    np.testing.assert_array_equal(m, m.T)


def test_fit_zero_rhs_gives_zero_alpha():
    ks = ellipse_knots(ELL, 7)
    fit = fit_particular(ks, mq_pair(3.0), np.zeros(7))
    np.testing.assert_allclose(fit.alpha, 0.0, atol=1e-12)


def test_fit_single_knot():
    fit = fit_particular(single_knot_set(), mq_pair(3.0), [90.0])
    np.testing.assert_allclose(fit.alpha, [2.0])


def test_fit_reproduces_rhs_at_knots():
    ks = ellipse_knots(ELL, 7)
    pair = mq_pair(3.0)
    rhs = ks.boundary_positions[:, 0]
    fit = fit_particular(ks, pair, rhs)
    matrix = build_interpolation_matrix(ks, pair)
    resid = np.max(np.abs(matrix @ fit.alpha - rhs))
    assert resid <= 1e-9 * np.max(np.abs(rhs))


@pytest.mark.parametrize("n_boundary,n_interior", [(5, 0), (8, 6), (20, 14)])
def test_interpolation_exactness_random_rhs(n_boundary, n_interior):
    ks = ellipse_knots(ELL, n_boundary)
    if n_interior:
        ks = ks.with_interior(interior_points(ELL, n_interior, seed=3, shrink=0.9))
    pair = mq_pair(1.0)
    matrix = build_interpolation_matrix(ks, pair)
    rng = np.random.default_rng(42)
    for _ in range(5):
        rhs = rng.standard_normal(ks.size)
        fit = fit_particular(ks, pair, rhs)
        resid = np.max(np.abs(matrix @ fit.alpha - rhs))
        assert resid <= 1e-9 * np.max(np.abs(rhs))


def test_fit_rejects_wrong_rhs_length():
    ks = ellipse_knots(ELL, 7)
    with pytest.raises(ValueError):
        fit_particular(ks, mq_pair(3.0), np.zeros(6))


def test_fit_refuses_numerically_singular_matrix():
    # 50 boundary-only knots at c = 3 sail far past the condition threshold
    ks = ellipse_knots(ELL, 50)
    with pytest.raises(IllConditionedError) as err:
        fit_particular(ks, mq_pair(3.0), np.zeros(50))
    assert err.value.condition > 1e14


def test_evaluate_particular_zero_alpha():
    ks = ellipse_knots(ELL, 7)
    fit = fit_particular(ks, mq_pair(3.0), np.zeros(7))
    assert evaluate_particular(fit, [0.3, 0.4]) == pytest.approx(0.0, abs=1e-10)


def test_evaluate_particular_single_knot_at_origin():
    fit = fit_particular(single_knot_set(), mq_pair(3.0), [45.0])  # alpha = [1]
    np.testing.assert_allclose(fit.alpha, [1.0])
    assert evaluate_particular(fit, [0.0, 0.0]) == pytest.approx(27.0)


def test_particular_satisfies_equation_at_knots():
    # push u_p through the operator by finite differences; it must reproduce
    # the interpolated right-hand side at the knots
    ks = ellipse_knots(ELL, 7)
    fit = fit_particular(ks, mq_pair(3.0), ks.boundary_positions[:, 0])
    up = lambda p: evaluate_particular(fit, p)
    # step balances stencil truncation against rounding; the expansion terms
    # are two orders larger than their cancelled sum, which sets the noise
    for knot, rhs in zip(ks.boundary_positions, ks.boundary_positions[:, 0]):
        resid = fd_laplacian(up, knot, h=1e-3) + up(knot) - rhs
        assert abs(resid) < 1e-6


def test_evaluate_particular_normal_zero_cases():
    ks = ellipse_knots(ELL, 7)
    fit = fit_particular(ks, mq_pair(3.0), np.zeros(7))
    assert evaluate_particular_normal(fit, [0.5, 0.1], [1.0, 0.0]) == 0.0
    fit2 = fit_particular(single_knot_set(), mq_pair(3.0), [45.0])
    assert evaluate_particular_normal(fit2, [0.0, 0.0], [1.0, 0.0]) == 0.0


def test_evaluate_particular_normal_matches_finite_difference():
    ks = ellipse_knots(ELL, 7)
    fit = fit_particular(ks, mq_pair(3.0), ks.boundary_positions[:, 0])
    up = lambda p: evaluate_particular(fit, p)
    n = np.array([0.6, 0.8])
    for x in ([0.5, 0.2], [1.1, -0.3], [2.0, 0.0]):
        fd = fd_directional(up, x, n)
        assert evaluate_particular_normal(fit, x, n) == pytest.approx(fd, abs=1e-6)


def test_evaluate_particular_vectorised():
    ks = ellipse_knots(ELL, 7)
    fit = fit_particular(ks, mq_pair(3.0), ks.boundary_positions[:, 0])
    pts = np.array([[0.0, 0.0], [1.0, 0.2], [-0.5, 0.3]])
    batch = evaluate_particular(fit, pts)
    singles = [evaluate_particular(fit, p) for p in pts]
    np.testing.assert_allclose(batch, singles)


def test_operator_coupling_zero_identity_and_scaling():
    ks = ellipse_knots(ELL, 7)
    matrix = FactoredMatrix(build_interpolation_matrix(ks, mq_pair(3.0)))
    zero = apply_operator_coupling(matrix, np.zeros((7, 7)))
    np.testing.assert_allclose(zero, 0.0, atol=1e-12)
    ident = apply_operator_coupling(matrix, matrix.matrix)
    np.testing.assert_allclose(ident, np.eye(7), atol=1e-9)
    doubled = apply_operator_coupling(matrix, 2.0 * matrix.matrix)
    np.testing.assert_allclose(doubled, 2.0 * np.eye(7), atol=1e-9)


def test_operator_coupling_shape_mismatch():
    ks = ellipse_knots(ELL, 7)
    matrix = FactoredMatrix(build_interpolation_matrix(ks, mq_pair(3.0)))
    with pytest.raises(ValueError):
        apply_operator_coupling(matrix, np.zeros((6, 6)))
