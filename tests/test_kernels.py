import numpy as np
import pytest

from bkm.kernels import (bessel_j0, bessel_j1, helmholtz_general_solution,
                         mq_pair)
from oracles import (bisect_zero, fd_radial_laplacian, series_j0, series_j1)


# ---------------------------------------------------------------------------
# Bessel evaluation
# ---------------------------------------------------------------------------

def test_j0_at_zero_and_one():
    assert bessel_j0(0.0) == 1.0
    assert bessel_j0(1.0) == pytest.approx(0.76519768655797, abs=1e-12)


def test_j1_at_zero_and_one():
    assert bessel_j1(0.0) == 0.0
    assert bessel_j1(1.0) == pytest.approx(0.44005058574493, abs=1e-12)


def test_j0_first_zero_located_by_series_bisection():
    zero = bisect_zero(series_j0, 2.0, 3.0)
    assert zero == pytest.approx(2.404825557695773, abs=1e-13)
    assert abs(bessel_j0(zero)) < 1e-12


def test_j1_first_positive_zero():
    zero = bisect_zero(series_j1, 3.0, 4.5)
    assert zero == pytest.approx(3.8317059702075, abs=1e-12)
    assert abs(bessel_j1(zero)) < 1e-12


@pytest.mark.parametrize("fn,oracle", [(bessel_j0, series_j0),
                                       (bessel_j1, series_j1)])
def test_bessel_matches_series_oracle(fn, oracle):
    grid = np.linspace(0.0, 20.0, 100)
    values = fn(grid)
    for x, v in zip(grid, values):
        ref = oracle(x)
        assert abs(v - ref) <= 1e-12 * max(abs(ref), 1e-300), f"x={x}"


def test_bessel_large_arguments_against_series():
    for x in np.linspace(20.0, 150.0, 27):
        assert bessel_j0(x) == pytest.approx(series_j0(x), abs=1e-14), f"x={x}"
        assert bessel_j1(x) == pytest.approx(series_j1(x), abs=1e-14), f"x={x}"


def test_j0_magnitude_bounded():
    grid = np.linspace(0.0, 40.0, 500)
    assert np.all(np.abs(bessel_j0(grid)) <= 1.0)


def test_bessel_rejects_bad_input():
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError):
            bessel_j0(bad)
        with pytest.raises(ValueError):
            bessel_j1(bad)


def test_bessel_scalar_and_array_agree():
    grid = np.array([0.0, 0.5, 3.3, 11.0, 17.2])
    arr = bessel_j0(grid)
    for x, v in zip(grid, arr):
        assert bessel_j0(float(x)) == v


def test_bessel_matrix_input_mixed_branches():
    grid = np.array([[0.0, 0.5, 14.0], [3.3, 11.0, 60.0]])
    for fn in (bessel_j0, bessel_j1):
        arr = fn(grid)
        assert arr.shape == grid.shape
        for idx in np.ndindex(grid.shape):
            assert arr[idx] == fn(float(grid[idx]))


def test_j0_derivative_is_minus_j1():
    h = 1e-6
    for r in np.linspace(0.1, 10.0, 40):
        fd = (bessel_j0(r + h) - bessel_j0(r - h)) / (2.0 * h)
        assert fd == pytest.approx(-bessel_j1(r), abs=1e-8)


# ---------------------------------------------------------------------------
# General solutions
# ---------------------------------------------------------------------------

def test_general_solution_2d_value():
    gs = helmholtz_general_solution(2)
    assert gs.value(0.0) == 1.0
    assert gs.value(1.0) == pytest.approx(0.76519768655797, abs=1e-12)


def test_general_solution_3d_values():
    gs = helmholtz_general_solution(3)
    assert gs.value(0.0) == 1.0
    assert gs.value(np.pi) == pytest.approx(0.0, abs=1e-15)
    assert gs.value(1.0) == pytest.approx(0.8414709848, abs=1e-10)


def test_general_solution_3d_derivative_zero_at_origin():
    gs = helmholtz_general_solution(3)
    assert gs.normal_derivative(0.0, 1.0) == 0.0


def test_general_solution_rejects_other_dimensions():
    with pytest.raises(ValueError):
        helmholtz_general_solution(4)


def test_general_solution_2d_normal_derivative():
    gs = helmholtz_general_solution(2)
    for r in (0.5, 2.0, 7.0):
        for p in (-1.0, 0.25, 1.0):
            assert gs.normal_derivative(r, p) == pytest.approx(-bessel_j1(r) * p,
                                                               abs=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
def test_general_solution_satisfies_radial_helmholtz(dim):
    gs = helmholtz_general_solution(dim)
    rng = np.random.default_rng(2)
    for r in rng.uniform(0.2, 10.0, 25):
        resid = fd_radial_laplacian(gs.value, r, h=1e-4, dim=dim) + gs.value(r)
        assert abs(resid) < 1e-6


def test_sinc_taylor_branch_matches_direct_formula():
    gs = helmholtz_general_solution(3)
    for r in (0.2e-4, 0.9e-4, 1.1e-4, 2e-4):
        assert gs.value(r) == pytest.approx(np.sin(r) / r, abs=1e-14)


# ---------------------------------------------------------------------------
# Multiquadric pair
# ---------------------------------------------------------------------------

def test_mq_pair_values_at_origin():
    pair = mq_pair(3.0)
    assert pair.phi_hat(0.0) == pytest.approx(27.0)
    assert pair.phi(0.0) == pytest.approx(45.0)       # 6 c + c^3
    for p in (-1.0, 0.3, 1.0):
        assert pair.phi_hat_normal(0.0, p) == 0.0


def test_mq_phi_zero_cross_checked_by_finite_differences():
    pair = mq_pair(3.0)
    h = 1e-5
    # 2-d laplacian of the radial profile at the origin: 2 f''(0) by symmetry
    second = (pair.phi_hat(h) - 2.0 * pair.phi_hat(0.0) + pair.phi_hat(h)) / h**2
    assert 2.0 * second + pair.phi_hat(0.0) == pytest.approx(pair.phi(0.0), rel=1e-6)


def test_mq_pair_rejects_nonpositive_shape():
    for c in (0.0, -2.0, np.nan):
        with pytest.raises(ValueError):
            mq_pair(c)


@pytest.mark.parametrize("c,dim", [
    pytest.param(c, dim, id=f"{c}" if dim == 2 else f"{c}-3d")
    for dim in (2, 3) for c in (1.0, 3.0, 18.0)])
def test_mq_operator_consistency(c, dim):
    # phi must equal the radial d-dimensional laplacian of phi_hat plus
    # phi_hat itself; the difference stencil runs in extended precision so
    # the step of 1e-5 stays above the rounding floor even at c = 18
    pair = mq_pair(c)
    rng = np.random.default_rng(7)
    for r in rng.uniform(1e-3, 5.0, 30):
        lap = fd_radial_laplacian(pair.phi_hat, np.longdouble(r),
                                  h=np.longdouble(1e-5), dim=dim)
        expected = float(lap) + pair.phi_hat(r)
        assert pair.phi(r, dimension=dim) == pytest.approx(expected, rel=1e-6)


def test_mq_phi_hat_normal_is_radial_derivative():
    pair = mq_pair(2.0)
    h = 1e-6
    for r in (0.3, 1.7, 4.0):
        fd = (pair.phi_hat(r + h) - pair.phi_hat(r - h)) / (2.0 * h)
        assert pair.phi_hat_normal(r, 1.0) == pytest.approx(fd, rel=1e-8)


def test_mq_vectorised_evaluation():
    pair = mq_pair(1.5)
    r = np.array([0.0, 1.0, 2.5])
    np.testing.assert_allclose(pair.phi_hat(r),
                               [pair.phi_hat(v) for v in r])
    np.testing.assert_allclose(pair.phi(r), [pair.phi(v) for v in r])
