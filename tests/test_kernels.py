import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bkm import kernels
from bkm.kernels import GeneralSolution, bessel_j0, bessel_j1, mq_pair
import oracles
from oracles import (allocation_peak, assert_bit_identical, bisect_zero,
                     fd_radial_laplacian, series_j0, series_j1)


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
    gs = GeneralSolution(2)
    assert gs.value(0.0) == 1.0
    assert gs.value(1.0) == pytest.approx(0.76519768655797, abs=1e-12)


def test_general_solution_3d_values():
    gs = GeneralSolution(3)
    assert gs.value(0.0) == 1.0
    assert gs.value(np.pi) == pytest.approx(0.0, abs=1e-15)
    assert gs.value(1.0) == pytest.approx(0.8414709848, abs=1e-10)


def test_general_solution_3d_derivative_zero_at_origin():
    gs = GeneralSolution(3)
    assert gs.normal_derivative(0.0, 1.0) == 0.0


def test_general_solution_rejects_other_dimensions():
    for dim in (1, 4, 2.5, 5):
        with pytest.raises(ValueError, match=f"dimension must be 2 or 3, got {dim}"):
            GeneralSolution(dim)


def test_general_solution_stores_an_int_dimension():
    for dim in (3.0, np.int64(3)):
        assert type(GeneralSolution(dim).dimension) is int
    assert GeneralSolution(3.0) == GeneralSolution(3)


def test_general_solution_2d_normal_derivative():
    gs = GeneralSolution(2)
    for r in (0.5, 2.0, 7.0):
        for p in (-1.0, 0.25, 1.0):
            assert gs.normal_derivative(r, p) == pytest.approx(-bessel_j1(r) * p,
                                                               abs=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
def test_general_solution_satisfies_radial_helmholtz(dim):
    gs = GeneralSolution(dim)
    rng = np.random.default_rng(2)
    for r in rng.uniform(0.2, 10.0, 25):
        resid = fd_radial_laplacian(gs.value, r, h=1e-4, dim=dim) + gs.value(r)
        assert abs(resid) < 1e-6


def test_sinc_taylor_branch_matches_direct_formula():
    gs = GeneralSolution(3)
    for r in (0.2e-4, 0.9e-4, 1.1e-4, 2e-4):
        assert gs.value(r) == pytest.approx(np.sin(r) / r, abs=1e-14)


def test_3d_general_solution_matches_mpmath_near_the_origin():
    # (r cos r - sin r) / r^2 cancels as r -> 0; the derivative must not lose
    # the digits that cancel
    gs = GeneralSolution(3)
    r = np.geomspace(1e-6, 2.0, 201)
    with mp.workdps(40):
        value = np.array([float(mp.sin(x) / x) for x in r])
        deriv = np.array([float((x * mp.cos(x) - mp.sin(x)) / mp.mpf(x) ** 2)
                          for x in r])
    assert np.max(np.abs(gs.value(r) - value) / value) <= 1e-15
    got = gs.normal_derivative(r, 1.0)
    assert np.max(np.abs(got - deriv) / np.abs(deriv)) <= 1e-13


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


@given(st.floats(0.0, 200.0), st.floats(0.05, 50.0))
@example(19.901930104706484, 3.0)    # s**3: 3.41 ulp; q sqrt(q): 1.41
@example(1.0346964051195595, 3.0)    # s**3: 3.35 ulp; q sqrt(q): 1.35
@example(199.99999999999997, 27.50494385695159)    # q sqrt(q): 3.16 ulp
def test_mq_phi_hat_within_its_rounding_bound_of_the_exact_cube(r, c):
    # A priori bound, u = 2**-53: r r and c c round once each and their sum
    # once more, so q = r^2 + c^2 carries a factor within (1 + u)^2; the
    # power 3/2 makes that (1 + u)^3, and sqrt and * add a factor (1 + u)
    # each. The relative error is at most (1 + u)^5 - 1, which is 5u to
    # first order: 2.5 to 5 ulp, depending on where the cube lies in its
    # binade. A 2e4-radius scan at c = 3 peaks at 2.55 ulp (np.power on s:
    # 3.61, s*s*s: 4.18), so a 3-ulp bound is not a theorem.
    with mp.workdps(40):
        exact = (mp.mpf(r) ** 2 + mp.mpf(c) ** 2) ** mp.mpf(1.5)
        err = abs(mp.mpf(float(mq_pair(c).phi_hat(r))) - exact)
        bound = ((1 + mp.mpf(2) ** -53) ** 5 - 1) * exact
    assert err <= bound


def _multi_slice_block():
    """3 x 4111 radii: 12333 entries, more than one slice of the cube."""
    r = np.random.default_rng(11).uniform(0.0, 20.0, (3, 4111))
    assert r.size > kernels._CUBE_SLICE
    return r


def test_mq_scalar_0d_and_block_entry_give_the_same_bits():
    r = _multi_slice_block()
    pair = mq_pair(2.5)
    blocks = {"phi_hat": pair.phi_hat(r), "phi": pair.phi(r)}
    for idx in ((0, 5), (2, 4110)):      # in the first and in the last slice
        for name, block in blocks.items():
            fn = getattr(pair, name)
            for x in (float(r[idx]), np.asarray(r[idx])):
                assert_bit_identical(fn(x), block[idx])


def test_mq_phi_hat_in_place_returns_the_radius_buffer():
    r = _multi_slice_block()
    pair = mq_pair(4.0)
    want = pair.phi_hat(r.copy())
    got = pair.phi_hat(r, out=r)
    assert got is r
    assert_bit_identical(got, want)


def test_mq_phi_hat_leaves_its_radii_untouched():
    r = _multi_slice_block()
    before = r.tobytes()
    pair = mq_pair(4.0)
    pair.phi_hat(r)
    pair.phi(r)
    assert r.tobytes() == before


def test_mq_phi_hat_out_must_match_the_radii():
    r = _multi_slice_block()
    pair = mq_pair(1.0)
    for out in (np.empty((4111, 3)), np.empty(r.shape, np.float32),
                np.empty(r.shape[::-1]).T, r.tolist()):
        with pytest.raises(ValueError, match="out must be"):
            pair.phi_hat(r, out=out)


def test_mq_phi_hat_holds_one_slice_besides_its_block():
    # the output block, and the square root of one slice of 8192 entries
    r = _multi_slice_block()
    pair = mq_pair(4.0)
    slack = 4 * 1024
    slice_bytes = kernels._CUBE_SLICE * r.itemsize
    assert allocation_peak(lambda: pair.phi_hat(r)) <= r.nbytes + slice_bytes + slack
    block = r.copy()
    assert allocation_peak(lambda: pair.phi_hat(r, out=block)) <= slice_bytes + slack


# ---------------------------------------------------------------------------
# In-place kernel blocks against the plain expressions
# ---------------------------------------------------------------------------

LD = np.longdouble


def radius_layouts(dim, dtype):
    """Radii between two point sets with one coincident pair, as a 2-d block,
    strided and transposed views of it, a row, and a 0-d array; and a block
    of more than one slice of the cube."""
    rng = np.random.default_rng(dim)
    a, b = rng.uniform(-6.0, 6.0, (12, dim)), rng.uniform(-6.0, 6.0, (9, dim))
    b[4] = a[7]
    r = np.linalg.norm(a[:, None] - b[None], axis=2).astype(dtype)
    return {"block": r, "strided": r[:, :5], "transposed": r.T, "row": r[7],
            "0-d": np.asarray(r[7, 4]), "0-d-nonzero": np.asarray(r[2, 1]),
            "multi-slice": _multi_slice_block().astype(dtype)}


LAYOUT_CASES = [pytest.param(dim, dtype, name, id=f"{dim}d-{dtype.__name__}-{name}")
                for dim in (2, 3) for dtype in (np.float64, LD)
                for name in radius_layouts(2, float)]

#: Scalars of each kind a caller passes; the result type must not change.
SCALARS = [0.0, 2.5, 3, np.float64(2.5), LD(2.5)]


def projections_like(r):
    p = np.random.default_rng(r.size).uniform(-1.0, 1.0, r.shape).astype(r.dtype)
    return p if p.ndim else p[()]


@pytest.mark.parametrize("dim,dtype,layout", LAYOUT_CASES)
def test_mq_blocks_bit_identical_to_plain_expressions(dim, dtype, layout):
    r = radius_layouts(dim, dtype)[layout]
    p = projections_like(r)
    for c in (0.7, 4.0):
        pair = mq_pair(c)
        assert_bit_identical(pair.phi_hat(r), oracles.mq_phi_hat(c, r))
        assert_bit_identical(pair.phi(r, dimension=dim),
                             oracles.mq_phi(c, r, dimension=dim))
        for proj in (p, 0.5):
            assert_bit_identical(pair.phi_hat_normal(r, proj),
                                 oracles.mq_phi_hat_normal(c, r, proj))


@pytest.mark.parametrize("dim,dtype,layout", LAYOUT_CASES)
def test_general_solution_normal_derivative_bit_identical(dim, dtype, layout):
    r = radius_layouts(dim, dtype)[layout]
    gs = GeneralSolution(dim)
    for proj in (projections_like(r), -0.25):
        assert_bit_identical(gs.normal_derivative(r, proj),
                             oracles.general_solution_normal_derivative(dim, r, proj))


@pytest.mark.parametrize("r", SCALARS, ids=repr)
def test_kernel_scalars_keep_their_result_type(r):
    pair = mq_pair(1.5)
    assert_bit_identical(pair.phi_hat(r), oracles.mq_phi_hat(1.5, r))
    for dim in (2, 3):
        assert_bit_identical(pair.phi(r, dimension=dim),
                             oracles.mq_phi(1.5, r, dimension=dim))
        assert_bit_identical(pair.phi_hat_normal(r, 0.3),
                             oracles.mq_phi_hat_normal(1.5, r, 0.3))
        assert_bit_identical(GeneralSolution(dim).normal_derivative(r, 0.3),
                             oracles.general_solution_normal_derivative(dim, r, 0.3))


def test_mq_mixed_precision_projection_keeps_the_wider_type():
    r = radius_layouts(2, np.float64)["block"]
    p = projections_like(r.astype(LD))
    assert_bit_identical(mq_pair(2.0).phi_hat_normal(r, p),
                         oracles.mq_phi_hat_normal(2.0, r, p))
