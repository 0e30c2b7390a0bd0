import numpy as np
import pytest

from bkm.drm import evaluate_particular
from bkm.errors import IllConditionedError
from bkm.geometry import Ellipse, KnotSet, ellipse_knots, pairwise_distances
from bkm.kernels import bessel_j0, bessel_j1, helmholtz_general_solution, mq_pair
from bkm.solver import (ProblemSpec, RhoBoundaryNonlinear, RhoLinear, RhoZero,
                        assemble_homogeneous_rows, evaluate,
                        evaluate_homogeneous, solve_linear,
                        solve_nonlinear_boundary_only)
from oracles import fd_laplacian, interior_points

ELL1 = Ellipse(np.zeros(2), 2.0, 1.0)
ELL2 = Ellipse(np.array([3.0, 0.0]), 1.5, 0.5)
ELL_WIDE = Ellipse(np.zeros(2), 10.0, 5.0)


def helmholtz_problem(geometry=ELL1):
    """laplacian u + u = x with boundary data sin x + x (also the solution)."""
    return ProblemSpec(forcing=lambda p: p[:, 0],
                       dirichlet=lambda p: np.sin(p[:, 0]) + p[:, 0],
                       rho=RhoZero(), geometry=geometry,
                       exact=lambda p: np.sin(p[:, 0]) + p[:, 0])


def nonlinear_problem():
    """laplacian u + u^2 = y e^x + y^2 e^2x with boundary data y e^x."""
    exact = lambda p: p[:, 1] * np.exp(p[:, 0])
    return ProblemSpec(
        forcing=lambda p: p[:, 1] * np.exp(p[:, 0]) + p[:, 1]**2 * np.exp(2 * p[:, 0]),
        dirichlet=exact,
        rho=RhoBoundaryNonlinear(apply=lambda u, p: u - u * u),
        geometry=ELL2, exact=exact)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def test_dirichlet_rows_have_unit_diagonal():
    ks = ellipse_knots(ELL1, 6)
    rows = assemble_homogeneous_rows(ks, helmholtz_general_solution(2))
    np.testing.assert_allclose(np.diag(rows), 1.0)


def test_neumann_rows_have_zero_diagonal():
    ks = ellipse_knots(ELL1, 6).with_dirichlet_count(0)
    rows = assemble_homogeneous_rows(ks, helmholtz_general_solution(2))
    np.testing.assert_allclose(np.diag(rows), 0.0, atol=1e-15)


def test_two_dirichlet_knots_structure():
    ks = ellipse_knots(ELL1, 2)
    rows = assemble_homogeneous_rows(ks, helmholtz_general_solution(2))
    d = np.linalg.norm(ks.boundary_positions[0] - ks.boundary_positions[1])
    assert rows[0, 1] == pytest.approx(bessel_j0(d))
    np.testing.assert_array_equal(rows, rows.T)


def test_neumann_rows_match_manual_formula():
    ks = ellipse_knots(ELL1, 5).with_dirichlet_count(2)
    rows = assemble_homogeneous_rows(ks, helmholtz_general_solution(2))
    sources = ks.boundary_positions
    for i in range(2, 5):
        x = ks.boundary_positions[i]
        n = ks.boundary_normals[i]
        for k in range(5):
            r = np.linalg.norm(x - sources[k])
            proj = 0.0 if r == 0 else float((x - sources[k]) @ n / r)
            assert rows[i, k] == pytest.approx(-bessel_j1(r) * proj, abs=1e-14)


def test_interior_rows_are_value_rows():
    ks = ellipse_knots(ELL1, 4).with_interior(np.array([[0.2, 0.1]]))
    rows = assemble_homogeneous_rows(ks, helmholtz_general_solution(2))
    assert rows.shape == (5, 4)
    r = np.linalg.norm(np.array([0.2, 0.1]) - ks.boundary_positions, axis=1)
    np.testing.assert_allclose(rows[4], bessel_j0(r))


def test_dirichlet_only_collocation_matrix_symmetric():
    ks = ellipse_knots(ELL1, 9)
    rows = assemble_homogeneous_rows(ks, helmholtz_general_solution(2))
    assert np.max(np.abs(rows - rows.T)) <= 1e-12


# ---------------------------------------------------------------------------
# Linear solves
# ---------------------------------------------------------------------------

def test_helmholtz_benchmark_seven_knots():
    ks = ellipse_knots(ELL1, 7)
    sol = solve_linear(helmholtz_problem(), ks, mq_pair(3.0))
    # reference run reports 2.51 at (1.5, 0); exact is 2.4975
    assert evaluate(sol, [1.5, 0.0]) == pytest.approx(2.51, abs=0.05)
    assert evaluate(sol, [0.3, 0.0]) == pytest.approx(0.60, abs=0.05)


def test_helmholtz_benchmark_five_knots_center():
    ks = ellipse_knots(ELL1, 5)
    sol = solve_linear(helmholtz_problem(), ks, mq_pair(3.0))
    # reference run deviates by about 0.1 at the centre; allow the same band
    assert abs(evaluate(sol, [0.0, 0.0])) <= 0.15


def test_collocation_residual_at_dirichlet_knots():
    problem = helmholtz_problem()
    ks = ellipse_knots(ELL1, 7)
    sol = solve_linear(problem, ks, mq_pair(3.0))
    u = evaluate(sol, ks.boundary_positions)
    data = problem.dirichlet(ks.boundary_positions)
    scale = np.maximum(1.0, np.abs(data))
    assert np.max(np.abs(u - data) / scale) <= 1e-8


def test_manufactured_solution_recovery():
    problem = helmholtz_problem()
    ks = ellipse_knots(ELL1, 7)
    sol = solve_linear(problem, ks, mq_pair(3.0))
    pts = interior_points(ELL1, 40, seed=11)
    err = np.abs(evaluate(sol, pts) - problem.exact(pts))
    assert np.max(err) < 0.05


def test_homogeneous_field_reproduced_exactly():
    # boundary data sampled from a field the basis itself spans
    xstar = np.array([3.0, 2.0])
    ustar = lambda p: bessel_j0(np.linalg.norm(p - xstar, axis=1))
    problem = ProblemSpec(forcing=lambda p: np.zeros(len(p)), dirichlet=ustar,
                          rho=RhoZero(), geometry=ELL1)
    ks = ellipse_knots(ELL1, 16)
    sol = solve_linear(problem, ks, mq_pair(3.0))
    bound = evaluate(sol, ks.boundary_positions)
    np.testing.assert_allclose(bound, ustar(ks.boundary_positions), atol=1e-8)
    pts = interior_points(ELL1, 50, seed=7)
    np.testing.assert_allclose(evaluate(sol, pts), ustar(pts), atol=1e-6)


def test_forcing_free_problem_has_zero_particular_part():
    problem = ProblemSpec(forcing=lambda p: np.zeros(len(p)),
                          dirichlet=lambda p: np.ones(len(p)),
                          rho=RhoZero(), geometry=ELL1)
    ks = ellipse_knots(ELL1, 8)
    sol = solve_linear(problem, ks, mq_pair(3.0))
    np.testing.assert_allclose(sol.drm_fit.alpha, 0.0, atol=1e-12)


def test_mixed_boundary_conditions():
    # Dirichlet on half the knots, Neumann on the rest, data from a field
    # that the general-solution basis can represent
    xstar = np.array([4.0, 1.5])
    def ustar(p):
        return bessel_j0(np.linalg.norm(p - xstar, axis=1))
    ks = ellipse_knots(ELL1, 12).with_dirichlet_count(6)

    def neumann(p):
        idx = [np.flatnonzero(np.all(np.isclose(ks.boundary_positions, q), axis=1))[0]
               for q in p]
        normals = ks.boundary_normals[idx]
        diff = p - xstar
        r = np.linalg.norm(diff, axis=1)
        proj = np.einsum("ij,ij->i", diff, normals) / r
        return -bessel_j1(r) * proj

    problem = ProblemSpec(forcing=lambda p: np.zeros(len(p)), dirichlet=ustar,
                          neumann=neumann, rho=RhoZero(), geometry=ELL1)
    sol = solve_linear(problem, ks, mq_pair(3.0))
    pts = interior_points(ELL1, 30, seed=13)
    np.testing.assert_allclose(evaluate(sol, pts), ustar(pts), atol=1e-4)


def test_interior_knots_enrich_fit_without_changing_bc():
    problem = helmholtz_problem()
    ks = ellipse_knots(ELL1, 7).with_interior(interior_points(ELL1, 5, seed=2,
                                                              shrink=0.8))
    sol = solve_linear(problem, ks, mq_pair(3.0))
    assert sol.interior_u is not None
    assert sol.interior_u.shape == (5,)
    u = evaluate(sol, ks.boundary_positions)
    data = problem.dirichlet(ks.boundary_positions)
    assert np.max(np.abs(u - data)) <= 1e-8 * np.max(np.abs(data))


def test_solver_requires_boundary_data():
    problem = ProblemSpec(forcing=lambda p: p[:, 0], rho=RhoZero())
    ks = ellipse_knots(ELL1, 5)
    with pytest.raises(ValueError):
        solve_linear(problem, ks, mq_pair(3.0))


def test_solver_rejects_nonlinear_rho():
    ks = ellipse_knots(ELL2, 7)
    with pytest.raises(ValueError):
        solve_linear(nonlinear_problem(), ks, mq_pair(18.0))


def test_solver_propagates_ill_conditioning():
    ks = ellipse_knots(ELL1, 50)
    with pytest.raises(IllConditionedError):
        solve_linear(helmholtz_problem(), ks, mq_pair(3.0))


# ---------------------------------------------------------------------------
# Coupled linear remaining operator
# ---------------------------------------------------------------------------

def _phi_hat_images(knots, kernel):
    # remaining operator = identity on u: images are the basis itself
    pts = knots.all_positions
    return kernel.phi_hat(pairwise_distances(pts, pts))


def test_coupled_linear_identity_operator_recovers_poisson():
    # laplacian u + u = 1 + u, i.e. laplacian u = 1, u* = (x^2 + y^2) / 4
    exact = lambda p: (p[:, 0]**2 + p[:, 1]**2) / 4.0
    problem = ProblemSpec(forcing=lambda p: np.ones(len(p)), dirichlet=exact,
                          rho=RhoLinear(_phi_hat_images), geometry=ELL1)
    ks = ellipse_knots(ELL1, 12).with_interior(
        interior_points(ELL1, 8, seed=5, shrink=0.85))
    sol = solve_linear(problem, ks, mq_pair(1.0))
    assert len(sol.diagnostics) == 3
    pts = interior_points(ELL1, 30, seed=1, shrink=0.9)
    err = np.max(np.abs(evaluate(sol, pts) - exact(pts)))
    assert err < 0.05
    # the combined equations hold at the knots
    np.testing.assert_allclose(evaluate(sol, ks.interior), sol.interior_u,
                               atol=1e-9)
    np.testing.assert_allclose(evaluate(sol, ks.boundary_positions),
                               exact(ks.boundary_positions), atol=1e-9)


def test_coupled_zero_images_match_plain_path():
    problem_zero = helmholtz_problem()
    problem_coupled = ProblemSpec(forcing=problem_zero.forcing,
                                  dirichlet=problem_zero.dirichlet,
                                  rho=RhoLinear(lambda k, kr: np.zeros((k.size, k.size))),
                                  geometry=ELL1)
    ks = ellipse_knots(ELL1, 10).with_interior(
        interior_points(ELL1, 4, seed=9, shrink=0.8))
    s0 = solve_linear(problem_zero, ks, mq_pair(3.0))
    s1 = solve_linear(problem_coupled, ks, mq_pair(3.0))
    np.testing.assert_allclose(s1.lam, s0.lam, atol=1e-9)
    np.testing.assert_allclose(s1.interior_u, s0.interior_u, atol=1e-9)


def test_coupled_boundary_only_zero_images_match_plain_path():
    # with no interior knots the coupled route is the only RhoLinear route;
    # zero images leave the plain two-step solve, up to LU round-off
    problem_zero = helmholtz_problem()
    problem_coupled = ProblemSpec(forcing=problem_zero.forcing,
                                  dirichlet=problem_zero.dirichlet,
                                  rho=RhoLinear(lambda k, kr: np.zeros((k.size, k.size))),
                                  geometry=ELL1)
    n = 10
    ks = ellipse_knots(ELL1, n)
    s0 = solve_linear(problem_zero, ks, mq_pair(3.0))
    s1 = solve_linear(problem_coupled, ks, mq_pair(3.0))
    assert [rec.label for rec in s1.diagnostics] == \
        ["particular-fit", "u-interpolation", "collocation"]
    assert s1.interior_u is None
    cond_fit, cond_coll = (rec.condition for rec in s0.diagnostics)
    gamma = n * np.finfo(float).eps
    alpha = s0.drm_fit.alpha
    assert np.max(np.abs(s1.drm_fit.alpha - alpha)) <= \
        2 * cond_fit * gamma * np.max(np.abs(alpha))
    pts = np.vstack([ks.boundary_positions, interior_points(ELL1, 20, seed=4)])
    u = evaluate(s0, pts)
    assert np.max(np.abs(evaluate(s1, pts) - u)) <= \
        2 * (cond_fit + cond_coll) * gamma * np.max(np.abs(u))


def test_coupled_boundary_only_meets_dirichlet_data():
    exact = lambda p: (p[:, 0]**2 + p[:, 1]**2) / 4.0
    problem = ProblemSpec(forcing=lambda p: np.ones(len(p)), dirichlet=exact,
                          rho=RhoLinear(_phi_hat_images), geometry=ELL1)
    ks = ellipse_knots(ELL1, 12)
    sol = solve_linear(problem, ks, mq_pair(1.0))
    assert sol.interior_u is None
    np.testing.assert_allclose(evaluate(sol, ks.boundary_positions),
                               exact(ks.boundary_positions), atol=1e-9)


@pytest.mark.parametrize("n_interior", [0, 3])
def test_coupled_rejects_basis_images_of_wrong_shape(n_interior):
    problem = ProblemSpec(forcing=lambda p: np.ones(len(p)),
                          dirichlet=lambda p: np.zeros(len(p)),
                          rho=RhoLinear(lambda k, kr: np.zeros((k.size, k.size - 1))),
                          geometry=ELL1)
    ks = ellipse_knots(ELL1, 8).with_interior(
        interior_points(ELL1, n_interior, seed=2, shrink=0.8))
    with pytest.raises(ValueError, match="must match"):
        solve_linear(problem, ks, mq_pair(1.0))


def test_coupled_path_requires_dirichlet_everywhere():
    problem = ProblemSpec(forcing=lambda p: np.ones(len(p)),
                          dirichlet=lambda p: np.zeros(len(p)),
                          neumann=lambda p: np.zeros(len(p)),
                          rho=RhoLinear(_phi_hat_images), geometry=ELL1)
    ks = ellipse_knots(ELL1, 8).with_dirichlet_count(4)
    with pytest.raises(ValueError):
        solve_linear(problem, ks, mq_pair(1.0))


# ---------------------------------------------------------------------------
# Nonlinear boundary-only path
# ---------------------------------------------------------------------------

def test_nonlinear_zero_data_gives_zero_solution():
    problem = ProblemSpec(forcing=lambda p: np.zeros(len(p)),
                          dirichlet=lambda p: np.zeros(len(p)),
                          rho=RhoBoundaryNonlinear(apply=lambda u, p: u - u * u),
                          geometry=ELL2)
    ks = ellipse_knots(ELL2, 9)
    sol = solve_nonlinear_boundary_only(problem, ks, mq_pair(18.0))
    pts = interior_points(ELL2, 20, seed=3)
    np.testing.assert_allclose(evaluate(sol, pts), 0.0, atol=1e-9)


def test_nonlinear_benchmark_values():
    ks = ellipse_knots(ELL2, 9)
    sol = solve_nonlinear_boundary_only(nonlinear_problem(), ks, mq_pair(18.0))
    # reference run reports 10.38 at (3.0, 0.5); exact is 10.043
    assert evaluate(sol, [3.0, 0.5]) == pytest.approx(10.38, abs=0.5)
    ks7 = ellipse_knots(ELL2, 7)
    sol7 = solve_nonlinear_boundary_only(nonlinear_problem(), ks7, mq_pair(18.0))
    # reference run reports -22.78 at (4.2, -0.35); exact is -23.34
    assert evaluate(sol7, [4.2, -0.35]) == pytest.approx(-22.78, abs=1.5)


def test_nonlinear_path_is_one_factorisation_pair():
    ks = ellipse_knots(ELL2, 9)
    sol = solve_nonlinear_boundary_only(nonlinear_problem(), ks, mq_pair(18.0))
    assert len(sol.diagnostics) == 2
    assert sol.diagnostics[0].label == "particular-fit"
    assert sol.diagnostics[1].label == "collocation"


def test_nonlinear_rejects_interior_knots_and_neumann():
    problem = nonlinear_problem()
    with_interior = ellipse_knots(ELL2, 9).with_interior(np.array([[3.0, 0.1]]))
    with pytest.raises(ValueError):
        solve_nonlinear_boundary_only(problem, with_interior, mq_pair(18.0))
    with_neumann = ellipse_knots(ELL2, 9).with_dirichlet_count(5)
    with pytest.raises(ValueError):
        solve_nonlinear_boundary_only(problem, with_neumann, mq_pair(18.0))
    linear = helmholtz_problem()
    with pytest.raises(ValueError):
        solve_nonlinear_boundary_only(linear, ellipse_knots(ELL1, 7), mq_pair(3.0))


# ---------------------------------------------------------------------------
# Truncated (FRM) solves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("solve,problem,n,c", [
    (solve_linear, helmholtz_problem(), 7, 3.0),
    (solve_nonlinear_boundary_only, nonlinear_problem(), 9, 18.0)],
    ids=["table1-7knots", "table2-9knots"])
def test_truncation_to_every_knot_equals_dense(solve, problem, n, c):
    ks = ellipse_knots(problem.geometry, n)
    dense = solve(problem, ks, mq_pair(c))
    full = solve(problem, ks, mq_pair(c), frm_k=n)
    # k = N keeps every entry, so the two differ only by their LU round-off:
    # each backward-stable solve is within cond * n * eps of the exact one
    cond_fit, cond_coll = (rec.condition for rec in dense.diagnostics)
    gamma = n * np.finfo(float).eps
    alpha = dense.drm_fit.alpha
    assert np.max(np.abs(full.drm_fit.alpha - alpha)) <= \
        2 * cond_fit * gamma * np.max(np.abs(alpha))
    pts = np.vstack([ks.boundary_positions,
                     interior_points(problem.geometry, 20, seed=4)])
    u = evaluate(dense, pts)
    assert np.max(np.abs(evaluate(full, pts) - u)) <= \
        2 * (cond_fit + cond_coll) * gamma * np.max(np.abs(u))


def _never(*args):
    raise AssertionError("called before the frm_k check")


def test_truncation_rejects_linear_rest_before_assembly():
    problem = ProblemSpec(forcing=_never, dirichlet=_never,
                          rho=RhoLinear(_never), geometry=ELL1)
    with pytest.raises(ValueError, match="frm_k"):
        solve_linear(problem, ellipse_knots(ELL1, 8), mq_pair(3.0), frm_k=4)


def test_truncation_rejects_interior_knots_before_assembly():
    problem = ProblemSpec(forcing=_never, dirichlet=_never, geometry=ELL1)
    ks = ellipse_knots(ELL1, 7).with_interior([[0.1, 0.2]])
    with pytest.raises(ValueError, match="frm_k"):
        solve_linear(problem, ks, mq_pair(3.0), frm_k=4)


@pytest.mark.parametrize("solve,problem,n,c", [
    (solve_linear, helmholtz_problem(), 12, 3.0),
    (solve_nonlinear_boundary_only, nonlinear_problem(), 12, 18.0)],
    ids=["linear", "nonlinear"])
def test_truncated_solution_records_no_diagnostics(solve, problem, n, c):
    sol = solve(problem, ellipse_knots(problem.geometry, n), mq_pair(c), frm_k=5)
    assert sol.diagnostics == ()
    assert sol.drm_fit.condition is None
    assert np.all(np.isfinite(sol.lam))


# ---------------------------------------------------------------------------
# Three dimensions
# ---------------------------------------------------------------------------

def fibonacci_sphere(n, radius=1.0):
    """n near-uniform points on a sphere centred at the origin."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    t = np.pi * (1.0 + 5 ** 0.5) * i
    rho = np.sqrt(1.0 - z * z)
    return radius * np.column_stack([rho * np.cos(t), rho * np.sin(t), z])


def test_three_dimensional_solve_on_unit_sphere():
    # laplacian u + u = 2 + x + y^2 with u* = x + y^2; the DRM fit needs the
    # 3-d image of phi_hat (max error 1.0e-3; 9.6e-2 with the 2-d image)
    exact = lambda p: p[:, 0] + p[:, 1] ** 2
    problem = ProblemSpec(forcing=lambda p: 2.0 + exact(p), dirichlet=exact)
    boundary = fibonacci_sphere(40)
    ks = KnotSet(boundary, boundary, interior=fibonacci_sphere(20, 0.5))
    sol = solve_linear(problem, ks, mq_pair(1.0))
    assert sol.general_solution.dimension == 3
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.55, 0.55, (200, 3))
    err = np.max(np.abs(evaluate(sol, pts) - exact(pts)))
    assert err <= 1e-2


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------

def test_evaluate_matches_sum_of_components():
    ks = ellipse_knots(ELL1, 7)
    sol = solve_linear(helmholtz_problem(), ks, mq_pair(3.0))
    pts = interior_points(ELL1, 10, seed=21)
    total = evaluate(sol, pts)
    v = evaluate_homogeneous(sol, pts)
    up = evaluate_particular(sol.drm_fit, pts)
    np.testing.assert_array_equal(total, v + up)


# the 10x5 ellipse puts evaluation radii up to 18.5; the 2x1 one stays below 4
@pytest.mark.parametrize("ellipse,n,c", [(ELL1, 7, 3.0), (ELL_WIDE, 32, 4.0)],
                         ids=["ellipse2x1-7knots", "ellipse10x5-32knots"])
def test_homogeneous_component_satisfies_helmholtz(ellipse, n, c):
    ks = ellipse_knots(ellipse, n)
    sol = solve_linear(helmholtz_problem(ellipse), ks, mq_pair(c))
    v = lambda p: evaluate_homogeneous(sol, p)
    scale = max(1.0, np.sum(np.abs(sol.lam)))
    for p in interior_points(ellipse, 25, seed=17):
        resid = fd_laplacian(v, p, h=1e-4) + v(p)
        assert abs(resid) <= 1e-6 * scale
