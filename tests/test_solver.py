import gc
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bkm import _linalg, bench, geometry, kernels, solver
from bkm._linalg import COND_LIMIT, RESIDUAL_TOL, FactoredMatrix
from bkm.drm import (DrmFit, build_interpolation_matrix, evaluate_particular,
                     evaluate_particular_normal)
from bkm.errors import DegenerateGeometryError, IllConditionedError
from bkm.frm import solve_sparse, truncate_system
from bkm.geometry import Ellipse, KnotSet, ellipse_knots, pairwise_distances
from bkm.gsr import ConstrainedFit, GsrKernel, evaluate_constrained
from bkm.kernels import GeneralSolution, bessel_j0, bessel_j1, mq_pair
from bkm.solver import (BkmSolution, ProblemSpec, RhoBoundaryNonlinear, RhoLinear,
                        RhoZero, assemble_homogeneous_rows, evaluate,
                        evaluate_homogeneous, solve_linear,
                        solve_nonlinear_boundary_only)
from oracles import (KNOT_PATHS, allocation_peak, assert_bit_identical,
                     every_knot_set_on, fd_laplacian, fibonacci_sphere)

ELL1 = Ellipse(np.zeros(2), 2.0, 1.0)
ELL2 = Ellipse(np.array([3.0, 0.0]), 1.5, 0.5)
ELL_WIDE = Ellipse(np.zeros(2), 10.0, 5.0)


def helmholtz_problem(geometry=ELL1):
    """laplacian u + u = x with boundary data sin x + x (also the solution)."""
    return ProblemSpec(forcing=lambda p: p[:, 0],
                       dirichlet=lambda p: np.sin(p[:, 0]) + p[:, 0],
                       rho=RhoZero(), geometry=geometry,
                       exact=lambda p: np.sin(p[:, 0]) + p[:, 0])


def ellipse_neumann(ell):
    """Neumann data of u* = sin x + x on ``ell``, from its outward normal."""
    def neumann(p):
        x, y = (p - ell.center).T
        _, n = ell.boundary(np.arctan2(y / ell.semi_minor, x / ell.semi_major))
        return (np.cos(p[:, 0]) + 1.0) * n[:, 0]
    return neumann


def mixed_problem(ell=ELL1):
    """helmholtz_problem with Neumann data for knots that carry it."""
    problem = helmholtz_problem(ell)
    return ProblemSpec(forcing=problem.forcing, dirichlet=problem.dirichlet,
                       neumann=ellipse_neumann(ell), geometry=ell)


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
    rows = assemble_homogeneous_rows(ks, GeneralSolution(2))
    np.testing.assert_allclose(np.diag(rows), 1.0)


def test_neumann_rows_have_zero_diagonal():
    ks = ellipse_knots(ELL1, 6).with_dirichlet_count(0)
    rows = assemble_homogeneous_rows(ks, GeneralSolution(2))
    np.testing.assert_allclose(np.diag(rows), 0.0, atol=1e-15)


def test_two_dirichlet_knots_structure():
    ks = ellipse_knots(ELL1, 2)
    rows = assemble_homogeneous_rows(ks, GeneralSolution(2))
    d = np.linalg.norm(ks.boundary_positions[0] - ks.boundary_positions[1])
    assert rows[0, 1] == pytest.approx(bessel_j0(d))
    np.testing.assert_array_equal(rows, rows.T)


def test_neumann_rows_match_manual_formula():
    ks = ellipse_knots(ELL1, 5).with_dirichlet_count(2)
    rows = assemble_homogeneous_rows(ks, GeneralSolution(2))
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
    rows = assemble_homogeneous_rows(ks, GeneralSolution(2))
    assert rows.shape == (5, 4)
    r = np.linalg.norm(np.array([0.2, 0.1]) - ks.boundary_positions, axis=1)
    np.testing.assert_allclose(rows[4], bessel_j0(r))


def test_dirichlet_only_collocation_matrix_symmetric():
    ks = ellipse_knots(ELL1, 9)
    rows = assemble_homogeneous_rows(ks, GeneralSolution(2))
    assert np.max(np.abs(rows - rows.T)) <= 1e-12


@pytest.mark.parametrize("make_knots,c", [
    (lambda: ellipse_knots(ELL1, 7), 3.0),
    (lambda: ellipse_knots(ELL2, 9), 18.0),
    (lambda: KnotSet(fibonacci_sphere(40), fibonacci_sphere(40),
                     interior=fibonacci_sphere(20, 0.5)), 1.0)],
    ids=["table1", "table2", "sphere"])
def test_dirichlet_only_boundary_operator_is_the_plain_kernel(make_knots, c):
    # with no Neumann row the boundary operator is the kernel value, bit for bit
    ks, kernel = make_knots(), mq_pair(c)
    gs = GeneralSolution(ks.dimension)
    nb = ks.n_boundary
    rows = assemble_homogeneous_rows(ks, gs, boundary_only=True)
    dists = pairwise_distances(ks.all_positions, ks.all_positions)
    assert rows.tobytes() == gs.value(dists[:nb, :nb]).tobytes()
    rng = np.random.default_rng(nb)
    fit = DrmFit(alpha=rng.standard_normal(ks.size), kernel=kernel, knots=ks)
    data = rng.standard_normal(nb)
    expected = data - kernel.phi_hat(dists[:nb]) @ fit.alpha
    assert solver._boundary_rhs(data, fit).tobytes() == expected.tobytes()


def test_boundary_operator_block_and_gathered_pairs_agree():
    ks = ellipse_knots(ELL_WIDE, 12).with_dirichlet_count(5).with_interior(
        ELL_WIDE.interior_samples(4, seed=2, shrink=0.8))
    gs = GeneralSolution(2)
    radial = (gs.value, gs.normal_derivative)
    nb = ks.n_boundary
    block = solver._boundary_operator(radial, ks, np.s_[:ks.size], np.s_[:nb])
    assert block.shape == (ks.size, nb)
    rows, cols = np.divmod(np.arange(ks.size * nb), nb)
    gathered = solver._boundary_operator(radial, ks, rows, cols)
    assert gathered.tobytes() == block.ravel().tobytes()
    # a block of a row range is those rows of the whole block, with the
    # range starting and ending before, inside and after the Neumann run
    for a, b in ((0, 3), (0, 5), (0, 9), (0, nb), (2, 7), (6, 10), (9, 16)):
        part = solver._boundary_operator(radial, ks, np.s_[a:b], np.s_[:nb])
        assert part.tobytes() == block[a:b].tobytes()


def _mixed_ellipse_knots(nb):
    # Dirichlet, a Neumann run from knot 5 to the last boundary knot, then
    # interior knots, which are columns only
    return ellipse_knots(ELL_WIDE, nb).with_dirichlet_count(5).with_interior(
        ELL_WIDE.interior_samples(7, seed=nb, shrink=0.8))


def _mixed_sphere_knots(nb):
    pos = fibonacci_sphere(nb)
    return KnotSet(pos, pos, dirichlet_count=9, interior=fibonacci_sphere(6, 0.5))


@pytest.mark.parametrize("make_knots", [_mixed_ellipse_knots, _mixed_sphere_knots],
                         ids=["ellipse", "sphere"])
@pytest.mark.parametrize("nb", [29, 30, 31, 32, 45])
@pytest.mark.parametrize("step", [4, 8, 12])
def test_boundary_rhs_in_slices_is_the_one_block_product(make_knots, nb, step,
                                                         monkeypatch):
    # slices of step rows, with edges inside the Neumann run and a last
    # slice of 1 row (joined to the slice before), 2, 3, 4 or more, must
    # give the bits of one product over the whole u_p block, whether they
    # read the knots' distance matrix or compute their own distances
    ks, kernel = make_knots(nb), mq_pair(2.5)
    monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", (step + 1) * ks.size)
    past_the_cut = make_knots(nb)     # built under the smaller budget: no matrix
    rng = np.random.default_rng(nb)
    alpha = rng.standard_normal(ks.size)
    data = rng.standard_normal(nb)
    radial = (kernel.phi_hat, kernel.phi_hat_normal)
    block = solver._boundary_operator(radial, ks, np.s_[:nb], np.s_[:])
    expected = data - block @ alpha
    for knots in (ks, past_the_cut):
        fit = DrmFit(alpha=alpha, kernel=kernel, knots=knots)
        assert solver._boundary_rhs(data, fit).tobytes() == expected.tobytes()

    # field evaluation and the constrained fit take the same slices at m
    # points: none, or two whole slices and a last of 1 (joined), 2, 3 or 4.
    # Up to rows + 1 points are one block, whose products are ndarray.dot
    # where the whole-block oracles use @: 1 point, rows, rows + 1, and the
    # most points whose block fits in _BLOCK_ENTRIES entries, which are
    # sliced. The J0 block of evaluate is a column slice (the knots carry
    # interior columns), so it is not contiguous.
    gs = GeneralSolution(ks.dimension)
    lam, beta = rng.standard_normal(nb), rng.standard_normal(ks.size + 1)
    sol = BkmSolution(lam=lam, drm_fit=DrmFit(alpha=alpha, kernel=kernel, knots=ks),
                      general_solution=gs, knots=ks)
    gsr_kernel, psi = GsrKernel("simple", np.cos), lambda p: p[..., 0]
    gsr_fit = ConstrainedFit(beta=beta, psi=psi, nodes=ks.all_positions,
                             kernel=gsr_kernel)
    nodes, boundary = ks.all_positions, ks.boundary_positions
    products = [   # (sliced product, its columns, one whole-block product)
        (lambda p: evaluate(sol, p), nodes,
         lambda p: gs.value(pairwise_distances(p, boundary)) @ lam
         + kernel.phi_hat(pairwise_distances(p, nodes)) @ alpha),
        (lambda p: evaluate_homogeneous(sol, p), boundary,
         lambda p: gs.value(pairwise_distances(p, boundary)) @ lam),
        (lambda p: evaluate_particular(sol.drm_fit, p), nodes,
         lambda p: kernel.phi_hat(pairwise_distances(p, nodes)) @ alpha),
        (lambda p: evaluate_constrained(gsr_fit, p), nodes,
         lambda p: gsr_kernel(pairwise_distances(p, nodes), nodes) @ beta[:-1]
         + beta[-1] * psi(p))]
    for sliced, columns, whole in products:
        rows = max(4, (geometry._BLOCK_ENTRIES // len(columns) - 1) // 4 * 4)
        fits = geometry._BLOCK_ENTRIES // len(columns)
        pts = 0.5 * rng.standard_normal((max(2 * rows + 4, fits), ks.dimension))
        for m in (0, 1, rows, rows + 1, fits,
                  2 * rows + 1, 2 * rows + 2, 2 * rows + 3, 2 * rows + 4):
            assert_bit_identical(sliced(pts[:m]), whole(pts[:m]))
        assert_bit_identical(sliced(pts[0]), float(whole(pts[:1])[0]))


def test_boundary_rhs_holds_no_knot_by_knot_block():
    # the whole 1000 x 1000 u_p block would take 8 MB; a Dirichlet set past
    # the cut computes each slice's distances afresh and phi_hat overwrites
    # them, so one slice, one slice of the cube's square root, the output
    # and small buffers are all that live at once
    ks = ellipse_knots(ELL_WIDE, 1000)
    rng = np.random.default_rng(5)
    fit = DrmFit(alpha=rng.standard_normal(ks.size), kernel=mq_pair(3.0), knots=ks)
    data = rng.standard_normal(ks.n_boundary)
    slice_bytes = geometry._slice_rows(ks.n_boundary, ks.size) * ks.size * 8
    budget = slice_bytes + kernels._CUBE_SLICE * 8 + data.nbytes + 16 * 1024
    assert allocation_peak(lambda: solver._boundary_rhs(data, fit)) <= budget


@pytest.mark.parametrize("make_knots, frm_k", [
    (lambda: _mixed_ellipse_knots(40), None),
    (lambda: _mixed_sphere_knots(40), None),
    (lambda: ellipse_knots(ELL_WIDE, 40).with_dirichlet_count(25), 8),
    (lambda: KnotSet(fibonacci_sphere(60), fibonacci_sphere(60), dirichlet_count=40), 12)],
    ids=["ellipse-dense", "sphere-dense", "ellipse-truncated", "sphere-truncated"])
def test_solves_are_bit_identical_on_both_sides_of_the_distance_matrix_cut(
        make_knots, frm_k):
    # mixed Dirichlet/Neumann rows, with interior knots on the dense solves
    problem = ProblemSpec(forcing=lambda p: p[:, 0],
                         dirichlet=lambda p: np.sin(p[:, 0]) + p[:, 0],
                         neumann=lambda p: np.cos(p[:, 1]))
    results = {}
    for path in KNOT_PATHS:
        with every_knot_set_on(path):
            sol = solve_linear(problem, make_knots(), mq_pair(2.0), frm_k=frm_k)
        pts = 0.3 * sol.knots.boundary_positions[::3]
        interior = () if sol.interior_u is None else sol.interior_u.tobytes()
        results[path] = (sol.lam.tobytes(), sol.drm_fit.alpha.tobytes(), interior,
                         sol.diagnostics, evaluate(sol, pts).tobytes())
    assert results["matrix"] == results["tree"]


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
    pts = ELL1.interior_samples(40, seed=11)
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
    pts = ELL1.interior_samples(50, seed=7)
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
    pts = ELL1.interior_samples(30, seed=13)
    np.testing.assert_allclose(evaluate(sol, pts), ustar(pts), atol=1e-4)


def test_neumann_rows_meet_their_data_with_forcing_and_interior_knots():
    # laplacian u + u = x, u* = sin x + x: a non-zero u_p, so the Neumann
    # rows are corrected by its normal derivative; interior knots enrich it
    ks = ellipse_knots(ELL1, 12).with_dirichlet_count(6).with_interior(
        ELL1.interior_samples(3, seed=2, shrink=0.8))
    nd, nb = ks.dirichlet_count, ks.n_boundary
    neumann = ellipse_neumann(ELL1)
    sol = solve_linear(mixed_problem(), ks, mq_pair(3.0))
    fit = sol.drm_fit
    v_n = assemble_homogeneous_rows(ks, GeneralSolution(2))[nd:nb] @ sol.lam
    up_n = np.array([evaluate_particular_normal(fit, x, n) for x, n in
                     zip(ks.boundary_positions[nd:], ks.boundary_normals[nd:])])
    assert np.max(np.abs(up_n)) > 0.1            # the correction is exercised
    data = neumann(ks.boundary_positions[nd:])
    cond = max(rec.condition for rec in sol.diagnostics)
    scale = np.max(np.abs(v_n)) + np.max(np.abs(up_n)) + np.max(np.abs(data))
    assert np.max(np.abs(v_n + up_n - data)) <= cond * np.finfo(float).eps * scale


def test_interior_knots_enrich_fit_without_changing_bc():
    problem = helmholtz_problem()
    ks = ellipse_knots(ELL1, 7).with_interior(ELL1.interior_samples(5, seed=2,
                                                              shrink=0.8))
    sol = solve_linear(problem, ks, mq_pair(3.0))
    assert sol.interior_u is not None
    assert sol.interior_u.shape == (5,)
    u = evaluate(sol, ks.boundary_positions)
    data = problem.dirichlet(ks.boundary_positions)
    assert np.max(np.abs(u - data)) <= 1e-8 * np.max(np.abs(data))


def test_interior_values_are_the_field_at_the_interior_knots():
    ks = ellipse_knots(ELL1, 7).with_interior(ELL1.interior_samples(5, seed=2,
                                                              shrink=0.8))
    sol = solve_linear(helmholtz_problem(), ks, mq_pair(3.0))
    np.testing.assert_array_equal(sol.interior_u, evaluate(sol, ks.interior))


def test_fit_is_one_factorisation_of_the_interpolation_matrix():
    # without a rest the fit interpolates the forcing: the solve's alpha is
    # the fit stage run on its own, bit for bit
    problem = helmholtz_problem()
    ks = ellipse_knots(ELL1, 10).with_interior(
        ELL1.interior_samples(4, seed=9, shrink=0.8))
    pair = mq_pair(3.0)
    sol = solve_linear(problem, ks, pair)
    alpha = FactoredMatrix(build_interpolation_matrix(ks, pair)).solve(
        problem.forcing(ks.all_positions))
    assert sol.drm_fit.alpha.tobytes() == alpha.tobytes()


def test_solve_evaluates_kernels_on_boundary_rows_only(monkeypatch):
    # interior knots only enrich the fit: without a linear rest no J0 or
    # phi_hat entry of an interior row is evaluated during the solve
    ks = ellipse_knots(ELL1, 12).with_dirichlet_count(6).with_interior(
        ELL1.interior_samples(3, seed=2, shrink=0.8))
    nd, nb, n = ks.dirichlet_count, ks.n_boundary, ks.size
    entries = {}

    def count(owner, name, r_arg):
        fn = getattr(owner, name)

        def spy(*args, **kwargs):
            entries[name] = entries.get(name, 0) + np.size(args[r_arg])
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)

    count(kernels, "bessel_j0", 0)
    count(kernels, "bessel_j1", 0)
    count(kernels.KernelPair, "phi_hat", 1)            # (self, r)
    count(kernels.KernelPair, "phi_hat_normal", 1)     # (self, r, projection)
    sol = solve_linear(mixed_problem(), ks, mq_pair(3.0))
    assert sol.diagnostics[1].size == nb
    # Dirichlet rows take values, Neumann rows derivatives, interior rows none
    assert entries == {"bessel_j0": nd * nb, "bessel_j1": (nb - nd) * nb,
                       "phi_hat": nd * n, "phi_hat_normal": (nb - nd) * n}


def test_interior_values_are_evaluated_once_on_first_use(monkeypatch):
    ks = ellipse_knots(ELL1, 7).with_interior(ELL1.interior_samples(5, seed=2,
                                                              shrink=0.8))
    calls = []
    field_at = solver.evaluate
    monkeypatch.setattr(solver, "evaluate",
                        lambda sol, x: calls.append(x) or field_at(sol, x))
    sol = solve_linear(helmholtz_problem(), ks, mq_pair(3.0))
    assert calls == []
    first = sol.interior_u
    assert sol.interior_u is first
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], ks.interior)


def test_coupled_interior_values_are_the_solved_unknowns(monkeypatch):
    # a linear rest solves for u at the interior knots: those values are
    # stored as solved and never re-evaluated from the field
    ks = ellipse_knots(ELL1, 12).with_interior(
        ELL1.interior_samples(8, seed=5, shrink=0.85))
    exact = lambda p: (p[:, 0]**2 + p[:, 1]**2) / 4.0
    problem = ProblemSpec(forcing=lambda p: np.ones(len(p)), dirichlet=exact,
                          rho=RhoLinear(_phi_hat_images), geometry=ELL1)
    solved = {}
    factored_solve = FactoredMatrix.solve

    def spy(self, rhs):
        x = factored_solve(self, rhs)
        solved[self.label] = x
        return x

    monkeypatch.setattr(FactoredMatrix, "solve", spy)
    sol = solve_linear(problem, ks, mq_pair(1.0))

    def refuse(*args):
        raise AssertionError("interior values were re-evaluated")

    monkeypatch.setattr(solver, "evaluate", refuse)
    z = solved["collocation"]
    assert sol.interior_u.tobytes() == z[ks.n_boundary:].tobytes()


@settings(max_examples=40, deadline=None)
@given(a=st.floats(1.0, 4.0), aspect=st.floats(0.4, 1.0),
       n_boundary=st.integers(4, 14), neumann_share=st.floats(0.0, 1.0),
       n_interior=st.integers(0, 8), seed=st.integers(0, 2**16))
def test_boundary_rows_and_interior_values_property(a, aspect, n_boundary,
                                                    neumann_share, n_interior,
                                                    seed):
    ell = Ellipse(np.zeros(2), a, a * aspect)
    nd = n_boundary - int(round(neumann_share * n_boundary))
    ks = ellipse_knots(ell, n_boundary).with_dirichlet_count(nd)
    if n_interior:
        ks = ks.with_interior(ell.interior_samples(n_interior, seed, shrink=0.8))
    gs = GeneralSolution(2)
    boundary_rows = assemble_homogeneous_rows(ks, gs, boundary_only=True)
    all_rows = assemble_homogeneous_rows(ks, gs)
    assert boundary_rows.shape == (n_boundary, n_boundary)
    assert all_rows.shape == (ks.size, n_boundary)
    assert boundary_rows.tobytes() == all_rows[:n_boundary].tobytes()
    try:
        sol = solve_linear(mixed_problem(ell), ks, mq_pair(1.0))
    except IllConditionedError:
        return
    if n_interior:
        assert sol.interior_u.tobytes() == evaluate(sol, ks.interior).tobytes()
    else:
        assert sol.interior_u is None


def test_solver_requires_boundary_data():
    problem = ProblemSpec(forcing=lambda p: p[:, 0], rho=RhoZero())
    ks = ellipse_knots(ELL1, 5)
    with pytest.raises(ValueError):
        solve_linear(problem, ks, mq_pair(3.0))


@pytest.mark.parametrize("rest", ["zero", "linear", "nonlinear"])
def test_missing_dirichlet_data_is_refused_before_any_work(rest):
    ks = ellipse_knots(ELL1, 7)
    if rest == "nonlinear":
        problem = ProblemSpec(forcing=_never,
                              rho=RhoBoundaryNonlinear(apply=_never))
        solve = solve_nonlinear_boundary_only
    else:
        problem = ProblemSpec(forcing=_never, rho=RhoZero() if rest == "zero"
                              else RhoLinear(_never))
        solve = solve_linear
    with pytest.raises(ValueError, match="knots carry Dirichlet rows but no "
                                         "Dirichlet data was given"):
        solve(problem, ks, mq_pair(3.0))


@pytest.mark.parametrize("field, value, match", [
    ("rho", None, "rho must be a RhoZero, RhoLinear or RhoBoundaryNonlinear"),
    ("rho", RhoZero, "rho must be a RhoZero, RhoLinear or RhoBoundaryNonlinear"),
    ("forcing", None, "forcing must be callable"),
    ("forcing", 2.0, "forcing must be callable"),
    ("dirichlet", 1.0, "dirichlet must be callable"),
    ("neumann", np.zeros(3), "neumann must be callable"),
    ("exact", "sin", "exact must be callable"),
], ids=["rho-none", "rho-class", "forcing-none", "forcing-number",
        "dirichlet-number", "neumann-array", "exact-string"])
def test_problem_spec_refuses_unusable_fields(field, value, match):
    kwargs = dict(forcing=lambda p: p[:, 0], dirichlet=lambda p: p[:, 0])
    with pytest.raises(ValueError, match=match):
        ProblemSpec(**{**kwargs, field: value})


@pytest.mark.parametrize("make, field", [(RhoLinear, "basis_images"),
                                         (RhoBoundaryNonlinear, "apply")])
@pytest.mark.parametrize("value", [None, 2.0, np.zeros((3, 3))],
                         ids=["none", "number", "array"])
def test_rho_descriptors_refuse_a_non_callable(make, field, value):
    # accepted, these used to fail only inside the solve's right-hand side
    with pytest.raises(ValueError, match=f"{field} must be callable, got "):
        make(value)


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
        ELL1.interior_samples(8, seed=5, shrink=0.85))
    sol = solve_linear(problem, ks, mq_pair(1.0))
    assert len(sol.diagnostics) == 3
    pts = ELL1.interior_samples(30, seed=1, shrink=0.9)
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
        ELL1.interior_samples(4, seed=9, shrink=0.8))
    s0 = solve_linear(problem_zero, ks, mq_pair(3.0))
    s1 = solve_linear(problem_coupled, ks, mq_pair(3.0))
    np.testing.assert_allclose(s1.lam, s0.lam, atol=1e-9)
    np.testing.assert_allclose(s1.interior_u, s0.interior_u, atol=1e-9)


def test_coupled_boundary_only_zero_images_match_plain_path():
    # with no interior knots the fit does not depend on interior values, so
    # zero images leave exactly the plain two-step arithmetic
    problem_zero = helmholtz_problem()
    problem_coupled = ProblemSpec(forcing=problem_zero.forcing,
                                  dirichlet=problem_zero.dirichlet,
                                  rho=RhoLinear(lambda k, kr: np.zeros((k.size, k.size))),
                                  geometry=ELL1)
    ks = ellipse_knots(ELL1, 10)
    s0 = solve_linear(problem_zero, ks, mq_pair(3.0))
    s1 = solve_linear(problem_coupled, ks, mq_pair(3.0))
    assert [rec.label for rec in s1.diagnostics] == \
        ["particular-fit", "u-interpolation", "collocation"]
    assert s1.interior_u is None
    assert [s1.diagnostics[0], s1.diagnostics[2]] == list(s0.diagnostics)
    np.testing.assert_array_equal(s1.lam, s0.lam)
    np.testing.assert_array_equal(s1.drm_fit.alpha, s0.drm_fit.alpha)
    pts = np.vstack([ks.boundary_positions, ELL1.interior_samples(20, seed=4)])
    np.testing.assert_array_equal(evaluate(s1, pts), evaluate(s0, pts))


def test_coupled_boundary_only_meets_dirichlet_data():
    exact = lambda p: (p[:, 0]**2 + p[:, 1]**2) / 4.0
    problem = ProblemSpec(forcing=lambda p: np.ones(len(p)), dirichlet=exact,
                          rho=RhoLinear(_phi_hat_images), geometry=ELL1)
    ks = ellipse_knots(ELL1, 12)
    sol = solve_linear(problem, ks, mq_pair(1.0))
    assert sol.interior_u is None
    np.testing.assert_allclose(evaluate(sol, ks.boundary_positions),
                               exact(ks.boundary_positions), atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(1.0, 3.0), aspect=st.floats(0.4, 1.0),
       n_boundary=st.integers(6, 14), n_interior=st.integers(0, 6),
       c=st.floats(0.5, 3.0), beta=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2**16))
def test_linear_rest_solution_meets_its_equations(a, aspect, n_boundary,
                                                  n_interior, c, beta, seed):
    # rho{u} = beta u: laplacian u + u = x - beta u* + beta u, u* = sin x + x
    ell = Ellipse(np.zeros(2), a, a * aspect)
    ks = ellipse_knots(ell, n_boundary)
    if n_interior:
        ks = ks.with_interior(ell.interior_samples(n_interior, seed, shrink=0.8))
    exact = helmholtz_problem().exact
    problem = ProblemSpec(
        forcing=lambda p: p[:, 0] - beta * exact(p), dirichlet=exact,
        rho=RhoLinear(lambda k, kernel: beta * _phi_hat_images(k, kernel)),
        geometry=ell)
    kernel = mq_pair(c)
    try:
        sol = solve_linear(problem, ks, kernel)
    except IllConditionedError:
        return
    assert [rec.label for rec in sol.diagnostics] == \
        ["particular-fit", "u-interpolation", "collocation"]
    # u at the knots sums these terms; round-off is bounded relative to them
    r = pairwise_distances(ks.all_positions, ks.all_positions)
    scale = np.max(np.abs(bessel_j0(r[:, :n_boundary])) @ np.abs(sol.lam)
                   + np.abs(kernel.phi_hat(r)) @ np.abs(sol.drm_fit.alpha))
    cond = max(rec.condition for rec in sol.diagnostics)
    bound = cond * np.finfo(float).eps * scale
    data = exact(ks.boundary_positions)
    assert np.max(np.abs(evaluate(sol, ks.boundary_positions) - data)) <= bound
    if n_interior:
        assert np.max(np.abs(evaluate(sol, ks.interior) - sol.interior_u)) <= bound
    else:
        assert sol.interior_u is None
    # and the fit interpolates f + beta u at the knots
    u = np.concatenate([data, sol.interior_u if n_interior else []])
    f = problem.forcing(ks.all_positions)
    fit_matrix = build_interpolation_matrix(ks, kernel)
    alpha = sol.drm_fit.alpha
    fit_scale = np.max(np.abs(fit_matrix) @ np.abs(alpha) + np.abs(f)
                       + abs(beta) * np.abs(u))
    assert np.max(np.abs(fit_matrix @ alpha - f - beta * u)) <= \
        cond * np.finfo(float).eps * fit_scale


@pytest.mark.parametrize("n_interior", [0, 3])
def test_coupled_rejects_basis_images_of_wrong_shape(n_interior):
    problem = ProblemSpec(forcing=lambda p: np.ones(len(p)),
                          dirichlet=lambda p: np.zeros(len(p)),
                          rho=RhoLinear(lambda k, kr: np.zeros((k.size, k.size - 1))),
                          geometry=ELL1)
    ks = ellipse_knots(ELL1, 8).with_interior(
        ELL1.interior_samples(n_interior, seed=2, shrink=0.8))
    with pytest.raises(ValueError, match="basis_images must match"):
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
    pts = ELL2.interior_samples(20, seed=3)
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
# Data callables
# ---------------------------------------------------------------------------

def _misshapen(fn, shape):
    """``fn`` returning its m values as an (m, 1) column or as one scalar."""
    if shape == "column":
        return lambda *args: np.asarray(fn(*args))[:, None]
    return lambda *args: float(np.asarray(fn(*args))[0])


def _spoiled(fn, value):
    """``fn`` with its last value replaced by ``value``."""
    def spoiled(*args):
        values = np.array(fn(*args), dtype=float)
        values[-1] = value
        return values
    return spoiled


def _with_data(name, wrap):
    """(solve, problem, knots, kernel) with the callable ``name`` replaced by
    ``wrap`` of it."""
    if name == "RhoBoundaryNonlinear.apply":
        problem = nonlinear_problem()
        rho = RhoBoundaryNonlinear(wrap(problem.rho.apply))
        return (solve_nonlinear_boundary_only, replace(problem, rho=rho),
                ellipse_knots(ELL2, 9), mq_pair(18.0))
    problem = mixed_problem()
    problem = replace(problem, **{name: wrap(getattr(problem, name))})
    return (solve_linear, problem, ellipse_knots(ELL1, 8).with_dirichlet_count(4),
            mq_pair(3.0))


DATA_CALLABLES = ["forcing", "dirichlet", "neumann", "RhoBoundaryNonlinear.apply"]


@pytest.mark.parametrize("shape", ["column", "scalar"])
@pytest.mark.parametrize("name", DATA_CALLABLES)
def test_data_callables_must_return_one_value_per_point(name, shape):
    solve, problem, ks, kernel = _with_data(name, lambda fn: _misshapen(fn, shape))
    message = re.escape(f"{name} must return one value per point")
    with pytest.raises(ValueError, match=message):
        solve(problem, ks, kernel)


@pytest.mark.parametrize("frm_k", [None, 7], ids=["dense", "truncated"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", DATA_CALLABLES)
def test_data_callables_must_return_finite_values(name, value, frm_k):
    # refused where the data is read, with one message on both paths
    solve, problem, ks, kernel = _with_data(name, lambda fn: _spoiled(fn, value))
    message = re.escape(f"{name} must return finite values, got {value}")
    with pytest.raises(ValueError, match=message):
        solve(problem, ks, kernel, frm_k=frm_k)


def _counting(fn, calls):
    def counted(p):
        calls.append(p)
        return fn(p)
    return counted


@pytest.mark.parametrize("rest", ["nonlinear", "linear"])
def test_solve_reads_dirichlet_data_once(rest):
    calls = []
    if rest == "nonlinear":         # table2's problem and knot set
        problem = nonlinear_problem()
        problem = replace(problem, dirichlet=_counting(problem.dirichlet, calls))
        ks = ellipse_knots(ELL2, 9)
        solve_nonlinear_boundary_only(problem, ks, mq_pair(18.0))
    else:
        exact = lambda p: (p[:, 0]**2 + p[:, 1]**2) / 4.0
        problem = ProblemSpec(forcing=lambda p: np.ones(len(p)),
                              dirichlet=_counting(exact, calls),
                              rho=RhoLinear(_phi_hat_images), geometry=ELL1)
        ks = ellipse_knots(ELL1, 12).with_interior(
            ELL1.interior_samples(8, seed=5, shrink=0.85))
        solve_linear(problem, ks, mq_pair(1.0))
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], ks.boundary_positions)


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
                     problem.geometry.interior_samples(20, seed=4)])
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


@pytest.mark.parametrize("solve,problem", [
    (solve_linear, helmholtz_problem()),
    (solve_nonlinear_boundary_only, nonlinear_problem())],
    ids=["linear", "nonlinear"])
def test_truncation_refuses_a_fractional_k(solve, problem):
    ks = ellipse_knots(problem.geometry, 9)
    with pytest.raises(ValueError, match="neighbour count must be a whole number"):
        solve(problem, ks, mq_pair(3.0), frm_k=2.5)


@pytest.mark.parametrize("solve,problem,n,c", [
    (solve_linear, helmholtz_problem(), 12, 3.0),
    (solve_nonlinear_boundary_only, nonlinear_problem(), 12, 18.0)],
    ids=["linear", "nonlinear"])
def test_truncated_solution_records_both_stages(solve, problem, n, c):
    ks = ellipse_knots(problem.geometry, n)
    sol = solve(problem, ks, mq_pair(c), frm_k=5)
    # each stage records the condition estimate of its truncated system,
    # the one solve_sparse takes of the dense matrix truncated alone
    systems = [truncate_system(lambda i, j: a[i, j], np.ones(n), ks, 5)
               for a in (build_interpolation_matrix(ks, mq_pair(c)),
                         assemble_homogeneous_rows(ks, GeneralSolution(2)))]
    for system in systems:
        solve_sparse(system)
        exact = np.linalg.cond(system.matrix.toarray(), 1)
        assert exact / 5 <= system.condition <= exact * (1 + 1e-12)
    assert [(rec.label, rec.size, rec.condition) for rec in sol.diagnostics] == \
        [("particular-fit", n, systems[0].condition),
         ("collocation", n, systems[1].condition)]
    assert all(0 < rec.eta <= RESIDUAL_TOL for rec in sol.diagnostics)
    assert np.all(np.isfinite(sol.lam))


@pytest.mark.parametrize("frm_k", [None, 7], ids=["dense", "truncated"])
def test_a_backward_error_refusal_names_the_stage(monkeypatch, frm_k):
    # each path reports the stage's own condition estimate: dgecon's on the
    # dense path, the sparse LU's on the truncated one
    problem = helmholtz_problem()
    ks = ellipse_knots(ELL1, 7)
    if frm_k is None:
        condition = FactoredMatrix(build_interpolation_matrix(ks, mq_pair(3.0))).condition
    else:
        condition = solve_linear(problem, ks, mq_pair(3.0),
                                 frm_k=frm_k).diagnostics[0].condition
    monkeypatch.setattr(_linalg, "RESIDUAL_TOL", 0.0)
    with pytest.raises(IllConditionedError,
                       match="particular-fit solve backward error") as info:
        solve_linear(problem, ks, mq_pair(3.0), frm_k=frm_k)
    assert info.value.condition == condition
    assert f"(condition estimate {condition:.3e})" in str(info.value)


# ---------------------------------------------------------------------------
# Properties over random problems
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(center=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       a=st.floats(0.5, 8.0), aspect=st.floats(0.2, 1.0),
       n_boundary=st.integers(3, 24), n_interior=st.integers(0, 8),
       dirichlet_share=st.floats(0.0, 1.0), c=st.floats(0.3, 20.0),
       seed=st.integers(0, 2**16))
def test_every_solve_answers_within_its_gates_or_refuses(
        center, a, aspect, n_boundary, n_interior, dirichlet_share, c, seed):
    # a solve returns finite field values with every stage's backward error
    # within RESIDUAL_TOL, or refuses; never noise
    ell = Ellipse(np.array(center), a, a * aspect)
    boundary = ellipse_knots(ell, n_boundary)
    ks = boundary.with_dirichlet_count(round(dirichlet_share * n_boundary))
    if n_interior:
        ks = ks.with_interior(ell.interior_samples(n_interior, seed, shrink=0.8))
    kernel, pts = mq_pair(c), ell.interior_samples(8, seed)

    def solved(solve, problem, knots, frm_k):
        try:
            sol = solve(problem, knots, kernel, frm_k=frm_k)
        except (IllConditionedError, DegenerateGeometryError):
            return None
        # every stage, dense or truncated, carries a condition estimate
        assert all(rec.eta <= RESIDUAL_TOL and rec.condition <= COND_LIMIT
                   for rec in sol.diagnostics)
        assert np.isfinite(evaluate(sol, pts)).all()
        return sol

    for frm_k in (None,) if n_interior else (None, ks.size):
        solved(solve_linear, mixed_problem(ell), ks, frm_k)
        # the nonlinear path: one factorisation pair, dense or truncated
        sol = solved(solve_nonlinear_boundary_only, nonlinear_problem(), boundary, frm_k)
        if sol is not None:
            assert [rec.label for rec in sol.diagnostics] == \
                ["particular-fit", "collocation"]


# ---------------------------------------------------------------------------
# Three dimensions
# ---------------------------------------------------------------------------

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

def wide_solution():
    """32 boundary and 112 interior knots on the 10x5 ellipse, c = 4."""
    ks = ellipse_knots(ELL_WIDE, 32).with_interior(
        ELL_WIDE.interior_samples(112, seed=1, shrink=0.8))
    return solve_linear(helmholtz_problem(ELL_WIDE), ks, mq_pair(4.0))


def test_evaluate_holds_one_distance_block_at_most():
    # the 256 x 144 distances are taken in row slices of at most
    # _BLOCK_ENTRIES entries, and phi_hat writes its block over the slice's;
    # beside them live the slice's J0 block (N_b of the N+L columns), one
    # slice of the cube's square root, the output and small ufunc buffers
    sol = wide_solution()
    pts = ELL_WIDE.interior_samples(256, seed=4)
    m, n, nb = len(pts), sol.knots.size, sol.knots.n_boundary
    slice_entries = geometry._BLOCK_ENTRIES * (n + nb) // n
    budget = (slice_entries + m) * 8 + kernels._CUBE_SLICE * 8 + 16 * 1024
    assert allocation_peak(lambda: evaluate(sol, pts)) <= budget


def test_evaluate_memory_does_not_grow_with_the_point_count():
    # table1 at 1000 knots, truncated to k = 8: one 4e4 x 1000 distance
    # block would take 320 MB; a slice holds at most _BLOCK_ENTRIES
    # distances and as many J0 entries, beside the output
    case = bench.table1_case()
    ks = ellipse_knots(case.problem.geometry, 1000)
    sol = solve_linear(case.problem, ks, mq_pair(3.0), frm_k=8)
    pts = ELL1.interior_samples(40000, seed=6)
    budget = len(pts) * 8 + 3 * geometry._BLOCK_ENTRIES * 8
    assert allocation_peak(lambda: evaluate(sol, pts)) <= budget


#: Prints the bytes of the field of table1 at 1000 knots, truncated to
#: k = 8, at 1001 points: one 1001 x 1000 product, which OpenBLAS would split
#: across threads.
_FIELD_BYTES = """
import bkm
case = bkm.named_case("table1")
ks = bkm.ellipse_knots(case.problem.geometry, 1000)
sol = bkm.solve_linear(case.problem, ks, bkm.mq_pair(3.0), frm_k=8)
pts = case.problem.geometry.interior_samples(1001, seed=6)
print(bkm.evaluate(sol, pts).tobytes().hex())
"""


def test_evaluate_bits_do_not_depend_on_the_blas_thread_count():
    src = str(Path(geometry.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outs = [subprocess.run([sys.executable, "-c", _FIELD_BYTES], check=True,
                           capture_output=True, text=True, timeout=300,
                           env={**os.environ, "PYTHONPATH": path,
                                "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert outs[0] == outs[1] != ""


def test_phi_block_holds_three_blocks_at_most():
    # the output, s and one term of phi
    pts = wide_solution().knots.all_positions
    r = pairwise_distances(pts, pts)
    pair = mq_pair(4.0)
    assert allocation_peak(lambda: pair.phi(r)) <= 3 * r.nbytes + 16 * 1024


def test_a_refused_dense_solve_leaves_no_matrix_on_a_large_knot_set():
    # a dense fit reads all 1000 x 1000 distances and is refused; past the
    # 181-knot cut the set keeps none of them (the matrix alone is 8 MB)
    ks = ellipse_knots(ELL1, 1000)
    tracemalloc.start()
    try:
        with pytest.raises(IllConditionedError, match="particular-fit"):
            solve_linear(helmholtz_problem(), ks, mq_pair(3.0))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20


def test_evaluate_matches_sum_of_components():
    ks = ellipse_knots(ELL1, 7)
    sol = solve_linear(helmholtz_problem(), ks, mq_pair(3.0))
    pts = ELL1.interior_samples(10, seed=21)
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
    for p in ellipse.interior_samples(25, seed=17):
        resid = fd_laplacian(v, p, h=1e-4) + v(p)
        assert abs(resid) <= 1e-6 * scale
