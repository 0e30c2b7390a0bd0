"""Boundary knot collocation: assemble and solve the two-step scheme.

A solve runs in two stages. First the inhomogeneous term is absorbed into a
dual-reciprocity particular solution (one factorisation of the
interpolation matrix). Second, the homogeneous remainder is collocated in
the non-singular general solution basis at the boundary knots (one more
factorisation), enforcing the particular-solution-corrected boundary data.

Nonlinear equations whose nonlinearity can be evaluated from Dirichlet data
alone collapse to the same two linear solves: with boundary knots only, the
unknown never appears inside the remaining operator, so no iteration is
needed. Each solution records one :class:`SolveRecord` per dense
factorisation, which is how tests assert the single-solve property.

The finite-support (FRM) variant is the same pipeline: with ``frm_k`` both
systems are truncated to k nearest neighbours and solved by sparse LU.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from ._linalg import FactoredMatrix, SolveRecord, solve_checked
from .drm import (DrmFit, _points_array, apply_operator_coupling,
                  build_interpolation_matrix)
from .frm import solve_sparse, truncate_system
from .geometry import Ellipse, KnotSet, _normal_projections, pairwise_distances
from .kernels import GeneralSolution, KernelPair, helmholtz_general_solution


# ---------------------------------------------------------------------------
# Remaining-operator descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RhoZero:
    """No remaining operator: the equation is exactly Helmholtz."""


@dataclass(frozen=True)
class RhoLinear:
    """Linear remaining operator given through its action on the basis.

    ``basis_images(knots, kernel)`` must return the (N+L, N+L) matrix whose
    entry [i, j] is the operator applied to the particular-solution basis
    centred at knot j, evaluated at knot i.
    """

    basis_images: Callable[[KnotSet, KernelPair], np.ndarray]


@dataclass(frozen=True)
class RhoBoundaryNonlinear:
    """Nonlinearity evaluable from boundary data: rho{u} = g(u, x).

    ``apply(u_values, points)`` evaluates g at known u values; with boundary
    knots only, u on the boundary is the Dirichlet data, so the right-hand
    side is computable without iteration.
    """

    apply: Callable[[np.ndarray, np.ndarray], np.ndarray]


RhoDescriptor = Union[RhoZero, RhoLinear, RhoBoundaryNonlinear]


@dataclass(frozen=True)
class ProblemSpec:
    """Operator split, data functions and geometry for one boundary problem.

    All data callables are vectorised: they take an (m, d) array of points
    and return an array of m values.
    """

    forcing: Callable[[np.ndarray], np.ndarray]
    dirichlet: Optional[Callable[[np.ndarray], np.ndarray]] = None
    neumann: Optional[Callable[[np.ndarray], np.ndarray]] = None
    rho: RhoDescriptor = field(default_factory=RhoZero)
    geometry: Optional[Ellipse] = None
    exact: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass
class BkmSolution:
    """Fitted collocation solution u = v + u_p.

    ``lam`` weights the general-solution basis centred at the boundary
    knots; ``drm_fit`` carries the particular-solution expansion.
    ``diagnostics`` holds one record per dense factorisation performed.
    """

    lam: np.ndarray
    drm_fit: DrmFit
    general_solution: GeneralSolution
    knots: KnotSet
    interior_u: Optional[np.ndarray] = None
    diagnostics: tuple[SolveRecord, ...] = ()


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def assemble_homogeneous_rows(knots: KnotSet, gs: GeneralSolution) -> np.ndarray:
    """Collocation rows of the general-solution expansion.

    Columns are indexed by the N boundary source knots. Dirichlet rows hold
    basis values, Neumann rows the normal derivative, and interior rows
    (appended after the boundary block) basis values again. Row order
    follows the knot ordering.
    """
    nd, nb = knots.dirichlet_count, knots.n_boundary
    sources = knots.boundary_positions
    r = knots.distances[:, :nb]
    rows = gs.value(r)
    if nd < nb:
        rn = r[nd:nb]
        proj = _normal_projections(sources[nd:], knots.boundary_normals[nd:],
                                   sources, rn)
        rows[nd:nb] = gs.normal_derivative(rn, proj)
    return rows


def _boundary_rhs(problem: ProblemSpec, knots: KnotSet, fit: DrmFit) -> np.ndarray:
    """Boundary data corrected by the particular solution, per knot type.

    ``fit`` must be the particular fit over ``knots``, whose distances it reuses.
    """
    nd, nb = knots.dirichlet_count, knots.n_boundary
    rhs = np.empty(nb)
    if nd > 0:
        if problem.dirichlet is None:
            raise ValueError("knots carry Dirichlet rows but no Dirichlet data was given")
        up = fit.kernel.phi_hat(knots.distances[:nd]) @ fit.alpha
        pts = knots.boundary_positions[:nd]
        rhs[:nd] = np.asarray(problem.dirichlet(pts), dtype=float) - up
    if nd < nb:
        if problem.neumann is None:
            raise ValueError("knots carry Neumann rows but no Neumann data was given")
        pts = knots.boundary_positions[nd:]
        rn = knots.distances[nd:nb]
        proj = _normal_projections(pts, knots.boundary_normals[nd:],
                                   knots.all_positions, rn)
        up_n = fit.kernel.phi_hat_normal(rn, proj) @ fit.alpha
        rhs[nd:] = np.asarray(problem.neumann(pts), dtype=float) - up_n
    return rhs


def _drm_rhs(problem: ProblemSpec, knots: KnotSet) -> np.ndarray:
    """What the particular fit interpolates: the forcing at every knot, plus
    a boundary-nonlinear rest evaluated on the Dirichlet data."""
    rhs = np.asarray(problem.forcing(knots.all_positions), dtype=float)
    if rhs.shape != (knots.size,):
        raise ValueError("forcing must return one value per knot")
    if isinstance(problem.rho, RhoBoundaryNonlinear):
        pts = knots.boundary_positions
        u_b = np.asarray(problem.dirichlet(pts), dtype=float)
        rhs = rhs + np.asarray(problem.rho.apply(u_b, pts), dtype=float)
    return rhs


def _solve_stage(matrix, rhs, knots, frm_k, label):
    """Dense checked LU, or with ``frm_k`` the sparse LU of the system
    truncated to each row's k nearest knots, which records nothing."""
    if frm_k is None:
        return solve_checked(matrix, rhs, label=label)
    return solve_sparse(truncate_system(matrix, rhs, knots, frm_k)), None


def _finish_two_step(problem, knots, kernel, rhs_drm, gs, frm_k=None):
    """Shared tail: particular fit, homogeneous solve, interior evaluation."""
    matrix = build_interpolation_matrix(knots, kernel)
    alpha, fit_rec = _solve_stage(matrix, rhs_drm, knots, frm_k, "particular-fit")
    fit = DrmFit(alpha=alpha, kernel=kernel, knots=knots,
                 condition=None if fit_rec is None else fit_rec.condition)

    h = assemble_homogeneous_rows(knots, gs)[:knots.n_boundary]
    rhs_h = _boundary_rhs(problem, knots, fit)
    lam, rec = _solve_stage(h, rhs_h, knots, frm_k, "collocation")

    records = tuple(r for r in (fit_rec, rec) if r is not None)
    solution = BkmSolution(lam=lam, drm_fit=fit, general_solution=gs,
                           knots=knots, diagnostics=records)
    if knots.n_interior > 0:
        solution.interior_u = evaluate(solution, knots.interior)
    return solution


def solve_linear(problem: ProblemSpec, knots: KnotSet, kernel: KernelPair,
                 frm_k: Optional[int] = None) -> BkmSolution:
    """Solve a linear problem: Helmholtz left side plus optional linear rest.

    With no remaining operator the scheme is the plain two-step solve, and
    interior knots (if any) only enrich the particular-solution fit. A
    linear remaining operator couples nodal u-values into the right-hand
    side and produces one combined system for the N boundary weights and
    the L interior u-values (L may be zero); boundary u-values must then be
    Dirichlet data.

    ``frm_k`` truncates both systems to each row's k nearest knots and solves
    them by sparse LU, recording no diagnostics; it needs boundary knots only
    and no linear rest.
    """
    if isinstance(problem.rho, RhoBoundaryNonlinear):
        raise ValueError("nonlinear remaining operators take the "
                         "solve_nonlinear_boundary_only path")
    if frm_k is not None and isinstance(problem.rho, RhoLinear):
        raise ValueError("truncated (frm_k) solves do not support RhoLinear")
    if frm_k is not None and knots.n_interior > 0:
        raise ValueError("truncated (frm_k) solves need boundary knots only")
    gs = helmholtz_general_solution(knots.dimension)
    f = _drm_rhs(problem, knots)

    if isinstance(problem.rho, RhoZero):
        return _finish_two_step(problem, knots, kernel, f, gs, frm_k)

    # linear remaining operator: nodal u-values feed back into the fit
    if knots.dirichlet_count != knots.n_boundary:
        raise ValueError("the coupled linear path requires Dirichlet data on "
                         "the whole boundary: u is otherwise unknown at "
                         "boundary knots")
    if problem.dirichlet is None:
        raise ValueError("Dirichlet data is required")
    images = np.asarray(problem.rho.basis_images(knots, kernel), dtype=float)
    # u is quasi-interpolated in the particular-solution basis, so the
    # operator images pair with the phi_hat interpolation matrix
    b_hat = kernel.phi_hat(knots.distances)
    b_factored = FactoredMatrix(b_hat, label="u-interpolation")
    coupling = apply_operator_coupling(b_factored, images)
    d_boundary = np.asarray(problem.dirichlet(knots.boundary_positions), dtype=float)
    return _solve_coupled(knots, kernel, gs, f, b_factored, b_hat, coupling,
                          d_boundary)


def _solve_coupled(knots, kernel, gs, f, b_factored, b_hat, coupling, d_boundary):
    """Combined solve for [lambda; interior u] under a linear remaining operator."""
    nb, ni = knots.n_boundary, knots.n_interior
    matrix = FactoredMatrix(build_interpolation_matrix(knots, kernel),
                            label="particular-fit")
    # particular-solution values at knots as a linear map of the fitted rhs
    lift = matrix.solve(b_hat).T          # phi_hat-matrix times A^{-1}
    records = [matrix.record(), b_factored.record()]

    g = lift @ coupling                   # nodal u -> u_p contribution at knots
    up_f = lift @ f                       # forcing contribution to u_p at knots

    h = assemble_homogeneous_rows(knots, gs)
    system = np.zeros((nb + ni, nb + ni))
    system[:, :nb] = h
    system[:, nb:] = g[:, nb:]
    system[nb:, nb:] -= np.eye(ni)
    rhs = -up_f - g[:, :nb] @ d_boundary
    rhs[:nb] += d_boundary

    z, rec = solve_checked(system, rhs, label="collocation")
    records.append(rec)
    lam, interior_u = z[:nb], z[nb:]

    u_nodes = np.concatenate([d_boundary, interior_u])
    alpha = matrix.solve(f + coupling @ u_nodes)
    fit = DrmFit(alpha=alpha, kernel=kernel, knots=knots, condition=matrix.condition)
    return BkmSolution(lam=lam, drm_fit=fit, general_solution=gs, knots=knots,
                       interior_u=interior_u if ni > 0 else None,
                       diagnostics=tuple(records))


def solve_nonlinear_boundary_only(problem: ProblemSpec, knots: KnotSet,
                                  kernel: KernelPair,
                                  frm_k: Optional[int] = None) -> BkmSolution:
    """Single linear solve of a nonlinear equation with linear boundary data.

    Requires boundary knots only and Dirichlet data everywhere: the
    remaining operator is evaluated by substituting the known boundary
    values, so the pipeline stays identical to the linear case and performs
    exactly one factorisation pair (particular fit plus collocation).
    ``frm_k`` truncates both systems as in :func:`solve_linear`.
    """
    if knots.n_interior > 0:
        raise ValueError("the linear formulation of nonlinear problems holds "
                         "for boundary knots only; u at interior knots would "
                         "be unknown inside the remaining operator")
    if knots.dirichlet_count != knots.n_boundary or problem.dirichlet is None:
        raise ValueError("Dirichlet data on the whole boundary is required: "
                         "the nonlinearity is evaluated from known u values")
    if not isinstance(problem.rho, RhoBoundaryNonlinear):
        raise ValueError("problem.rho must be RhoBoundaryNonlinear for this path")

    gs = helmholtz_general_solution(knots.dimension)
    return _finish_two_step(problem, knots, kernel, _drm_rhs(problem, knots),
                            gs, frm_k)


def evaluate(solution: BkmSolution, x):
    """Field value u = v + u_p at a point or an (m, d) array of points."""
    knots, fit = solution.knots, solution.drm_fit
    pts, scalar = _points_array(x, knots.dimension)
    r = pairwise_distances(pts, knots.all_positions)
    v = solution.general_solution.value(r[:, :knots.n_boundary]) @ solution.lam
    u = v + fit.kernel.phi_hat(r) @ fit.alpha
    return float(u[0]) if scalar else u


def evaluate_homogeneous(solution: BkmSolution, x):
    """The general-solution component v alone (diagnostics and testing)."""
    pts, scalar = _points_array(x, solution.knots.dimension)
    r = pairwise_distances(pts, solution.knots.boundary_positions)
    v = solution.general_solution.value(r) @ solution.lam
    return float(v[0]) if scalar else v
