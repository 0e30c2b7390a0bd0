"""Boundary knot collocation: assemble and solve the two-step scheme.

A solve runs in two stages. First the inhomogeneous term is absorbed into a
dual-reciprocity particular solution (one factorisation of the
interpolation matrix). Second, the homogeneous remainder is collocated in
the non-singular general solution basis at the boundary knots (one more
factorisation), enforcing the particular-solution-corrected boundary data.

Nonlinear equations whose nonlinearity can be evaluated from Dirichlet data
alone collapse to the same two linear solves: with boundary knots only, the
unknown never appears inside the remaining operator, so no iteration is
needed. A linear remaining operator keeps the same two stages: the fit's
right-hand side is affine in the interior u-values, which join the
collocation as unknowns. Each solution records one :class:`SolveRecord` per
dense factorisation, which is how tests assert the single-solve property.

The finite-support (FRM) variant is the same pipeline: with ``frm_k`` both
systems are truncated to k nearest neighbours, their kernels evaluated at
the kept pairs only, and solved by sparse LU.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

from ._linalg import FactoredMatrix, SolveRecord
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


def _drm_rhs(problem: ProblemSpec, knots: KnotSet, kernel: KernelPair):
    """What the particular fit interpolates, affine in the interior u-values.

    Returns ``(rhs, rhs_u, u_interp)``: the fit's right-hand side is
    ``rhs + rhs_u @ u_int``. ``rhs`` is the forcing at every knot, plus a
    boundary-nonlinear rest evaluated on the Dirichlet data, or a linear
    rest applied to it. A linear rest also contributes ``rhs_u``, one column
    per interior knot (None without them), and ``u_interp``, the factored
    phi_hat matrix the rest's images are mapped through (None otherwise).
    """
    rhs = np.asarray(problem.forcing(knots.all_positions), dtype=float)
    if rhs.shape != (knots.size,):
        raise ValueError("forcing must return one value per knot")
    if isinstance(problem.rho, RhoZero):
        return rhs, None, None
    pts = knots.boundary_positions
    u_b = np.asarray(problem.dirichlet(pts), dtype=float)
    if isinstance(problem.rho, RhoBoundaryNonlinear):
        return rhs + np.asarray(problem.rho.apply(u_b, pts), dtype=float), None, None
    images = np.asarray(problem.rho.basis_images(knots, kernel), dtype=float)
    # u is quasi-interpolated in the particular-solution basis, so the
    # operator images pair with the phi_hat interpolation matrix
    u_interp = FactoredMatrix(kernel.phi_hat(knots.distances), label="u-interpolation")
    coupling = apply_operator_coupling(u_interp, images)   # rho{u} = coupling @ u
    nb = knots.n_boundary
    rhs_u = coupling[:, nb:] if knots.n_interior > 0 else None
    return rhs + coupling[:, :nb] @ u_b, rhs_u, u_interp


def _collocation_entries(knots: KnotSet, gs: GeneralSolution, rows, cols):
    """Entries of :func:`assemble_homogeneous_rows` at boundary index pairs,
    ``rows`` ascending: basis values on Dirichlet rows, normal derivatives
    on Neumann rows, each equal to the dense entry for the same pair."""
    r = knots.distances[rows, cols]
    split = np.searchsorted(rows, knots.dirichlet_count)   # Dirichlet rows first
    out = np.empty_like(r)
    out[:split] = gs.value(r[:split])
    if split < r.size:
        i, j, rn = rows[split:], cols[split:], r[split:]
        sources = knots.boundary_positions
        proj = _normal_projections(sources[i], knots.boundary_normals[i],
                                   sources[j], rn)
        out[split:] = gs.normal_derivative(rn, proj)
    return out


def _solve_stage(dense, entries, rhs, knots, frm_k, label):
    """Dense checked LU of ``dense()``, returning the solution and the
    factorisation; or, with ``frm_k``, the sparse LU of the system truncated
    to each row's k nearest knots, assembled from ``entries(rows, cols)`` at
    the kept pairs only, which keeps no factorisation."""
    if frm_k is None:
        lu = FactoredMatrix(dense(), label=label)
        return lu.solve(rhs), lu
    return solve_sparse(truncate_system(entries, rhs, knots, frm_k)), None


def _finish_two_step(problem, knots, kernel, frm_k=None):
    """The one solve tail: particular fit, homogeneous solve, interior values.

    The fit is affine in the interior u-values, alpha = alpha_0 + alpha_u
    u_int. When it depends on them (a linear rest with interior knots), the
    interior rows u(x_j) = u_int_j join the collocation, whose unknowns are
    then [lambda; u_int]; otherwise u_int is the field at the interior knots.
    """
    nb = knots.n_boundary
    gs = helmholtz_general_solution(knots.dimension)
    rhs, rhs_u, u_interp = _drm_rhs(problem, knots, kernel)
    alpha, fit_lu = _solve_stage(
        lambda: build_interpolation_matrix(knots, kernel),
        lambda i, j: kernel.phi(knots.distances[i, j], dimension=knots.dimension),
        rhs, knots, frm_k, "particular-fit")
    fit = DrmFit(alpha=alpha, kernel=kernel, knots=knots,
                 condition=None if fit_lu is None else fit_lu.condition)
    rhs_h = _boundary_rhs(problem, knots, fit)
    interior_u = None
    if rhs_u is None:
        # a truncated solve has boundary knots only and needs no dense rows
        rows = assemble_homogeneous_rows(knots, gs) if frm_k is None else None
        lam, coll_lu = _solve_stage(
            lambda: rows[:nb], lambda i, j: _collocation_entries(knots, gs, i, j),
            rhs_h, knots, frm_k, "collocation")
        if knots.n_interior > 0:
            # u = v + u_p at the interior knots, from rows already evaluated
            interior_u = rows[nb:] @ lam + kernel.phi_hat(knots.distances[nb:]) @ alpha
    else:
        # dense only: solve_* refuse frm_k with a linear rest
        rows = assemble_homogeneous_rows(knots, gs)
        alpha_u = fit_lu.solve(rhs_u)
        b = u_interp.matrix                   # phi_hat at the knots
        system = np.hstack([rows, b @ alpha_u])
        system[nb:, nb:] -= np.eye(knots.n_interior)
        coll_lu = FactoredMatrix(system, label="collocation")
        z = coll_lu.solve(np.concatenate([rhs_h, -b[nb:] @ alpha]))
        lam, interior_u = z[:nb], z[nb:]
        fit = replace(fit, alpha=alpha + alpha_u @ interior_u)

    records = tuple(lu.record() for lu in (fit_lu, u_interp, coll_lu)
                    if lu is not None)
    return BkmSolution(lam=lam, drm_fit=fit, general_solution=gs, knots=knots,
                       interior_u=interior_u, diagnostics=records)


def solve_linear(problem: ProblemSpec, knots: KnotSet, kernel: KernelPair,
                 frm_k: Optional[int] = None) -> BkmSolution:
    """Solve a linear problem: Helmholtz left side plus optional linear rest.

    With no remaining operator the scheme is the plain two-step solve, and
    interior knots (if any) only enrich the particular-solution fit. A
    linear remaining operator feeds nodal u-values into the fit's right-hand
    side; boundary u-values must then be Dirichlet data. Without interior
    knots this is still the plain two-step solve; with them, the interior
    u-values join the boundary weights as unknowns of the collocation. A
    linear rest adds a third factorisation, of the phi_hat matrix its images
    are mapped through.

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
    if isinstance(problem.rho, RhoLinear):
        if knots.dirichlet_count != knots.n_boundary:
            raise ValueError("a linear remaining operator requires Dirichlet "
                             "data on the whole boundary: u is otherwise "
                             "unknown at boundary knots")
        if problem.dirichlet is None:
            raise ValueError("Dirichlet data is required")
    return _finish_two_step(problem, knots, kernel, frm_k)


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

    return _finish_two_step(problem, knots, kernel, frm_k)


def evaluate(solution: BkmSolution, x):
    """Field value u = v + u_p at a point or an (m, d) array of points."""
    knots = solution.knots
    pts, scalar = _points_array(x, knots.dimension)
    r = pairwise_distances(pts, knots.all_positions)
    fit = solution.drm_fit
    u = solution.general_solution.value(r[:, :knots.n_boundary]) @ solution.lam \
        + fit.kernel.phi_hat(r) @ fit.alpha
    return float(u[0]) if scalar else u


def evaluate_homogeneous(solution: BkmSolution, x):
    """The general-solution component v alone (diagnostics and testing)."""
    pts, scalar = _points_array(x, solution.knots.dimension)
    r = pairwise_distances(pts, solution.knots.boundary_positions)
    v = solution.general_solution.value(r) @ solution.lam
    return float(v[0]) if scalar else v
