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
factorisation, dense or sparse, which is how tests assert the single-solve
property; every solve passes one backward-error gate.

The collocation is the N boundary rows. One function applies the boundary
operator (the value on Dirichlet rows, the normal derivative on Neumann
rows) to J0 for those rows and the truncated entries, and to ``phi_hat``
for the data correction D - u_p, N - du_p/dn. A coupled linear rest
appends its own interior block, J0 values at the interior knots; elsewhere
the field at the interior knots is evaluated only if asked for.

The finite-support (FRM) variant is the same pipeline: with ``frm_k`` both
systems are truncated to k nearest neighbours, their kernels evaluated at
the kept pairs only, and solved by sparse LU.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from ._linalg import FactoredMatrix, SolveRecord
from .drm import DrmFit, _at_points, build_interpolation_matrix
from .frm import solve_sparse, truncate_system
from .geometry import Ellipse, KnotSet, _all_finite, _normal_projections, _row_sliced
from .kernels import GeneralSolution, KernelPair


# ---------------------------------------------------------------------------
# Remaining-operator descriptors
# ---------------------------------------------------------------------------

def _check_callable(name: str, fn, optional: bool = False):
    """Refuse ``fn`` unless it is callable (or None, when ``optional``)."""
    if not (callable(fn) or optional and fn is None):
        raise ValueError(f"{name} must be callable, got {fn!r}")


@dataclass(frozen=True)
class RhoZero:
    """No remaining operator: the equation is exactly Helmholtz."""


@dataclass(frozen=True)
class RhoLinear:
    """Linear remaining operator given through its action on the basis.

    ``basis_images(knots, kernel)`` must return the (N+L, N+L) matrix whose
    entry [i, j] is the operator applied to the particular-solution basis
    centred at knot j, evaluated at knot i. Its distances over all pairs
    are ``pairwise_distances(knots.all_positions, knots.all_positions)``.
    """

    basis_images: Callable[[KnotSet, KernelPair], np.ndarray]

    def __post_init__(self):
        _check_callable("basis_images", self.basis_images)


@dataclass(frozen=True)
class RhoBoundaryNonlinear:
    """Nonlinearity evaluable from boundary data: rho{u} = g(u, x).

    ``apply(u_values, points)`` evaluates g at known u values; with boundary
    knots only, u on the boundary is the Dirichlet data, so the right-hand
    side is computable without iteration.
    """

    apply: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        _check_callable("apply", self.apply)


RhoDescriptor = Union[RhoZero, RhoLinear, RhoBoundaryNonlinear]


@dataclass(frozen=True)
class ProblemSpec:
    """Operator split, data functions and geometry for one boundary problem.

    All data callables are vectorised: they take an (m, d) array of points
    and return an array of m values. Each one, ``RhoBoundaryNonlinear.apply``
    included, must return exactly m finite values, shape (m,): a solve
    refuses any other shape, a scalar or an (m, 1) column among them, and
    any inf or nan, naming the callable, on dense and truncated paths alike.
    The Dirichlet and Neumann data are read once per solve. Construction
    refuses a ``rho`` that is not a descriptor instance and data that is not
    callable; all but ``forcing`` may be None.
    """

    forcing: Callable[[np.ndarray], np.ndarray]
    dirichlet: Optional[Callable[[np.ndarray], np.ndarray]] = None
    neumann: Optional[Callable[[np.ndarray], np.ndarray]] = None
    rho: RhoDescriptor = field(default_factory=RhoZero)
    geometry: Optional[Ellipse] = None
    exact: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not isinstance(self.rho, RhoDescriptor):
            raise ValueError("rho must be a RhoZero, RhoLinear or "
                             f"RhoBoundaryNonlinear instance, got {self.rho!r}")
        for name in ("forcing", "dirichlet", "neumann", "exact"):
            _check_callable(name, getattr(self, name), optional=name != "forcing")


@dataclass
class BkmSolution:
    """Fitted collocation solution u = v + u_p.

    ``lam`` weights the general-solution basis centred at the boundary
    knots; ``drm_fit`` carries the particular-solution expansion.
    ``diagnostics`` holds one record per factorisation, dense or sparse.

    ``interior_u`` is u at the interior knots, None without them. A linear
    rest with interior knots solves for these values, and they are stored
    as solved. Otherwise no solve needs them: they are the field there,
    ``evaluate(solution, knots.interior)``, computed on first access and
    then kept.
    """

    lam: np.ndarray
    drm_fit: DrmFit
    general_solution: GeneralSolution
    knots: KnotSet
    _interior_u: Optional[np.ndarray] = field(default=None, repr=False)
    diagnostics: tuple[SolveRecord, ...] = ()

    @property
    def interior_u(self) -> Optional[np.ndarray]:
        if self._interior_u is None and self.knots.n_interior > 0:
            self._interior_u = evaluate(self, self.knots.interior)
        return self._interior_u


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

_GENERAL_SOLUTIONS = {d: GeneralSolution(d) for d in (2, 3)}   # shared by every solve


def _boundary_operator(radial, knots: KnotSet, rows, cols):
    """The boundary operator on a radial kernel ``(value, normal_derivative)``
    at knot distances from boundary row knots: the value on a Dirichlet row,
    the normal derivative at the row knot on a Neumann row. Two forms: a
    block, ``rows`` a slice of the boundary knots with a stop and ``cols`` a
    slice, gives the (m, n) block; gathered pairs, ``rows`` and ``cols`` (p,)
    index arrays with ``rows`` ascending boundary knots, give p entries.
    Boundary knots run Dirichlet, then Neumann, so either way the rows are a
    Dirichlet run :lo and a Neumann run lo:."""
    value, normal_derivative = radial
    nd = knots.dirichlet_count
    r = knots.distances_at(rows, cols)
    if isinstance(rows, slice):   # a block: (m, 1, d) row knots against (n, d) columns
        start = rows.start or 0
        lo = max(nd, start) - start
        i, j = (slice(start + lo, rows.stop), None), cols
    else:                         # gathered pairs: (p, d) against (p, d)
        lo = int(rows.searchsorted(nd))
        i, j = rows[lo:], cols[lo:]
    if lo >= len(r):
        return value(r)
    out = np.empty(r.shape)
    if lo:                        # kernels only where they are kept
        out[:lo] = value(r[:lo])
    proj = _normal_projections(knots.all_positions[i], knots.boundary_normals[i],
                               knots.all_positions[j], r[lo:])
    out[lo:] = normal_derivative(r[lo:], proj)
    return out


def assemble_homogeneous_rows(knots: KnotSet, gs: GeneralSolution) -> np.ndarray:
    """The N x N collocation matrix of the general-solution expansion.

    Rows and columns are the N boundary knots in knot order: Dirichlet rows
    hold basis values, Neumann rows their normal derivative at the row knot.
    """
    nb = knots.n_boundary
    return _boundary_operator((gs.value, gs.normal_derivative), knots,
                              slice(nb), slice(nb))


def _read_data(name: str, fn, points: np.ndarray) -> np.ndarray:
    """``fn(points)`` for (m, d) ``points`` as m finite floats; any other
    shape, and a value that is not finite, is refused with a message naming
    ``name``."""
    values = np.asarray(fn(points), dtype=float)
    if values.shape != (len(points),):
        raise ValueError(f"{name} must return one value per point, shape "
                         f"({len(points)},), got shape {values.shape}")
    if not _all_finite(values):
        raise ValueError(f"{name} must return finite values, got "
                         f"{values[~np.isfinite(values)][0]}")
    return values


def _boundary_data(problem: ProblemSpec, knots: KnotSet) -> np.ndarray:
    """The Dirichlet data at the Dirichlet knots, then the Neumann data at the
    Neumann knots, each read once."""
    nd, nb = knots.dirichlet_count, knots.n_boundary
    data = np.empty(nb)
    for lo, hi, kind, fn in ((0, nd, "Dirichlet", problem.dirichlet),
                             (nd, nb, "Neumann", problem.neumann)):
        if lo < hi:
            if fn is None:
                raise ValueError(f"knots carry {kind} rows but no {kind} data was given")
            data[lo:hi] = _read_data(kind.lower(), fn, knots.boundary_positions[lo:hi])
    return data


def _boundary_rhs(data: np.ndarray, fit: DrmFit) -> np.ndarray:
    """Boundary ``data`` less the boundary operator on u_p at the boundary
    knots of ``fit``, over row slices (:func:`bkm.geometry._row_sliced`)
    whose distances come from :meth:`KnotSet.distances_at`. A fresh slice
    of distances (writeable; a held matrix's view is not) takes ``phi_hat``
    in place."""
    knots, kernel = fit.knots, fit.kernel
    radial = (lambda r: kernel.phi_hat(r, out=r if r.flags.writeable else None),
              kernel.phi_hat_normal)
    return data - _row_sliced(lambda a, b: _boundary_operator(
        radial, knots, slice(a, b), slice(None)).dot(fit.alpha),
        knots.n_boundary, knots.size)


def _drm_rhs(problem: ProblemSpec, knots: KnotSet, kernel: KernelPair,
             data: np.ndarray):
    """What the particular fit interpolates, affine in the interior u-values.

    Returns ``(rhs, rhs_u, u_interp)``: the fit's right-hand side is
    ``rhs + rhs_u @ u_int``. ``rhs`` is the forcing at every knot, plus a
    boundary-nonlinear rest evaluated on the boundary ``data`` (all
    Dirichlet whenever there is a rest), or a linear rest applied to it. A
    linear rest also contributes ``rhs_u``, one column per interior knot
    (None without them), and ``u_interp``, the factored phi_hat matrix the
    rest's images are mapped through (None otherwise).
    """
    rhs = _read_data("forcing", problem.forcing, knots.all_positions)
    if isinstance(problem.rho, RhoZero):
        return rhs, None, None
    if isinstance(problem.rho, RhoBoundaryNonlinear):
        rest = _read_data("RhoBoundaryNonlinear.apply",
                          lambda p: problem.rho.apply(data, p), knots.boundary_positions)
        return rhs + rest, None, None
    images = np.asarray(problem.rho.basis_images(knots, kernel), dtype=float)
    n = knots.size
    if images.shape != (n, n):
        raise ValueError(f"basis_images must match the (N+L, N+L) = ({n}, {n}) "
                         f"interpolation matrix shape, got {images.shape}")
    # u is quasi-interpolated in the particular-solution basis, so the
    # operator images R pair with the phi_hat interpolation matrix B:
    # rho{u} = R B^{-1} u, and B is symmetric, so R B^{-1} = (B^{-1} R^T)^T
    all_pairs = knots.distances_at(slice(None), slice(None))
    u_interp = FactoredMatrix(kernel.phi_hat(all_pairs), label="u-interpolation")
    coupling = u_interp.solve(images.T).T
    nb = knots.n_boundary
    rhs_u = coupling[:, nb:] if knots.n_interior > 0 else None
    return rhs + coupling[:, :nb] @ data, rhs_u, u_interp


def _solve_stage(dense, entries, rhs, knots, frm_k, label):
    """Dense checked LU of ``dense()``; or, with ``frm_k``, the sparse LU of
    the system truncated to each row's k nearest knots, assembled from
    ``entries(rows, cols)`` at the kept pairs only. Returns the solution and
    the factorisation or sparse system, whose ``record()`` is the stage's."""
    if frm_k is None:
        lu = FactoredMatrix(dense(), label=label)
        return lu.solve(rhs), lu
    system = truncate_system(entries, rhs, knots, frm_k, label)
    return solve_sparse(system), system


def _finish_two_step(problem, knots, kernel, frm_k=None):
    """The one solve tail: particular fit, then the homogeneous solve.

    The boundary data is read once and serves both stages. The fit is
    affine in the interior u-values, alpha = alpha_0 + alpha_u u_int. When
    it depends on them (a linear rest with interior knots), interior rows
    u(x_j) = u_int_j are appended to the N boundary rows of the collocation,
    whose unknowns are then [lambda; u_int]. Otherwise the collocation is
    the boundary rows, and u_int is left for :class:`BkmSolution` to
    evaluate on use.
    """
    gs = _GENERAL_SOLUTIONS[knots.dimension]
    data = _boundary_data(problem, knots)
    rhs, rhs_u, u_interp = _drm_rhs(problem, knots, kernel, data)
    alpha, fit_lu = _solve_stage(
        lambda: build_interpolation_matrix(knots, kernel),
        lambda i, j: kernel.phi(knots.distances_at(i, j), dimension=knots.dimension),
        rhs, knots, frm_k, "particular-fit")
    fit = DrmFit(alpha, kernel, knots)
    rhs_h = _boundary_rhs(data, fit)
    interior_u = None
    if rhs_u is None:
        lam, coll_lu = _solve_stage(
            lambda: assemble_homogeneous_rows(knots, gs),
            lambda i, j: _boundary_operator((gs.value, gs.normal_derivative),
                                            knots, i, j),
            rhs_h, knots, frm_k, "collocation")
    else:
        # dense only: solve_* refuse frm_k with a linear rest
        nb = knots.n_boundary
        alpha_u = fit_lu.solve(rhs_u)
        b = u_interp.matrix                   # phi_hat at the knots
        interior_rows = gs.value(knots.distances_at(slice(nb, None), slice(nb)))
        system = np.hstack([np.vstack([assemble_homogeneous_rows(knots, gs),
                                       interior_rows]), b @ alpha_u])
        system[nb:, nb:] -= np.eye(knots.n_interior)
        coll_lu = FactoredMatrix(system, label="collocation")
        z = coll_lu.solve(np.concatenate([rhs_h, -b[nb:] @ alpha]))
        lam, interior_u = z[:nb], z[nb:]
        fit = fit._replace(alpha=alpha + alpha_u @ interior_u)

    records = tuple(lu.record() for lu in (fit_lu, u_interp, coll_lu)
                    if lu is not None)
    return BkmSolution(lam, fit, gs, knots, interior_u, records)


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
    them by sparse LU, gated like the dense stages (a Hager-Higham condition
    estimate); it needs boundary knots only and no linear rest.
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
    if knots.dirichlet_count != knots.n_boundary:
        raise ValueError("Dirichlet data on the whole boundary is required: "
                         "the nonlinearity is evaluated from known u values")
    if not isinstance(problem.rho, RhoBoundaryNonlinear):
        raise ValueError("problem.rho must be RhoBoundaryNonlinear for this path")

    return _finish_two_step(problem, knots, kernel, frm_k)


def evaluate(solution: BkmSolution, x):
    """Field value u = v + u_p at a point or an (m, d) array of points."""
    knots, fit, gs = solution.knots, solution.drm_fit, solution.general_solution
    nb, lam, alpha = knots.n_boundary, solution.lam, fit.alpha
    phi_hat = fit.kernel.phi_hat

    def block(r):
        # J0 reads the distances before phi_hat overwrites them with its block
        return gs.value(r[:, :nb]).dot(lam) + phi_hat(r, out=r).dot(alpha)
    return _at_points(x, knots.all_positions, block)


def evaluate_homogeneous(solution: BkmSolution, x):
    """The general-solution component v alone (diagnostics and testing)."""
    return _at_points(x, solution.knots.boundary_positions,
                      lambda r: solution.general_solution.value(r).dot(solution.lam))
