"""Dual-reciprocity particular solutions over a knot set.

The inhomogeneous term of the governing equation is interpolated at all
knots in the operator-image basis ``phi``; the same coefficients then give a
globally evaluable approximate particular solution through the
particular-solution basis ``phi_hat`` and its normal derivative.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import FactoredMatrix, solve_checked
from .geometry import KnotSet, _normal_projections, as_point, pairwise_distances
from .kernels import KernelPair


def build_interpolation_matrix(knots: KnotSet, kernel: KernelPair) -> np.ndarray:
    """Dense symmetric phi(||x_i - x_j||) over boundary-then-interior knots.

    Uses :attr:`KnotSet.distances`; the knot set's constructor has already
    refused coincident knots, which would make the matrix singular.
    """
    return kernel.phi(knots.distances, dimension=knots.dimension)


@dataclass(frozen=True)
class DrmFit:
    """Particular-solution expansion coefficients over a knot set."""

    alpha: np.ndarray
    kernel: KernelPair
    knots: KnotSet
    condition: float | None = None

    @property
    def size(self) -> int:
        return self.alpha.shape[0]


def fit_particular(knots: KnotSet, kernel: KernelPair, rhs_values) -> DrmFit:
    """Interpolate pre-evaluated right-hand-side values at all knots.

    ``rhs_values`` are the values of the inhomogeneous term (forcing plus any
    remaining-operator contribution) at the N+L knots, already evaluated by
    the caller. Raises :class:`IllConditionedError` past condition 1e14.
    """
    rhs = np.asarray(rhs_values, dtype=float)
    if rhs.shape != (knots.size,):
        raise ValueError(
            f"rhs_values must have length {knots.size}, got shape {rhs.shape}")
    alpha, rec = solve_checked(build_interpolation_matrix(knots, kernel), rhs,
                               label="particular-fit")
    return DrmFit(alpha=alpha, kernel=kernel, knots=knots,
                  condition=rec.condition)


def _points_array(x, dimension):
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return as_point(arr)[None, :], True
    if arr.ndim == 2 and arr.shape[1] == dimension:
        return arr, False
    raise ValueError(f"expected a point of dimension {dimension} or an array of them")


def evaluate_particular(fit: DrmFit, x):
    """Approximate particular solution at x: sum of alpha_j phi_hat(r_j).

    Accepts a single point or an (m, d) array of points.
    """
    pts, scalar = _points_array(x, fit.knots.dimension)
    r = pairwise_distances(pts, fit.knots.all_positions)
    values = fit.kernel.phi_hat(r) @ fit.alpha
    return float(values[0]) if scalar else values


def evaluate_particular_normal(fit: DrmFit, x, n):
    """Directional derivative of the particular solution along unit vector n."""
    p = as_point(x)[None, :]
    sources = fit.knots.all_positions
    r = pairwise_distances(p, sources)
    proj = _normal_projections(p, as_point(n)[None, :], sources, r)
    return float(fit.kernel.phi_hat_normal(r, proj)[0] @ fit.alpha)


def apply_operator_coupling(fit_matrix: FactoredMatrix, rho_applied_basis) -> np.ndarray:
    """Matrix sending nodal u-values to their remaining-operator contribution.

    Given R[i, j] = (remaining operator applied to the particular-solution
    basis centred at knot j, evaluated at knot i), returns R A^{-1} where A
    is the factored symmetric matrix. Feeding R = A reproduces the identity.
    """
    r = np.asarray(rho_applied_basis, dtype=float)
    if r.shape != fit_matrix.matrix.shape:
        raise ValueError(
            f"rho_applied_basis must match the interpolation matrix shape "
            f"{fit_matrix.matrix.shape}, got {r.shape}")
    # A is symmetric, so R A^{-1} = (A^{-1} R^T)^T
    return fit_matrix.solve(r.T).T
