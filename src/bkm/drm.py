"""Dual-reciprocity particular solutions over a knot set.

The inhomogeneous term of the governing equation is interpolated at all
knots in the operator-image basis ``phi``; the same coefficients then give a
globally evaluable approximate particular solution through the
particular-solution basis ``phi_hat`` and its normal derivative.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import COND_LIMIT, FactoredMatrix
from .geometry import KnotSet, _normal_projections, as_point, pairwise_distances
from .kernels import KernelPair


class InterpolationMatrix:
    """Dense symmetric collocation matrix phi(r_ij) over all knots.

    Rows and columns follow the knot ordering (boundary first, then
    interior). The LU factorisation is computed lazily on first solve and
    cached; ``condition`` holds the 1-norm estimate once factored.
    """

    def __init__(self, entries: np.ndarray, knots: KnotSet):
        self.entries = entries
        self.knots = knots
        self._factored: FactoredMatrix | None = None

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def is_factored(self) -> bool:
        return self._factored is not None

    @property
    def condition(self) -> float | None:
        return self._factored.condition if self._factored else None

    def factor(self, cond_limit=COND_LIMIT) -> FactoredMatrix:
        if self._factored is None:
            self._factored = FactoredMatrix(
                self.entries, label="particular-fit", cond_limit=cond_limit)
        return self._factored

    def solve(self, rhs):
        return self.factor().solve(rhs)


def build_interpolation_matrix(knots: KnotSet, kernel: KernelPair) -> InterpolationMatrix:
    """Assemble phi(||x_i - x_j||) over boundary-then-interior knots.

    Uses :attr:`KnotSet.distances`; the knot set's constructor has already
    refused coincident knots, which would make the matrix singular.
    """
    return InterpolationMatrix(kernel.phi(knots.distances), knots)


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
    matrix = build_interpolation_matrix(knots, kernel)
    rhs = np.asarray(rhs_values, dtype=float)
    if rhs.shape != (matrix.size,):
        raise ValueError(
            f"rhs_values must have length {matrix.size}, got shape {rhs.shape}")
    alpha = matrix.solve(rhs)
    return DrmFit(alpha=alpha, kernel=kernel, knots=knots,
                  condition=matrix.condition)


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


def apply_operator_coupling(fit_matrix: InterpolationMatrix, rho_applied_basis) -> np.ndarray:
    """Matrix sending nodal u-values to their remaining-operator contribution.

    Given R[i, j] = (remaining operator applied to the particular-solution
    basis centred at knot j, evaluated at knot i), returns R A^{-1} where A
    is the interpolation matrix. Feeding R = A reproduces the identity.
    """
    r = np.asarray(rho_applied_basis, dtype=float)
    if r.shape != fit_matrix.entries.shape:
        raise ValueError(
            f"rho_applied_basis must match the interpolation matrix shape "
            f"{fit_matrix.entries.shape}, got {r.shape}")
    # A is symmetric, so R A^{-1} = (A^{-1} R^T)^T
    return fit_matrix.solve(r.T).T
