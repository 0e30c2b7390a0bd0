"""Dual-reciprocity particular solutions over a knot set.

The inhomogeneous term of the governing equation is interpolated at all
knots in the operator-image basis ``phi``; the same coefficients then give a
globally evaluable approximate particular solution through the
particular-solution basis ``phi_hat`` and its normal derivative.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Particular-solution expansion coefficients over a knot set.

    The solver fits ``alpha`` by one factorisation of
    :func:`build_interpolation_matrix`; that factorisation's condition
    estimate is recorded in ``BkmSolution.diagnostics``.
    """

    alpha: np.ndarray
    kernel: KernelPair
    knots: KnotSet


def _points_array(x, dimension):
    """(points as an (m, d) array, whether x was a single point); refuses
    non-finite coordinates with :func:`as_point`'s error."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return as_point(arr)[None, :], True
    if arr.ndim == 2 and arr.shape[1] == dimension:
        if not np.isfinite(arr).all():
            as_point(arr[~np.isfinite(arr).all(axis=1)][0])
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
    p = as_point(x)
    sources = fit.knots.all_positions
    r = pairwise_distances(p[None, :], sources)[0]
    proj = _normal_projections(p, as_point(n), sources, r)
    return float(fit.kernel.phi_hat_normal(r, proj) @ fit.alpha)
