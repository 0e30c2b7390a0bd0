"""Dual-reciprocity particular solutions over a knot set.

The inhomogeneous term of the governing equation is interpolated at all
knots in the operator-image basis ``phi``; the same coefficients then give a
globally evaluable approximate particular solution through the
particular-solution basis ``phi_hat`` and its normal derivative.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (KnotSet, _normal_projections, _row_sliced, as_point,
                       pairwise_distances)
from .kernels import KernelPair


def build_interpolation_matrix(knots: KnotSet, kernel: KernelPair) -> np.ndarray:
    """Dense symmetric phi(||x_i - x_j||) over boundary-then-interior knots.

    Reads all pairs through :meth:`KnotSet.distances_at`; the knot set's
    constructor has already refused coincident knots, which would make the
    matrix singular.
    """
    return kernel.phi(knots.distances_at(np.s_[:], np.s_[:]), dimension=knots.dimension)


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


def _at_points(x, sources, block):
    """``block(r)`` at one point (a float) or at (m, d) points, r their
    distances to the (n, d) ``sources``, over row slices
    (:func:`bkm.geometry._row_sliced`). Non-finite coordinates raise
    :func:`as_point`'s error."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        return float(_at_points(as_point(pts)[None, :], sources, block)[0])
    if pts.ndim != 2 or pts.shape[1] != sources.shape[1]:
        raise ValueError(f"expected a point of dimension {sources.shape[1]} "
                         "or an array of them")
    if not np.isfinite(pts).all():
        as_point(pts[~np.isfinite(pts).all(axis=1)][0])
    return _row_sliced(lambda a, b: block(pairwise_distances(pts[a:b], sources)),
                       len(pts), len(sources))


def evaluate_particular(fit: DrmFit, x):
    """Approximate particular solution at x: sum of alpha_j phi_hat(r_j).

    Accepts a single point or an (m, d) array of points.
    """
    return _at_points(x, fit.knots.all_positions,
                      lambda r: fit.kernel.phi_hat(r, out=r) @ fit.alpha)


def evaluate_particular_normal(fit: DrmFit, x, n):
    """Directional derivative of the particular solution along unit vector n."""
    p = as_point(x)
    sources = fit.knots.all_positions
    r = pairwise_distances(p[None, :], sources)[0]
    proj = _normal_projections(p, as_point(n), sources, r)
    return float(fit.kernel.phi_hat_normal(r, proj) @ fit.alpha)
