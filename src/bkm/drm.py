"""Dual-reciprocity particular solutions over a knot set.

The inhomogeneous term of the governing equation is interpolated at all
knots in the operator-image basis ``phi``; the same coefficients then give a
globally evaluable approximate particular solution through the
particular-solution basis ``phi_hat`` and its normal derivative.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist

from .geometry import (KnotSet, _normal_projections, _row_sliced, _slice_rows,
                       as_point, pairwise_distances)
from .kernels import KernelPair


def build_interpolation_matrix(knots: KnotSet, kernel: KernelPair) -> np.ndarray:
    """Dense symmetric phi(||x_i - x_j||) over boundary-then-interior knots.

    Reads all pairs through :meth:`KnotSet.distances_at`; the knot set's
    constructor has already refused coincident knots, which would make the
    matrix singular.
    """
    return kernel.phi(knots.distances_at(slice(None), slice(None)),
                      dimension=knots.dimension)


class DrmFit(NamedTuple):
    """Particular-solution expansion coefficients over a knot set.

    The solver fits ``alpha`` by one factorisation of
    :func:`build_interpolation_matrix`; that factorisation's condition
    estimate is recorded in ``BkmSolution.diagnostics``. A named tuple.
    """

    alpha: np.ndarray
    kernel: KernelPair
    knots: KnotSet


def _at_points(x, sources, block):
    """``block(r)`` at one point (a float) or at (m, d) points, r their
    distances to the (n, d) ``sources``: a fresh C-contiguous block that
    ``block`` may overwrite. Points that fit one row slice
    (:func:`bkm.geometry._slice_rows`) take one block; more take one per
    slice (:func:`bkm.geometry._row_sliced`). A block with a distance that
    is not finite is refused, see :func:`_refuse_non_finite`."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        return float(_at_points(as_point(pts)[None, :], sources, block)[0])
    if pts.ndim != 2 or pts.shape[1] != sources.shape[1]:
        raise ValueError(f"expected a point of dimension {sources.shape[1]} "
                         "or an array of them")
    m, n = len(pts), len(sources)
    if _slice_rows(m, n) < m:
        return _row_sliced(lambda a, b: _at_points(pts[a:b], sources, block), m, n)
    r = cdist(pts, sources)       # pairwise_distances, whose checks ran above
    # one max over all axes, NaN failing the comparison; a ufunc reduce
    # runs no Python frame, where r.max() runs one
    if r.size and not np.maximum.reduce(r, None) < np.inf:
        _refuse_non_finite(pts, r)
    return block(r)


def _refuse_non_finite(pts, r):
    """Raise for the first point with a distance in ``r`` that is not
    finite: :func:`as_point`'s error for a non-finite coordinate, else an
    overflow error naming the point."""
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        as_point(pts[bad][0])
    p = ", ".join(f"{v:g}" for v in pts[~np.isfinite(r).all(axis=1)][0])
    raise ValueError(f"distances from point ({p}) to the knots overflow")


def evaluate_particular(fit: DrmFit, x):
    """Approximate particular solution at x: sum of alpha_j phi_hat(r_j).

    Accepts a single point or an (m, d) array of points.
    """
    return _at_points(x, fit.knots.all_positions,
                      lambda r: fit.kernel.phi_hat(r, out=r).dot(fit.alpha))


def evaluate_particular_normal(fit: DrmFit, x, n):
    """Directional derivative of the particular solution along unit vector n."""
    p = as_point(x)
    sources = fit.knots.all_positions
    r = pairwise_distances(p[None, :], sources)[0]
    proj = _normal_projections(p, as_point(n), sources, r)
    return float(fit.kernel.phi_hat_normal(r, proj) @ fit.alpha)
