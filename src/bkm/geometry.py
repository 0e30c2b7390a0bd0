"""Knot placement on parametric boundaries, outward normals, and radial distances.

Knots are the collocation sites of the boundary knot method: an ordered set of
boundary points carrying outward unit normals, optionally supplemented by
interior points. All containers are immutable after construction and all
operations are pure.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError

#: Two knots closer than this (model units) are treated as coincident.
COINCIDENT_TOL = 1e-12

#: Normals must have unit length within this tolerance.
UNIT_TOL = 1e-12


def as_point(x) -> np.ndarray:
    """Validate and return a point as a 1-d float array of dimension 2 or 3."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1 or p.size not in (2, 3):
        raise ValueError(f"point must have dimension 2 or 3, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"point coordinates must be finite, got {p}")
    return p


@dataclass(frozen=True)
class BoundaryKnot:
    """A boundary collocation site: position plus outward unit normal."""

    position: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        pos = as_point(self.position)
        nor = as_point(self.normal)
        if pos.size != nor.size:
            raise ValueError("position and normal must share a dimension")
        if abs(np.linalg.norm(nor) - 1.0) > UNIT_TOL:
            raise ValueError(f"normal must have unit length, got |n|={np.linalg.norm(nor)!r}")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "normal", nor)


@dataclass(frozen=True)
class Ellipse:
    """Axis-aligned ellipse, the benchmark boundary shape.

    Parametrised as center + (a cos t, b sin t) with semi-major axis a and
    semi-minor axis b, a >= b > 0.
    """

    center: np.ndarray
    semi_major: float
    semi_minor: float

    def __post_init__(self):
        c = as_point(self.center)
        if c.size != 2:
            raise ValueError("ellipse center must be two-dimensional")
        a, b = float(self.semi_major), float(self.semi_minor)
        if not (a >= b > 0.0):
            raise ValueError(f"ellipse requires a >= b > 0, got a={a}, b={b}")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "semi_major", a)
        object.__setattr__(self, "semi_minor", b)


class KnotSet:
    """Ordered collocation knots: boundary first, then optional interior points.

    The boundary list is partitioned into a Dirichlet prefix (the first
    ``dirichlet_count`` knots) and a Neumann suffix. Row/column order of every
    assembled matrix follows this ordering.

    Parameters
    ----------
    boundary_positions : (N, d) array
    boundary_normals : (N, d) array
        Outward unit normals, one per boundary knot.
    dirichlet_count : int, optional
        Number of leading boundary knots carrying Dirichlet data. Defaults to
        all of them.
    interior : (L, d) array, optional
        Interior knots; may be empty.
    """

    def __init__(self, boundary_positions, boundary_normals, dirichlet_count=None,
                 interior=None):
        # private copies: these arrays are frozen below
        bp = np.array(boundary_positions, dtype=float, ndmin=2)
        bn = np.array(boundary_normals, dtype=float, ndmin=2)
        if bp.shape[0] < 1:
            raise ValueError("at least one boundary knot is required")
        if bp.shape[1] not in (2, 3):
            raise ValueError(f"knot dimension must be 2 or 3, got {bp.shape[1]}")
        if bn.shape != bp.shape:
            raise ValueError("boundary_normals must match boundary_positions in shape")
        if not (np.isfinite(bp).all() and np.isfinite(bn).all()):
            raise ValueError("knot coordinates and normals must be finite")
        if (np.abs(_row_norms(bn) - 1.0) > UNIT_TOL).any():
            raise ValueError("all boundary normals must have unit length")

        if interior is None:
            ip = np.empty((0, bp.shape[1]))
        else:
            ip = np.array(interior, dtype=float)
            ip = ip.reshape(0, bp.shape[1]) if ip.size == 0 else np.atleast_2d(ip)
            if ip.shape[1] != bp.shape[1]:
                raise ValueError("interior knots must match the boundary dimension")
            if not np.isfinite(ip).all():
                raise ValueError("interior coordinates must be finite")

        dc = bp.shape[0] if dirichlet_count is None else \
            _checked_dirichlet_count(dirichlet_count, bp.shape[0])

        allp = np.concatenate((bp, ip))
        dists = pairwise_distances(allp, allp)
        _check_pairwise_distinct(dists)

        for arr in (bp, bn, ip, allp, dists):
            arr.setflags(write=False)
        self._boundary_positions = bp
        self._boundary_normals = bn
        self._interior = ip
        self._all = allp
        self._distances = dists
        self._dirichlet_count = dc
        self._neighbours = {}      # k -> (indices, indptr), see neighbours()

    @property
    def boundary_positions(self) -> np.ndarray:
        return self._boundary_positions

    @property
    def boundary_normals(self) -> np.ndarray:
        return self._boundary_normals

    @property
    def interior(self) -> np.ndarray:
        return self._interior

    @property
    def all_positions(self) -> np.ndarray:
        """All knots, boundary first then interior, shape (N+L, d)."""
        return self._all

    @property
    def distances(self) -> np.ndarray:
        """Read-only knot-to-knot distances over :attr:`all_positions`, (N+L, N+L)."""
        return self._distances

    def neighbours(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Each knot's k nearest knots (self included) as a read-only CSR
        pattern ``(indices, indptr)``: row i keeps the columns
        ``indices[indptr[i]:indptr[i + 1]]``, ascending, exactly k of them.

        Distances are :attr:`distances`; ties at the k-th distance break
        towards the lower knot index, as a stable sort of each row would.
        The pattern is computed once per k and kept: one O(N^2) partition of
        the distance matrix, plus a short stable sort for each row with a tie
        at its k-th distance.
        """
        k = int(k)
        if not 1 <= k <= self.size:
            raise ValueError(
                f"neighbour count must satisfy 1 <= k <= {self.size}, got {k}")
        pattern = self._neighbours.get(k)
        if pattern is None:
            pattern = self._neighbours[k] = _nearest_neighbours(self._distances, k)
        return pattern

    @property
    def dirichlet_count(self) -> int:
        return self._dirichlet_count

    @property
    def neumann_count(self) -> int:
        return self.n_boundary - self._dirichlet_count

    @property
    def n_boundary(self) -> int:
        return self._boundary_positions.shape[0]

    @property
    def n_interior(self) -> int:
        return self._interior.shape[0]

    @property
    def size(self) -> int:
        return self.n_boundary + self.n_interior

    @property
    def dimension(self) -> int:
        return self._boundary_positions.shape[1]

    @property
    def knots(self) -> tuple[BoundaryKnot, ...]:
        """Boundary knots as individual objects, in collocation order."""
        return tuple(BoundaryKnot(p, n) for p, n in
                     zip(self._boundary_positions, self._boundary_normals))

    def with_interior(self, interior) -> "KnotSet":
        """Copy of this set with the interior knots replaced."""
        return KnotSet(self._boundary_positions, self._boundary_normals,
                       self._dirichlet_count, interior)

    def with_dirichlet_count(self, count: int) -> "KnotSet":
        """Copy of this set with a different Dirichlet/Neumann partition.

        No knot moves, so the copy shares this set's frozen arrays, distance
        matrix and neighbour patterns, and needs no coincidence check.
        """
        twin = copy.copy(self)
        twin._dirichlet_count = _checked_dirichlet_count(count, self.n_boundary)
        return twin

    def __repr__(self):
        return (f"KnotSet(n_boundary={self.n_boundary}, "
                f"dirichlet={self.dirichlet_count}, n_interior={self.n_interior})")


def pairwise_distances(points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """Euclidean distances between every row of points_a and of points_b.

    Squares are summed in place, one coordinate at a time: the order of
    ``np.linalg.norm(a[:, None] - b[None], axis=2)``, so bit-identical to it.
    """
    a, b = np.asarray(points_a), np.asarray(points_b)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    out = np.subtract.outer(a[:, 0], b[:, 0])
    np.square(out, out=out)
    term = np.empty_like(out)
    for j in range(1, a.shape[1]):
        np.subtract.outer(a[:, j], b[:, j], out=term)
        np.square(term, out=term)
        out += term
    return np.sqrt(out, out=out)


def _normal_projections(points, normals, sources, r):
    """dr/dn = ((x - s) . n) / r, 0 where point and source coincide.

    With an (m, n) block ``r``, ``points`` and ``normals`` are (m, d) and
    ``sources`` is (n, d): every point against every source. With p index
    pairs, ``r`` is (p,) and all three are (p, d), already gathered per pair;
    each entry then equals the block's entry for the same pair.
    """
    if r.ndim == 2:
        dots = np.einsum("ijk,ik->ij", points[:, None, :] - sources[None, :, :],
                         normals)
    else:
        dots = np.einsum("ik,ik->i", points - sources, normals)
    proj = np.zeros_like(r)
    ok = r > COINCIDENT_TOL
    proj[ok] = dots[ok] / r[ok]
    return proj


def _nearest_neighbours(dists: np.ndarray, k: int):
    """CSR ``(indices, indptr)`` of each row's k smallest distances, ties to
    the lower column index; see :meth:`KnotSet.neighbours`."""
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1:k]
    keep = dists <= kth
    for i in np.flatnonzero(np.count_nonzero(keep, axis=1) > k):
        # ties at the k-th distance: the candidates are in index order, so a
        # stable sort of them keeps the lower indices
        tied = np.flatnonzero(keep[i])
        keep[i, tied[np.argsort(dists[i, tied], kind="stable")[k:]]] = False
    indices = np.nonzero(keep)[1]
    indptr = np.arange(0, indices.size + 1, k)
    for arr in (indices, indptr):
        arr.setflags(write=False)
    return indices, indptr


def _checked_dirichlet_count(count, n_boundary: int) -> int:
    count = int(count)
    if not 0 <= count <= n_boundary:
        raise ValueError("dirichlet_count out of range")
    return count


def _row_norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v, axis=1)``, the same arithmetic without its dispatch."""
    return np.sqrt(np.square(v).sum(axis=1))


def _check_pairwise_distinct(dists: np.ndarray):
    # mask the self-distances in place, then restore their exact zeros
    flat = dists.reshape(-1)
    diagonal = flat[::dists.shape[0] + 1]
    diagonal.fill(np.inf)
    k = flat.argmin()
    nearest = flat[k]
    diagonal.fill(0.0)
    if nearest <= COINCIDENT_TOL:
        i, j = divmod(int(k), dists.shape[0])
        raise DegenerateGeometryError(
            f"knots {i} and {j} coincide (distance {nearest:.3e})")


def ellipse_knots(e: Ellipse, n: int) -> KnotSet:
    """Place n boundary knots on an ellipse at uniform parametric angles.

    Knot k sits at angle t_k = 2*pi*k/n, position center + (a cos t, b sin t),
    with outward normal proportional to (b cos t, a sin t). The interior list
    is empty; use :meth:`KnotSet.with_interior` to add interior points.
    """
    n = int(n)
    if n < 1:
        raise ValueError("knot count must be at least 1")
    t = 2.0 * np.pi * np.arange(n) / n
    a, b = e.semi_major, e.semi_minor
    trig = np.empty((n, 2))
    trig[:, 0] = np.cos(t)
    trig[:, 1] = np.sin(t)
    positions = trig * (a, b)
    positions += e.center
    normals = trig * (b, a)
    normals /= _row_norms(normals)[:, None]
    return KnotSet(positions, normals)


def radial_distance(x, y) -> float:
    """Euclidean distance between two points of equal dimension."""
    p = as_point(x)
    q = as_point(y)
    if p.size != q.size:
        raise ValueError(f"dimension mismatch: {p.size} vs {q.size}")
    return float(np.linalg.norm(p - q))


def normal_projection(x, source, n) -> float:
    """Directional derivative of the radial distance, d r / d n.

    Returns ((x - source) . n) / |x - source|, the cosine between the
    separation vector and the direction n. By convention the value at
    x == source is 0; every kernel derivative used here carries a factor
    that vanishes with r, so the convention matches the analytic limits.
    """
    p = as_point(x)
    s = as_point(source)
    d = as_point(n)
    if not p.size == s.size == d.size:
        raise ValueError("x, source and n must share a dimension")
    diff = p - s
    r = np.linalg.norm(diff)
    if r <= COINCIDENT_TOL:
        return 0.0
    return float(diff @ d / r)
