"""The domain's boundary, the knots placed on it, and radial distances.

:class:`Ellipse` is the one description of the domain: boundary points and
normals, containment and interior samples come from it. Knots, the
collocation sites of the boundary knot method, are ordered boundary points
carrying outward unit normals, optionally followed by interior points. All
containers are immutable after construction and all operations are pure.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import DegenerateGeometryError

#: Two knots closer than this (model units) are treated as coincident.
COINCIDENT_TOL = 1e-12

#: An implicit ellipse value up to 1 + this is on the boundary (so inside).
BOUNDARY_TOL = 1e-12

#: Normals must have unit length within this tolerance.
UNIT_TOL = 1e-12

#: The block budget in entries, 256 KB of float64. A knot set of at most 181
#: knots, whose whole distance matrix fits, forms it at construction and
#: keeps it; a larger set never holds one. Truncated solves and field
#: evaluation take their global products over row slices that fit
#: (:func:`_row_sliced`), so they form no larger distance or kernel block.
_BLOCK_ENTRIES = 32768


def as_point(x) -> np.ndarray:
    """Validate and return a point as a 1-d float array of dimension 2 or 3."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1 or p.size not in (2, 3):
        raise ValueError(f"point must have dimension 2 or 3, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"point coordinates must be finite, got {p}")
    return p


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
        if not (np.isfinite(a) and a >= b > 0.0):
            raise ValueError(f"ellipse requires finite a >= b > 0, got a={a}, b={b}")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "semi_major", a)
        object.__setattr__(self, "semi_minor", b)
        object.__setattr__(self, "_point_axes", np.array([a, b]))   # scale (cos t, sin t)
        object.__setattr__(self, "_normal_axes", np.array([b, a]))

    def boundary(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Boundary points center + (a cos t, b sin t) at the 1-d parameter
        values t, and their outward unit normals, proportional to
        (b cos t, a sin t); both (len(t), 2)."""
        trig = np.empty((len(t), 2))
        np.cos(t, out=trig[:, 0])
        np.sin(t, out=trig[:, 1])
        positions = trig * self._point_axes
        positions += self.center
        normals = trig * self._normal_axes
        normals /= _row_norms(normals)[:, None]
        return positions, normals

    def contains(self, points) -> np.ndarray:
        """Whether each point, along the last axis of ``points``, lies in the
        closed ellipse: boundary points (to :data:`BOUNDARY_TOL`) count."""
        return self._implicit(np.asarray(points, dtype=float)) <= 1.0 + BOUNDARY_TOL

    def interior_samples(self, n: int, seed, shrink: float = 1.0) -> np.ndarray:
        """n points strictly inside, with implicit value below ``shrink``, as
        (n, 2): uniform draws over the bounding box from ``default_rng(seed)``,
        kept in draw order, so the same seed gives the same points. ``n``
        is a count (see :func:`_checked_count`), 0 giving a (0, 2) array."""
        n = _checked_count(n, "sample count", 0)
        if not 0.0 < shrink <= 1.0:
            raise ValueError(f"shrink must lie in (0, 1], got {shrink}")
        rng = np.random.default_rng(seed)
        half = np.array([self.semi_major, self.semi_minor])
        kept = np.empty((0, 2))
        while len(kept) < n:
            box = rng.uniform(self.center - half, self.center + half, size=(2 * n, 2))
            kept = np.concatenate((kept, box[self._implicit(box) < shrink]))
        return kept[:n]

    def _implicit(self, points: np.ndarray) -> np.ndarray:
        """((x - cx)/a)^2 + ((y - cy)/b)^2 along the last axis: 1 on the boundary."""
        rel = (points - self.center) / (self.semi_major, self.semi_minor)
        return rel[..., 0] ** 2 + rel[..., 1] ** 2


class KnotSet:
    """Ordered collocation knots: boundary first, then optional interior points.

    The boundary list is partitioned into a Dirichlet prefix (the first
    ``dirichlet_count`` knots) and a Neumann suffix. Row/column order of every
    assembled matrix follows this ordering. Knot-to-knot distances are read
    through :meth:`distances_at` alone; a set of at most 181 knots holds the
    matrix its coincidence check forms, and a larger set holds none.

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
        # private copies, frozen below; interior knots join a second, (N+L, d) one
        bp = np.array(boundary_positions, dtype=float, ndmin=2)
        bn = np.array(boundary_normals, dtype=float, ndmin=2)
        if bp.shape[0] < 1:
            raise ValueError("at least one boundary knot is required")
        if bp.shape[1] not in (2, 3):
            raise ValueError(f"knot dimension must be 2 or 3, got {bp.shape[1]}")
        if bn.shape != bp.shape:
            raise ValueError("boundary_normals must match boundary_positions in shape")
        # a normal holding an inf or a NaN fails the length check too
        if not (_all_finite(bp)
                and np.maximum.reduce(np.abs(_row_norms(bn) - 1.0), None) <= UNIT_TOL):
            if not (_all_finite(bp) and _all_finite(bn)):
                raise ValueError("knot coordinates and normals must be finite")
            raise ValueError("all boundary normals must have unit length")

        if interior is None:
            allp = bp
        else:
            ip = np.array(interior, dtype=float, copy=None)
            ip = ip.reshape(0, bp.shape[1]) if ip.size == 0 else np.atleast_2d(ip)
            if ip.shape[1] != bp.shape[1]:
                raise ValueError("interior knots must match the boundary dimension")
            if not _all_finite(ip):
                raise ValueError("interior coordinates must be finite")
            allp = np.concatenate((bp, ip))

        dc = bp.shape[0] if dirichlet_count is None else \
            _checked_count(dirichlet_count, "dirichlet_count", 0, bp.shape[0])

        for arr in (allp, bn):
            arr.setflags(write=False)
        self._boundary_positions = allp[:len(bp)]    # read-only views of allp
        self._boundary_normals = bn
        self._interior = allp[len(bp):]
        self._all = allp
        self._n_boundary, self._size = len(bp), len(allp)
        self._dirichlet_count = dc
        # what is derived from the positions alone, formed once and shared
        # with with_dirichlet_count twins: "distances" (the constructor's,
        # up to the cut), "tree" (the k-d tree) and k -> neighbours(k)
        self._kept = {}
        if allp.shape[0] ** 2 <= _BLOCK_ENTRIES:
            dists = cdist(allp, allp)     # pairwise_distances; dimensions match
            _check_pairwise_distinct(dists)
            dists.setflags(write=False)
            self._kept["distances"] = dists
        else:
            _check_distinct_by_tree(allp, self._tree())

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

    def distances_at(self, rows, cols) -> np.ndarray:
        """Knot-to-knot distances over :attr:`all_positions` at two slices (a
        block; ``np.s_[:], np.s_[:]`` for all pairs) or at two (p,) index
        arrays (p gathered pairs), with the bits of :func:`pairwise_distances`.
        A set that holds its matrix reads them from it (a block is a
        read-only view); any other set computes just these entries, each on
        its own as :func:`pairwise_distances` does, and keeps nothing."""
        dists = self._kept.get("distances")
        if dists is not None:
            return dists[rows, cols]
        if isinstance(rows, slice):
            return pairwise_distances(self._all[rows], self._all[cols])
        return _row_norms(self._all[rows] - self._all[cols])

    def neighbours(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Each knot's k nearest knots (self included) as a read-only CSR
        pattern ``(indices, indptr)``: row i keeps the columns
        ``indices[indptr[i]:indptr[i + 1]]``, ascending, exactly k of them.

        Distances are those of :meth:`distances_at`; ties at the k-th distance
        break towards the lower knot index, as a stable sort of each row
        would. The pattern is computed once per k and kept, from the k-d
        tree alone (see :func:`_nearest_neighbours`), in O(N log N) expected
        time and O(N k) memory: no distance matrix is read or formed.
        """
        k = _checked_count(k, "neighbour count", 1, self.size)
        pattern = self._kept.get(k)
        if pattern is None:
            pattern = self._kept[k] = _nearest_neighbours(self._all, self._tree(), k)
        return pattern

    def _tree(self) -> cKDTree:
        """The k-d tree of :attr:`all_positions`, built once and kept."""
        tree = self._kept.get("tree")
        if tree is None:
            tree = self._kept["tree"] = cKDTree(self._all)
        return tree

    @property
    def dirichlet_count(self) -> int:
        return self._dirichlet_count

    @property
    def neumann_count(self) -> int:
        return self._n_boundary - self._dirichlet_count

    @property
    def n_boundary(self) -> int:
        return self._n_boundary

    @property
    def n_interior(self) -> int:
        return self._size - self._n_boundary

    @property
    def size(self) -> int:
        return self._size

    @property
    def dimension(self) -> int:
        return self._boundary_positions.shape[1]

    def with_interior(self, interior) -> "KnotSet":
        """Copy of this set with the interior knots replaced."""
        return KnotSet(self._boundary_positions, self._boundary_normals,
                       self._dirichlet_count, interior)

    def with_dirichlet_count(self, count: int) -> "KnotSet":
        """Copy of this set with a different Dirichlet/Neumann partition.

        No knot moves, so the copy shares this set's frozen arrays, its held
        distance matrix, if any, and its k-d tree and neighbour patterns,
        whenever either set forms them, and needs no coincidence check.
        """
        twin = copy.copy(self)
        twin._dirichlet_count = _checked_count(count, "dirichlet_count", 0, self.n_boundary)
        return twin

    def __repr__(self):
        return (f"KnotSet(n_boundary={self.n_boundary}, "
                f"dirichlet={self.dirichlet_count}, n_interior={self.n_interior})")


def pairwise_distances(points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """Euclidean distances between every row of points_a and of points_b.

    One float64 (m, n) block from scipy's Euclidean ``cdist``, which sums
    the squared coordinate differences in coordinate order and takes one
    square root. For the 2-d and 3-d points used here that is the
    arithmetic of ``np.linalg.norm(a[:, None] - b[None], axis=2)``, so the
    same bits (``tests/test_geometry.py`` pins this at the solver's block
    sizes). Integer coordinates give the distances of their float copies.
    """
    a, b = np.asarray(points_a), np.asarray(points_b)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    return cdist(a, b)


def _slice_rows(m: int, n: int) -> int:
    """Rows per slice of an (m, n) block in :func:`_row_sliced`, or m itself
    when the block is one slice: ``_slice_rows(m, n) < m`` exactly when it
    takes more. The one rule for the slice bound."""
    step = max(4, (_BLOCK_ENTRIES // n - 1) // 4 * 4)
    return m if m <= step + 1 else step


def _row_sliced(block, m: int, n: int) -> np.ndarray:
    """The m values of a product of an (m, n) kernel block with weights, one
    row slice at a time: ``block(a, b)`` returns rows a:b times the weights.

    The slices give the bits of one product over the whole block.
    ``ndarray.dot`` and ``@`` both send a matrix times a vector to BLAS
    gemv, with the same bits, and a single row to a dot product. OpenBLAS's
    gemv takes rows in groups of 4 and the rows left over with kernels that
    sum in another order. So a slice is a multiple of 4 rows, as many as
    fit in :data:`_BLOCK_ENTRIES` entries with one row to spare (4 at
    least), and a last single row joins the slice before it: each row meets
    the kernel it meets in the one product. A slice is too small for
    OpenBLAS to split across threads, so the bits are those of the one
    product on one thread, whatever the thread count. :func:`_slice_rows`
    holds the rule.
    """
    step = _slice_rows(m, n)
    if step == m:          # one slice: its values, with no copy into an output
        return block(0, m)
    out, a = np.empty(m), 0
    for b in range(step, m - 1, step):
        out[a:b] = block(a, b)
        a = b
    out[a:] = block(a, m)
    return out


def _normal_projections(points, normals, sources, r):
    """dr/dn = ((x - s) . n) / r, 0 where point and source coincide: every
    kernel derivative carries a factor that vanishes with r, so the
    convention matches the analytic limits.

    ``points`` and ``normals`` broadcast against ``sources`` to ``r``'s shape
    plus a coordinate axis: (m, 1, d) against (n, d) for an (m, n) block,
    (p, d) against (p, d) for p gathered pairs; an entry is its pair's alone.
    """
    dots = np.einsum("...k,...k->...", points - sources, normals)
    proj = np.zeros_like(r)
    return np.divide(dots, r, out=proj, where=r > COINCIDENT_TOL)


def _nearest_neighbours(positions: np.ndarray, tree: cKDTree, k: int):
    """CSR ``(indices, indptr)`` of each point's k nearest points by exact
    distance (the bits of :func:`pairwise_distances`), ties to the lower
    index; see :meth:`KnotSet.neighbours`.

    The tree gives each point k + 1 candidates. Any k points lie at an
    exact distance of at least the true k-th smallest, so ``kth``, the
    largest exact distance among the first k, bounds every true neighbour.
    The tree's distances round apart from the exact ones by far less than a
    relative 1e-12, so a row whose (k+1)-th candidate lies beyond ``kth`` by
    that margin has no other point within ``kth``: its first k candidates
    are its neighbours. Any other row (a tie, or a near-tie) takes the first
    k of a stable sort, by exact distance, of the points the tree finds
    within ``kth`` plus the margin, in index order, which is the stable
    sort of the whole row.
    """
    far, cand = tree.query(positions, k + 1)   # k = n: the last column is inf
    first = cand[:, :k]
    exact = _row_norms(positions[first] - positions[:, None])
    kth = exact.max(axis=1) * (1.0 + 1e-12)
    indices = np.sort(first, axis=1)
    for i in np.flatnonzero(far[:, k] <= kth):
        ball = np.sort(tree.query_ball_point(positions[i], kth[i]))
        dists = _row_norms(positions[ball] - positions[i])
        indices[i] = np.sort(ball[np.argsort(dists, kind="stable")[:k]])
    indices = indices.ravel()
    indptr = np.arange(0, indices.size + 1, k)
    for arr in (indices, indptr):
        arr.setflags(write=False)
    return indices, indptr


def _checked_count(value, name: str, lo: int, hi=np.inf) -> int:
    """``value`` as an int, the one rule for every count: a whole number (an
    int, a numpy integer or an integral float such as 7.0) from ``lo`` to
    ``hi``. Anything else, 7.5, nan and inf among them, raises ValueError
    naming ``name``."""
    count = float(value)
    if not count.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value}")
    if not lo <= count <= hi:
        bounds = f"at least {lo}" if hi == np.inf else f"{lo} to {hi}"
        raise ValueError(f"{name} out of range: expected {bounds}, got {value}")
    return int(count)


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, by one ufunc reduce (NaN fails)."""
    return np.maximum.reduce(np.abs(a), None, initial=0.0) < np.inf


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis: the squares summed in coordinate
    order, then one square root. That is ``np.linalg.norm(v, axis=-1)``
    without its dispatch, and, for a difference of two points, the bits of
    :func:`pairwise_distances`."""
    return np.sqrt(np.add.reduce(np.square(v), -1))


def _check_pairwise_distinct(dists: np.ndarray):
    """Refuse the closest pair, first in row-major order, of a distance
    matrix if it lies within :data:`COINCIDENT_TOL`."""
    # mask the self-distances in place, then restore their exact zeros
    flat = dists.reshape(-1)
    diagonal = flat[::dists.shape[0] + 1]
    diagonal.fill(np.inf)
    k = flat.argmin()
    nearest = flat[k]
    diagonal.fill(0.0)
    if nearest <= COINCIDENT_TOL:
        _refuse_coincident(*divmod(int(k), dists.shape[0]), nearest)


def _check_distinct_by_tree(positions: np.ndarray, tree: cKDTree):
    """:func:`_check_pairwise_distinct` without the matrix: the tree's pairs
    within twice :data:`COINCIDENT_TOL` hold every pair within it, however
    the tree rounds. Their exact distances pick the same pair, the lowest
    (i, j) of the closest, which is the matrix's first in row-major order."""
    pairs = tree.query_pairs(2 * COINCIDENT_TOL, output_type="ndarray")
    if len(pairs):
        dists = _row_norms(positions[pairs[:, 0]] - positions[pairs[:, 1]])
        first = np.lexsort((pairs[:, 1], pairs[:, 0], dists))[0]
        if dists[first] <= COINCIDENT_TOL:
            _refuse_coincident(*pairs[first], dists[first])


def _refuse_coincident(i, j, distance):
    raise DegenerateGeometryError(
        f"knots {i} and {j} coincide (distance {distance:.3e})")


def ellipse_knots(e: Ellipse, n: int) -> KnotSet:
    """Place n boundary knots on an ellipse at uniform parametric angles.

    Knot k sits at ``e.boundary(t_k)`` with t_k = 2*pi*k/n. The interior list
    is empty; use :meth:`KnotSet.with_interior` to add interior points.
    """
    n = _checked_count(n, "knot count", 1)
    return KnotSet(*e.boundary(2.0 * np.pi * np.arange(n) / n))
