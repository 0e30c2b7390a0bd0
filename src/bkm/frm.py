"""Finite RBF method: abrupt truncation of kernel support to k neighbours.

Globally supported RBF systems are dense and increasingly ill-conditioned;
truncating each collocation row to its k nearest knots (no decay weighting,
kept entries identical to the dense ones) yields a sparse banded system that
any sparse direct solver handles. The neighbour relation is generally
asymmetric.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import IllConditionedError
from .geometry import KnotSet

#: Sparse solves must be backward stable to this level: residual relative to
#: |A| |x| + |b|. An rhs-relative gate would spuriously refuse backward-stable
#: solves of ill-conditioned systems that the dense path accepts.
RESIDUAL_TOL = 1e-9


@dataclass
class SparseSystem:
    """Row-truncated collocation system in compressed sparse row form."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    k: int

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def truncate_system(matrix, rhs, knots: KnotSet, k: int) -> SparseSystem:
    """Keep, per row of ``matrix``, only the entries of the k nearest knots
    (self included); ``rhs`` is carried over unchanged.

    Distances are those of :attr:`KnotSet.distances`; ties at the k-th
    distance break towards the lower knot index, as a stable sort of each
    row would. Dropped entries are removed outright, with no decay
    weighting, so kept entries are bit-identical to the dense ones and every
    row keeps exactly k of them, zeros included (nnz = N k).

    Cost: one O(N^2) partition of the distance matrix plus a short stable
    sort for each row with a tie at its k-th distance; memory is the dense
    matrix and one N x N boolean mask.
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"dense matrix must be square, got {a.shape}")
    if knots.size != n:
        raise ValueError(f"knot count {knots.size} does not match system size {n}")
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"neighbour count must satisfy 1 <= k <= {n}, got {k}")

    dists = knots.distances
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1:k]
    keep = dists <= kth
    for i in np.flatnonzero(np.count_nonzero(keep, axis=1) > k):
        # ties at the k-th distance: the candidates are in index order, so a
        # stable sort of them keeps the lower indices
        tied = np.flatnonzero(keep[i])
        keep[i, tied[np.argsort(dists[i, tied], kind="stable")[k:]]] = False

    rows, cols = np.nonzero(keep)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    sparse = sp.csr_matrix((a[rows, cols], cols, indptr), shape=(n, n))
    return SparseSystem(matrix=sparse, rhs=np.asarray(rhs, dtype=float), k=k)


def solve_sparse(system: SparseSystem) -> np.ndarray:
    """Sparse LU solve (partial pivoting) with one refinement step.

    Raises on structural or numerical singularity, and when the refined
    residual is not backward stable at the ``RESIDUAL_TOL`` level.
    """
    m = system.matrix.tocsc()
    if m.shape[0] != m.shape[1]:
        raise ValueError("system must be square")
    try:
        lu = spla.splu(m)
    except RuntimeError as exc:   # SuperLU signals singularity this way
        raise np.linalg.LinAlgError(f"sparse factorisation failed: {exc}") from exc
    x = lu.solve(system.rhs)
    if not np.all(np.isfinite(x)):
        raise np.linalg.LinAlgError("sparse solve produced non-finite values")
    resid = system.rhs - system.matrix @ x
    x = x + lu.solve(resid)
    resid = system.rhs - system.matrix @ x
    backward = np.abs(system.matrix) @ np.abs(x) + np.abs(system.rhs)
    eta = float(np.max(np.abs(resid) / np.maximum(backward, 1e-300)))
    if eta > RESIDUAL_TOL:
        raise IllConditionedError(
            f"sparse solve backward error {eta:.3e} exceeds {RESIDUAL_TOL:.0e}",
            condition=np.inf)
    return x
