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
    """Keep, per row, only the entries of the k nearest knots (self
    included); ``rhs`` is carried over unchanged.

    ``matrix`` is the dense (N, N) array, or a function ``entries(rows,
    cols)`` that returns the system's entries at the given index pairs (rows
    ascending, columns ascending within a row). Either way the entries are
    taken at the kept pairs only, so the solver, which passes a function,
    evaluates its kernels on N k pairs and forms no dense matrix.

    The pattern is :meth:`KnotSet.neighbours`: ties at the k-th distance
    break towards the lower knot index, as a stable sort of each row would.
    Dropped entries are removed outright, with no decay weighting, so kept
    entries are bit-identical to the dense ones and every row keeps exactly
    k of them, zeros included (nnz = N k).

    Cost/memory: the entries and the CSR matrix are O(N k). The pattern is
    one O(N^2) partition of :attr:`KnotSet.distances` (an N x N copy and an
    N x N boolean mask) per knot set and k, kept on the knot set, so both
    systems of a solve share it. A dense ``matrix`` brings its own N^2
    entries. In a truncated solve what stays O(N^2) is the distance matrix,
    that one partition, and the dense ``phi_hat`` block the solver needs
    for ``u_p`` at the knots, which is global.
    """
    n, k = knots.size, int(k)
    if callable(matrix):
        entries = matrix
    else:
        a = np.asarray(matrix, dtype=float)
        if a.shape != (n, n):
            raise ValueError(f"dense matrix of shape {a.shape} does not match "
                             f"the {n} knots")

        def entries(rows, cols):
            return a[rows, cols]

    indices, indptr = knots.neighbours(k)
    rows = np.repeat(np.arange(n), k)
    sparse = sp.csr_matrix((entries(rows, indices), indices, indptr), shape=(n, n))
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
