"""Finite RBF method: abrupt truncation of kernel support to k neighbours.

Globally supported RBF systems are dense and increasingly ill-conditioned;
truncating each collocation row to its k nearest knots (no decay weighting,
kept entries identical to the dense ones) yields a sparse banded system that
any sparse direct solver handles. The neighbour relation is generally
asymmetric. Sparse solves pass the dense path's condition and residual gates.

The sparse LU (``scipy.sparse.linalg``) is imported on the first truncated
solve, so importing this module, or solving densely, does not load it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# frm.RESIDUAL_TOL stays public: it is the dense path's constant
from ._linalg import (RESIDUAL_TOL, SolveRecord, check_condition,  # noqa: F401
                      checked_solve, inverse_norm_estimate)
from .geometry import KnotSet, _checked_count


@dataclass
class SparseSystem:
    """Row-truncated collocation system in compressed sparse row form;
    ``condition`` and ``eta`` are those of its last :func:`solve_sparse`."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    k: int
    label: str = "system"
    condition: float | None = None
    eta: float | None = None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def record(self) -> SolveRecord:
        return SolveRecord(self.label, self.size, self.condition, self.eta)


def truncate_system(entries, rhs, knots: KnotSet, k: int,
                    label: str = "system") -> SparseSystem:
    """Keep, per row, only the entries of the k nearest knots (self
    included); ``rhs`` is carried over unchanged, and ``label`` names the
    system in its record and refusals.

    ``entries(rows, cols)`` returns the system's entries at the given index
    pairs (rows ascending, columns ascending within a row), ``a[rows, cols]``
    for a dense array ``a``. It is called on the kept pairs only, so the
    solver evaluates its kernels on N k pairs and forms no dense matrix.

    The pattern is :meth:`KnotSet.neighbours`: ties at the k-th distance
    break towards the lower knot index, as a stable sort of each row would.
    Dropped entries are removed outright, with no decay weighting, so kept
    entries are bit-identical to the dense ones and every row keeps exactly
    k of them, zeros included (nnz = N k).

    Cost/memory: the entries and the CSR matrix are O(N k). The pattern
    comes from k-d tree queries alone, O(N log N) expected time and O(N k)
    memory per knot set and k, and is kept on the knot set, so both systems
    of a solve share it. A truncated solve holds no N x N array: a set of
    more than 181 knots holds no distance matrix, the solver takes the kept
    pairs' distances from the positions, and it takes ``u_p`` at the knots,
    which is global, as a product over row slices.
    """
    n, k = knots.size, _checked_count(k, "neighbour count", 1, knots.size)
    indices, indptr = knots.neighbours(k)
    rows = np.repeat(np.arange(n), k)
    sparse = sp.csr_matrix((entries(rows, indices), indices, indptr), shape=(n, n))
    return SparseSystem(matrix=sparse, rhs=np.asarray(rhs, dtype=float), k=k,
                        label=label)


def solve_sparse(system: SparseSystem) -> np.ndarray:
    """Sparse LU solve (partial pivoting) through the dense stages' gates:
    ``system.condition`` (|A|_1 times :func:`bkm._linalg.inverse_norm_estimate`,
    at most the exact kappa_1, or inf where SuperLU finds it exactly
    singular) and ``system.eta`` (``checked_solve``), refusing as they do."""
    # SuperLU is imported here: only truncated solves need it, and a dense
    # solve should not pay for loading it
    import scipy.sparse.linalg as spla

    m, a = system.matrix.tocsc(), system.matrix
    n = m.shape[0]
    if n != m.shape[1]:
        raise ValueError("system must be square")
    try:
        lu = spla.splu(m)
    except RuntimeError:   # SuperLU's exactly zero pivot: dense rcond = 0
        system.condition = np.inf
    else:
        # |A|_1 by columns, |A|_inf by rows; as Python floats, a product
        # past 1e308 is inf with no numpy warning
        norm_1 = float(np.add.reduceat(np.abs(m.data), m.indptr[:-1]).max())
        system.condition = norm_1 * inverse_norm_estimate(
            lu.solve, lambda b: lu.solve(b, trans="T"), n)
    check_condition(system.condition, system.label, n)
    norm = np.add.reduceat(np.abs(a.data), a.indptr[:-1]).max()
    x, system.eta = checked_solve(lu.solve, a, norm, system.rhs, system.label,
                                  system.condition)
    return x
