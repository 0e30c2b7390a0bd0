"""Dense LU with 1-norm condition estimates and refusal past a threshold.

Multiquadric collocation matrices are notoriously ill-conditioned, so every
factorisation here produces a condition estimate and raises
:class:`IllConditionedError` instead of silently returning noise once the
estimate passes ``COND_LIMIT``. A single iterative-refinement step is applied
to each solve: its residual is accumulated in extended precision for one
right-hand side, and in float64 BLAS for a matrix of them. The extended
residual b - A x is formed by ``np.dot`` of a bounded block of rows of A
with the ``longdouble`` x, so only those rows are converted and no n x n
long-double copy of the matrix is made. Each row's dot product runs in the
same order as in the whole-matrix ``longdouble`` product, so the residual
has the same bits; ``np.dot`` skips the general matmul loop and is faster.

LAPACK's ``dgetrf`` / ``dgetrs`` / ``dgecon`` are called directly: they are
what ``scipy.linalg.lu_factor`` / ``lu_solve`` call, with the same arguments,
so the results are the same bits without the wrappers' per-call overhead. The
wrappers' checks are kept here: non-finite input raises ``ValueError``, as
does an illegal-argument ``info``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import IllConditionedError

#: Refuse to solve past this 1-norm condition estimate.
COND_LIMIT = 1e14

_LD = np.longdouble

#: Long-double entries of A converted per block of the refinement residual
#: (64 KB). Converting the whole matrix costs n^2 * 16 B per solve, 332 KB
#: at n = 144, more than the float64 matrix itself; matrices of up to 64 x 64
#: fit one block.
_RESIDUAL_BLOCK_ENTRIES = 4096


@dataclass(frozen=True)
class SolveRecord:
    """Diagnostics for one dense factorisation: what, how big, how bad."""

    label: str
    size: int
    condition: float


class FactoredMatrix:
    """LU factorisation with partial pivoting plus a 1-norm condition estimate."""

    def __init__(self, matrix, label="system"):
        a = np.ascontiguousarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise ValueError(f"matrix must be square and non-empty, got shape {a.shape}")
        self.matrix = a
        self.label = label
        # np.linalg.norm(a, 1); it is finite whenever every entry is, unless
        # a column sum overflows, so the entrywise check runs only then
        anorm = np.abs(a).sum(axis=0).max()
        if not np.isfinite(anorm) and not np.isfinite(a).all():
            raise ValueError(f"{label} matrix must not contain infs or NaNs")
        # an exactly zero pivot (info > 0) surfaces as IllConditionedError below
        self._lu, self._piv, info = lapack.dgetrf(a)
        _check_info("dgetrf", info)
        rcond, info = lapack.dgecon(self._lu, anorm, norm="1")
        if info != 0:
            raise np.linalg.LinAlgError(f"condition estimation failed (info={info})")
        self.condition = float(1.0 / rcond) if rcond > 0 else np.inf
        if not np.isfinite(self.condition) or self.condition > COND_LIMIT:
            raise IllConditionedError(
                f"{label} of size {a.shape[0]} is numerically rank-deficient",
                self.condition)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def record(self) -> SolveRecord:
        return SolveRecord(label=self.label, size=self.size, condition=self.condition)

    def solve(self, rhs):
        """Solve A x = rhs for one right-hand side or a matrix of them."""
        b = np.asarray(rhs, dtype=float)
        if b.ndim not in (1, 2) or b.shape[0] != self.size:
            raise ValueError(f"right-hand side of shape {b.shape} does not fit "
                             f"a {self.size} x {self.size} {self.label}")
        if not np.isfinite(b).all():
            raise ValueError("right-hand side must not contain infs or NaNs")
        x = self._lu_solve(b)
        # one refinement step. A matrix of right-hand sides takes a float64
        # BLAS residual, since a long-double matrix product runs outside BLAS;
        # fixed-precision refinement is still componentwise backward stable
        # (Skeel 1980).
        if b.ndim == 1:
            resid = self._extended_residual(b, x)
        else:
            resid = b - self.matrix @ x
        if not np.isfinite(resid).all():
            raise ValueError("refinement residual must not contain infs or NaNs")
        return x + self._lu_solve(resid)

    def _extended_residual(self, b, x):
        """b - A x accumulated in long double, rounded to float64."""
        a, x = self.matrix, x.astype(_LD)
        n = self.size
        rows = max(1, _RESIDUAL_BLOCK_ENTRIES // n)
        resid = np.empty(n)
        for i in range(0, n, rows):
            block = slice(i, i + rows)
            resid[block] = b[block].astype(_LD) - np.dot(a[block], x)
        return resid

    def _lu_solve(self, b):
        x, info = lapack.dgetrs(self._lu, self._piv, b)
        _check_info("dgetrs", info)
        return x


def _check_info(routine, info):
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")

