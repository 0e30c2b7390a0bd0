"""Dense LU with 1-norm condition estimates and refusal past a threshold.

Multiquadric collocation matrices are notoriously ill-conditioned, so every
factorisation here produces a condition estimate and raises
:class:`IllConditionedError` instead of silently returning noise once the
estimate passes ``COND_LIMIT``. A single iterative-refinement step with an
extended-precision residual is applied to each solve.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import IllConditionedError

#: Refuse to solve past this 1-norm condition estimate.
COND_LIMIT = 1e14

_LD = np.longdouble


@dataclass(frozen=True)
class SolveRecord:
    """Diagnostics for one dense factorisation: what, how big, how bad."""

    label: str
    size: int
    condition: float


@dataclass
class DenseSystem:
    """An assembled dense collocation system A x = b."""

    matrix: np.ndarray
    rhs: np.ndarray | None = None


class FactoredMatrix:
    """LU factorisation with partial pivoting plus a 1-norm condition estimate."""

    def __init__(self, matrix, label="system", cond_limit=COND_LIMIT):
        a = np.ascontiguousarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        self.matrix = a
        self.label = label
        anorm = np.linalg.norm(a, 1)
        with warnings.catch_warnings():
            # exact singularity surfaces as IllConditionedError below
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            self._lu, self._piv = sla.lu_factor(a)
        rcond, info = lapack.dgecon(self._lu, anorm, norm="1")
        if info != 0:
            raise np.linalg.LinAlgError(f"condition estimation failed (info={info})")
        self.condition = float(1.0 / rcond) if rcond > 0 else np.inf
        if not np.isfinite(self.condition) or self.condition > cond_limit:
            raise IllConditionedError(
                f"{label} of size {a.shape[0]} is numerically rank-deficient",
                self.condition)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def record(self) -> SolveRecord:
        return SolveRecord(label=self.label, size=self.size, condition=self.condition)

    def solve(self, rhs, refine=True):
        """Solve A x = rhs for one right-hand side or a matrix of them."""
        b = np.asarray(rhs, dtype=float)
        x = sla.lu_solve((self._lu, self._piv), b)
        if refine:
            # one refinement step; residual accumulated in extended precision
            a_ld = self.matrix.astype(_LD)
            resid = (b.astype(_LD) - a_ld @ x.astype(_LD)).astype(float)
            x = x + sla.lu_solve((self._lu, self._piv), resid)
        return x


def solve_checked(matrix, rhs, label="system", cond_limit=COND_LIMIT):
    """Factor, solve and return (solution, SolveRecord)."""
    f = FactoredMatrix(matrix, label=label, cond_limit=cond_limit)
    return f.solve(rhs), f.record()
