"""Checked linear solves: one 1-norm condition gate and one backward-error
gate for every dense and sparse stage.

Multiquadric collocation matrices are notoriously ill-conditioned, so every
factorisation (dense: ``dgecon``; sparse: :func:`inverse_norm_estimate`)
estimates its condition and refuses past ``COND_LIMIT``.
Every solve then passes :func:`checked_solve`, which measures the normwise
backward error (Rigal & Gaches, J. ACM 14, 1967). LU with partial pivoting
keeps it near eps unless its pivots grow large (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., §7.1, ch. 9 and 12), and one
float64 refinement step repairs large growth (Skeel, Math. Comp. 35, 1980).
The measure is normwise because a componentwise one refuses exact answers
whose zero entries meet zero right-hand-side entries.

LAPACK's ``dgetrf`` / ``dgetrs`` / ``dgecon`` are called directly: they are
what ``scipy.linalg.lu_factor`` / ``lu_solve`` call, with the same arguments,
so the results are the same bits without the wrappers' per-call overhead. The
wrappers' checks are kept here: non-finite input raises ``ValueError``, as
does an illegal-argument ``info``.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .errors import IllConditionedError

#: Refuse to solve past this 1-norm condition estimate.
COND_LIMIT = 1e14

#: Refuse a solve whose backward error exceeds this after one refinement step.
RESIDUAL_TOL = 1e-9


class SolveRecord(NamedTuple):
    """Diagnostics for one factorisation: its 1-norm condition estimate and
    the largest backward error ``eta`` of its solves; a named tuple, which
    builds in half a frozen dataclass's time."""

    label: str
    size: int
    condition: float | None
    eta: float


def check_condition(condition, label, size):
    """Refuse the ``label`` stage past ``COND_LIMIT`` (inf and NaN included)."""
    if not condition <= COND_LIMIT:
        raise IllConditionedError(
            f"{label} of size {size} is numerically rank-deficient", condition)


def inverse_norm_estimate(solve, solve_transposed, n):
    """Hager-Higham lower bound on |A^-1|_1 from ``solve(b)`` = A^-1 b and
    ``solve_transposed(b)`` = A^-T b: LAPACK ``dlacn2``'s deterministic
    iteration, which scipy does not expose (Higham, ACM TOMS 14, 1988)."""
    y = solve(np.full(n, 1.0 / n))
    est, sign = np.abs(y).sum(), np.where(y >= 0.0, 1.0, -1.0)
    j = np.abs(solve_transposed(sign)).argmax()
    for _ in range(4):                  # dlacn2's ITMAX = 5 sweeps in all
        y = solve(np.eye(1, n, j)[0])   # column j of A^-1
        est_old, est, new_sign = est, np.abs(y).sum(), np.where(y >= 0.0, 1.0, -1.0)
        if est <= est_old or (new_sign == sign).all():
            break
        sign, z = new_sign, solve_transposed(new_sign)
        j_last, j = j, np.abs(z).argmax()
        if z[j_last] == abs(z[j]):
            break
    alternating = np.linspace(1.0, 2.0, n) * (-1.0) ** np.arange(n)
    return float(max(est, 2.0 * np.abs(solve(alternating)).sum() / (3 * n)))


def checked_solve(solve, matrix, norm, rhs, label, condition):
    """``solve(rhs)`` and its normwise backward error
    eta = |b - A x| / (|A| |x| + |b|) in the infinity norm, the largest over
    the columns of a matrix ``rhs``; ``norm`` is |A|. Refines once in float64
    only if eta exceeds ``RESIDUAL_TOL``; if it still does, raises
    :class:`IllConditionedError` naming ``label`` and carrying ``condition``.
    A non-finite x raises ``LinAlgError`` before eta is formed.
    """
    # column maxima by ufunc reduces (ndarray.max adds a Python frame)
    rhs_norm = np.maximum.reduce(np.abs(rhs), 0)
    x = solve(rhs)
    for may_refine in (True, False):
        x_norm = np.maximum.reduce(np.abs(x), 0)
        if not np.maximum.reduce(x_norm, None, initial=0.0) < np.inf:  # inf or NaN
            raise np.linalg.LinAlgError(f"{label} solve produced non-finite values")
        resid = rhs - matrix.dot(x)
        scale = norm * x_norm + rhs_norm + 1e-300   # eta = 0 where x = b = 0
        # one max over all |r| / scale: division by a positive scale is monotone
        eta = float(np.maximum.reduce(np.abs(resid) / scale, None, initial=0.0))
        if eta <= RESIDUAL_TOL:
            return x, eta
        if may_refine:
            x = x + solve(resid)
    raise IllConditionedError(f"{label} solve backward error {eta:.3e} exceeds "
                              f"{RESIDUAL_TOL:.0e}", condition)


class FactoredMatrix:
    """LU factorisation with partial pivoting plus a 1-norm condition estimate."""

    def __init__(self, matrix, label="system"):
        a = np.ascontiguousarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise ValueError(f"matrix must be square and non-empty, got shape {a.shape}")
        self.matrix, self.size, self.label = a, a.shape[0], label
        self.eta = 0.0          # the largest backward error of its solves
        # |a|_1 = |a.T|_inf for dgecon, |a|_inf for eta: dlange on the Fortran view
        # a.T, no copy. Finite when every entry is, unless a sum overflows
        anorm, self._norm_inf = lapack.dlange("I", a.T), lapack.dlange("1", a.T)
        if not anorm < np.inf and not np.isfinite(a).all():
            raise ValueError(f"{label} matrix must not contain infs or NaNs")
        # an exactly zero pivot (info > 0) surfaces as IllConditionedError below
        self._lu, self._piv, info = lapack.dgetrf(a)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgetrf")
        rcond, info = lapack.dgecon(self._lu, anorm, "1")
        if info != 0:
            raise np.linalg.LinAlgError(f"condition estimation failed (info={info})")
        self.condition = float(1.0 / rcond) if rcond > 0 else np.inf
        check_condition(self.condition, label, self.size)

    def record(self) -> SolveRecord:
        return SolveRecord(self.label, self.size, self.condition, self.eta)

    def solve(self, rhs):
        """Solve A x = rhs for one right-hand side or a matrix of them.

        An inf or a NaN in rhs raises ``ValueError``: LU substitution carries
        it into x, whose check in :func:`checked_solve` fails; then rhs is read."""
        b = np.asarray(rhs, dtype=float)
        if b.ndim not in (1, 2) or b.shape[0] != self.size:
            raise ValueError(f"right-hand side of shape {b.shape} does not fit "
                             f"a {self.size} x {self.size} {self.label}")
        try:
            x, eta = checked_solve(self._lu_solve, self.matrix, self._norm_inf, b,
                                   self.label, self.condition)
        except np.linalg.LinAlgError:
            if not np.isfinite(b).all():
                raise ValueError(
                    "right-hand side must not contain infs or NaNs") from None
            raise
        self.eta = max(self.eta, eta)
        return x

    def _lu_solve(self, b):
        x, info = lapack.dgetrs(self._lu, self._piv, b)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgetrs")
        return x
