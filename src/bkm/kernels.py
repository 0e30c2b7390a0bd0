"""Radial kernels: non-singular general solutions and the multiquadric pair.

Two kernel families live here. The general solutions (Bessel J0 in 2-d,
sin(r)/r in 3-d) are annihilated by the Helmholtz operator away from the
origin and stay finite at r = 0; they span the homogeneous part of a
solution. The multiquadric pair supplies the particular-solution machinery:
``phi_hat`` is the chosen approximate particular solution and ``phi`` is its
image under the Helmholtz operator in the knots' dimension, so that a
``phi``-interpolant of the forcing lifts to a ``phi_hat`` expansion of a
particular solution.

Bessel J0 and J1 come from ``scipy.special`` (Cephes). Measured against
mpmath on a 160 001-point grid, the absolute error is at most 6.1e-16 on
[0, 200] (4.5e-16 on [0, 20]) and the relative error at most 6e-13 where
|J| > 1e-3; relative error grows near the zeros.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special


# ---------------------------------------------------------------------------
# Bessel J0 / J1
# ---------------------------------------------------------------------------

def _validated_radius(r):
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("radius must be finite")
    if np.any(arr < 0):
        raise ValueError("radius must be non-negative")
    return arr


def _bessel(fn, r):
    arr = _validated_radius(r)
    result = fn(arr)
    return float(result) if arr.ndim == 0 else result


def bessel_j0(r):
    """Bessel function of the first kind, order zero.

    Accepts a scalar or array of radii r >= 0. Absolute error is at most
    6.1e-16 on [0, 200]; relative error is at most 6e-13 where |J0| > 1e-3
    and grows near the zeros of J0.
    """
    return _bessel(special.j0, r)


def bessel_j1(r):
    """Bessel function of the first kind, order one (J1(0) = 0)."""
    return _bessel(special.j1, r)


# ---------------------------------------------------------------------------
# General solutions of the Helmholtz operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralSolution:
    """Radial solution of (laplacian + 1) v = 0, finite at the origin.

    ``value(r)`` evaluates the solution, ``normal_derivative(r, projection)``
    its directional derivative given dr/dn (see
    :func:`bkm.geometry.normal_projection`).
    """

    dimension: int

    def value(self, r):
        r = _validated_radius(r)
        if self.dimension == 2:
            return bessel_j0(r)
        return _sinc(r)

    def normal_derivative(self, r, projection):
        r = _validated_radius(r)
        p = np.asarray(projection, dtype=float)
        if self.dimension == 2:
            return -bessel_j1(r) * p
        return _sinc_derivative(r) * p


def _sinc(r):
    """sin(r)/r with a Taylor branch near the origin."""
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    tiny = arr < 1e-4
    t = arr[tiny]
    out[tiny] = 1.0 - t * t / 6.0 + t**4 / 120.0
    big = arr[~tiny]
    out[~tiny] = np.sin(big) / big
    return float(out[0]) if scalar else out.reshape(np.shape(r))


def _sinc_derivative(r):
    """d/dr of sin(r)/r, i.e. (r cos r - sin r) / r^2, zero at the origin."""
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    tiny = arr < 1e-4
    t = arr[tiny]
    out[tiny] = -t / 3.0 + t**3 / 30.0
    big = arr[~tiny]
    out[~tiny] = (big * np.cos(big) - np.sin(big)) / big**2
    return float(out[0]) if scalar else out.reshape(np.shape(r))


def helmholtz_general_solution(dim: int) -> GeneralSolution:
    """Non-singular general solution of the Helmholtz operator in 2-d or 3-d.

    2-d: J0(r), with radial derivative -J1(r). 3-d: sin(r)/r, value 1 and
    derivative 0 at the origin.
    """
    if dim not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dim}")
    return GeneralSolution(dimension=int(dim))


# ---------------------------------------------------------------------------
# Multiquadric particular-solution pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelPair:
    """Approximate particular solution and its Helmholtz image in d dimensions.

    With s = sqrt(r^2 + c^2):

    * ``phi_hat(r) = s^3`` is the particular-solution basis,
    * ``phi(r, dimension=d) = 3 d s + 3 r^2 / s + s^3`` equals
      ``phi_hat'' + (d - 1) phi_hat'/r + phi_hat`` (radial d-dimensional
      laplacian plus identity applied to phi_hat),
    * ``phi_hat_normal(r, p) = 3 r s p`` is the directional derivative of
      phi_hat given p = dr/dn.

    The first term of ``phi`` carries the square root: applying the operator
    to s^3 directly forces 3 d s, and the operator-consistency tests pin this
    form in 2-d and 3-d as a permanent regression check.
    """

    shape: float

    def __post_init__(self):
        c = float(self.shape)
        if not (np.isfinite(c) and c > 0.0):
            raise ValueError(f"shape parameter must be positive, got {self.shape}")
        object.__setattr__(self, "shape", c)

    @staticmethod
    def _float_like(r):
        # floating dtypes pass through so callers may evaluate in extended
        # precision; everything else becomes float64
        arr = np.asarray(r)
        return arr if arr.dtype.kind == "f" else arr.astype(float)

    def _s(self, r):
        r = self._float_like(r)
        return np.sqrt(r * r + self.shape * self.shape)

    def phi_hat(self, r):
        return self._s(r) ** 3

    def phi(self, r, dimension=2):
        r = self._float_like(r)
        s = self._s(r)
        return (3.0 * dimension) * s + 3.0 * r * r / s + s**3

    def phi_hat_normal(self, r, projection):
        r = self._float_like(r)
        p = self._float_like(projection)
        return 3.0 * r * self._s(r) * p


def mq_pair(c: float) -> KernelPair:
    """Multiquadric kernel pair with shape parameter c > 0."""
    return KernelPair(shape=c)
