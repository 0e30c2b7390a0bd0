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
|J| > 1e-3; relative error grows near the zeros. The 3-d sin(r)/r and its
derivative are ``scipy.special.spherical_jn`` of order 0: against mpmath on
[0, 200] plus a geometric grid on [1e-6, 2], both are within 4e-16
absolute, with no cancellation in the derivative near the origin.

Every dense kernel block is one output buffer of the block's shape, filled
by in-place ufuncs (``out=``). ``phi_hat`` needs no other block-sized array
(given ``out=r``, not even its own, and then it checks r alone), only the
square root of one slice of at most 8192 entries (64 KB of float64) at a
time; ``phi_hat_normal`` needs one more block (s) and ``phi`` two more;
``normal_derivative`` negates and scales the derivative's own array. The
cube s^3 is formed as q * sqrt(q) with q = r^2 + c^2: ``sqrt`` and ``*``
are correctly rounded, so a scalar, a 0-d array and an entry of any block
give the same bits on every IEEE host, where ``pow`` need not. The
in-place forms apply the same floating-point operations in the same order
as the plain expressions in the docstrings, so they give the same bits.
A 0-d or scalar radius still returns a numpy scalar, as a plain
expression on it would.

A block-sized temporary can cost more than its arithmetic: allocated and
freed on every call, it can move glibc's heap top or take fresh mmap
pages, and each page the kernel hands back is a minor fault. On a solve
with 144 knots and a 256-point evaluation (2-vCPU x86-64 guest, glibc
defaults), a ``phi_hat`` that held its output block plus an unsliced
``np.sqrt(q)`` took 184 minor faults per solve-and-evaluate in 6 of 6
fresh processes; with 64 KB slices it took none. Hence the slices.
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
    # one min and one max over all axes (NaN fails both comparisons), as
    # ufunc reduces, which run no Python frame where arr.min() runs one; the
    # detailed check that picks the message runs only on failure
    if arr.size and not (np.minimum.reduce(arr, None) >= 0.0
                         and np.maximum.reduce(arr, None) < np.inf):
        if not np.isfinite(arr).all():
            raise ValueError("radius must be finite")
        raise ValueError("radius must be non-negative")
    return arr


def _bessel(fn, r):
    arr = _validated_radius(r)
    result = fn(arr)
    return float(result) if arr.ndim == 0 else result


def _scalar_or_array(out):
    # given out=, a ufunc returns that array even when it is 0-d, where a
    # plain expression on a 0-d array returns a numpy scalar
    return out if out.ndim else out[()]


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
    """Radial solution of (laplacian + 1) v = 0, finite at the origin, in
    ``dimension`` 2 or 3.

    2-d: J0(r), with radial derivative -J1(r). 3-d: sin(r)/r, value 1 and
    derivative 0 at the origin. ``value(r)`` evaluates the solution,
    ``normal_derivative(r, projection)`` its directional derivative given
    dr/dn (see :func:`bkm.geometry._normal_projections`), which broadcasts
    to r's shape.
    """

    dimension: int

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension}")
        object.__setattr__(self, "dimension", int(self.dimension))

    def value(self, r):
        if self.dimension == 2:
            return bessel_j0(r)
        return _bessel(lambda a: special.spherical_jn(0, a), r)   # sin(r)/r

    def normal_derivative(self, r, projection):
        # the derivative's fresh array (a 0-d one for a 0-d r) is the output
        if self.dimension == 2:
            out = np.asarray(bessel_j1(r))
            np.negative(out, out=out)
        else:
            out = np.asarray(_bessel(
                lambda a: special.spherical_jn(0, a, derivative=True), r))
        out *= np.asarray(projection, dtype=float)
        return _scalar_or_array(out)


# ---------------------------------------------------------------------------
# Multiquadric particular-solution pair
# ---------------------------------------------------------------------------

#: Entries per slice of the cube; a slice's square root is 64 KB of float64.
_CUBE_SLICE = 8192


def _s_cubed(q):
    """s^3 = q * sqrt(q) in place over the C-contiguous q, one slice of at
    most ``_CUBE_SLICE`` entries at a time, so that the square root's
    temporary stays small; a q that fits one slice is taken whole."""
    if q.size <= _CUBE_SLICE:
        q *= np.sqrt(q)
        return q
    flat = q.reshape(-1)
    for lo in range(0, flat.size, _CUBE_SLICE):
        part = flat[lo:lo + _CUBE_SLICE]
        part *= np.sqrt(part)
    return q


@dataclass(frozen=True)
class KernelPair:
    """Approximate particular solution and its Helmholtz image in d dimensions.

    With s = sqrt(r^2 + c^2):

    * ``phi_hat(r) = s^3`` is the particular-solution basis, formed as
      q sqrt(q) with q = r^2 + c^2,
    * ``phi(r, dimension=d) = 3 d s + 3 r^2 / s + s^3`` equals
      ``phi_hat'' + (d - 1) phi_hat'/r + phi_hat`` (radial d-dimensional
      laplacian plus identity applied to phi_hat),
    * ``phi_hat_normal(r, p) = 3 r s p`` is the directional derivative of
      phi_hat given p = dr/dn, which broadcasts to r's shape.

    The first term of ``phi`` carries the square root: applying the operator
    to s^3 directly forces 3 d s, and the operator-consistency tests pin this
    form in 2-d and 3-d as a permanent regression check.
    """

    shape: float

    def __post_init__(self):
        c = float(self.shape)
        if not 0.0 < c < np.inf:         # NaN fails both comparisons
            raise ValueError(f"expected a finite shape parameter above 0, "
                             f"got {self.shape}")
        object.__setattr__(self, "shape", c)

    @staticmethod
    def _float_like(r):
        # floating dtypes pass through so callers may evaluate in extended
        # precision; everything else becomes float64
        arr = np.asarray(r)
        return arr if arr.dtype.kind == "f" else arr.astype(float)

    def _q(self, r, out=None):
        """q = r*r + c*c into ``out`` or a fresh array; r is from _float_like."""
        out = np.multiply(r, r, out=out)
        out += self.shape * self.shape
        return out

    def _s(self, r):
        """sqrt(r*r + c*c) in a fresh buffer; r has been through _float_like."""
        s = self._q(r, np.empty_like(r))
        return np.sqrt(s, out=s)

    def phi_hat(self, r, out=None):
        """q * sqrt(q), q = r*r + c*c. ``out``, if given, is a C-contiguous
        array of r's shape and float dtype, r itself allowed; it is
        returned, as a ufunc returns its ``out``."""
        if out is None:
            r = self._float_like(r)
            return _scalar_or_array(_s_cubed(self._q(r, np.empty(r.shape, r.dtype))))
        if out is not r:      # given out=r, the checks on out check r
            r = self._float_like(r)
        if not (isinstance(out, np.ndarray) and out.dtype.kind == "f"
                and out.flags.c_contiguous
                and (out is r or out.shape == r.shape and out.dtype == r.dtype)):
            raise ValueError("out must be a C-contiguous array of the "
                             "radii's shape and float dtype")
        return _s_cubed(self._q(r, out))

    def phi(self, r, dimension=2):
        # ((3 d) s + ((3 r) r) / s) + q s, term by term in that order, summed
        # in s's buffer; the last term is phi_hat's q * sqrt(q), sqrt(q) being s
        r = self._float_like(r)
        q = self._q(r)
        s = np.sqrt(q)
        t = np.multiply(r, 3.0)
        t *= r
        t /= s
        q *= s
        s *= 3.0 * dimension
        s += t
        s += q
        return _scalar_or_array(s)

    def phi_hat_normal(self, r, projection):
        # ((3 r) s) p
        r = self._float_like(r)
        p = self._float_like(projection)
        out = np.multiply(r, 3.0, out=np.empty_like(r, dtype=np.result_type(r, p)))
        # (3 r) s rounds in r's precision even when p is wider
        np.multiply(out, self._s(r), out=out, dtype=r.dtype)
        out *= p
        return _scalar_or_array(out)


def mq_pair(c: float) -> KernelPair:
    """Multiquadric kernel pair with shape parameter c > 0."""
    return KernelPair(shape=c)
