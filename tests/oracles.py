"""Independent reference computations used by the tests.

Everything here deliberately avoids the library's own evaluation paths:
Bessel values come from an extended-precision power-series summation,
derivatives from finite differences, zeros from bisection on the series,
operator-adapted (GSR) kernel blocks from one kernel call per entry, and
linear solves from 40-digit LU. The
reference kernels at the end are the plain whole-array expressions of the
kernel blocks, one temporary per operation, which the library's in-place
evaluation must match bit for bit; a bitwise comparison and an allocation
peak serve the tests that check this, and a switch that puts every knot set
on one side of the distance-matrix cut serves the tests that compare the
two sides.
"""
import contextlib
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy import special

import bkm.geometry

mp.mp.dps = 40


def _series_dps(x) -> int:
    # the alternating series cancels ~0.43 x digits; keep 40 to spare
    return 40 + int(0.45 * abs(float(x)))


def series_j0(x) -> float:
    """J0 by direct power-series summation in high-precision arithmetic."""
    with mp.workdps(_series_dps(x)):
        x = mp.mpf(float(x))
        q = x * x / 4
        term = mp.mpf(1)
        total = mp.mpf(1)
        limit = mp.mpf(10) ** (-_series_dps(x) - 5)
        k = 0
        while abs(term) > limit:
            k += 1
            term = term * (-q) / (k * k)
            total += term
        return float(total)


def series_j1(x) -> float:
    """J1 by direct power-series summation in high-precision arithmetic."""
    with mp.workdps(_series_dps(x)):
        x = mp.mpf(float(x))
        q = x * x / 4
        term = x / 2
        total = term
        limit = mp.mpf(10) ** (-_series_dps(x) - 5)
        k = 0
        while abs(term) > limit:
            k += 1
            term = term * (-q) / (k * (k + 1))
            total += term
        return float(total)


def bisect_zero(fn, lo, hi, iterations=200) -> float:
    """Locate a sign change of fn on [lo, hi] by plain bisection."""
    flo = fn(lo)
    if flo == 0.0:
        return lo
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (flo > 0) == (fm > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fd_laplacian(fn, point, h=1e-4):
    """5-point finite-difference laplacian of a scalar field at one 2-d point."""
    p = np.asarray(point, dtype=float)
    e0 = np.array([h, 0.0])
    e1 = np.array([0.0, h])
    return (fn(p + e0) + fn(p - e0) + fn(p + e1) + fn(p - e1) - 4.0 * fn(p)) / h**2


def fd_radial_laplacian(fn, r, h=1e-5, dim=2):
    """Radial laplacian f'' + (dim-1) f'/r of a radial profile at r > 0."""
    f0 = fn(r)
    fp = fn(r + h)
    fm = fn(r - h)
    second = (fp - 2.0 * f0 + fm) / h**2
    first = (fp - fm) / (2.0 * h)
    return second + (dim - 1) * first / r


def fd_directional(fn, point, direction, h=1e-5):
    """Central difference of a scalar field along a unit direction."""
    p = np.asarray(point, dtype=float)
    d = np.asarray(direction, dtype=float)
    return (fn(p + h * d) - fn(p - h * d)) / (2.0 * h)


def fibonacci_sphere(n, radius=1.0):
    """n near-uniform points on a sphere centred at the origin."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    t = np.pi * (1.0 + 5 ** 0.5) * i
    rho = np.sqrt(1.0 - z * z)
    return radius * np.column_stack([rho * np.cos(t), rho * np.sin(t), z])


def safe_log(r):
    """log r with the removable singularity at 0 filled by its r^2m limit."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    np.log(r, out=out, where=r > 0)
    return out if out.ndim else float(out)


def gsr_kernel_row(kernel, nodes, point):
    """kernel(|point - x_k|, x_k) for each node x_k, one call per entry with
    a scalar distance and the one source node x_k."""
    p = np.asarray(point, dtype=float)
    return np.array([kernel(float(np.linalg.norm(p - x)), x) for x in nodes])


def gsr_bordered_beta(kernel, psi, nodes, values):
    """Coefficients of the constrained GSR fit: the bordered system
    [[A, psi], [psi^T, 0]] with A[i, k] = kernel(|x_i - x_k|, x_k) built entry
    by entry, psi one node at a time, solved by np.linalg.solve."""
    pts = np.asarray(nodes, dtype=float)
    n = len(pts)
    bordered = np.zeros((n + 1, n + 1))
    for i, x in enumerate(pts):
        bordered[i, :n] = gsr_kernel_row(kernel, pts, x)
        bordered[i, n] = bordered[n, i] = psi(x)
    return np.linalg.solve(bordered, np.append(values, 0.0))


def mp_solve(matrix, rhs, dps=40):
    """The exact float64 system A x = b solved by ``mpmath.lu_solve`` at
    ``dps`` digits, rounded to float64; a matrix ``rhs`` column by column.

    Every float64 converts to an mpf exactly, so the answer is that of the
    stage's own matrix and right-hand side, free of its solver's round-off.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    with mp.workdps(dps):
        a_mp = mp.matrix(a.tolist())
        columns = [mp.lu_solve(a_mp, mp.matrix(col.tolist()))
                   for col in b.reshape(len(b), -1).T]
    return np.array([[float(v) for v in col] for col in columns]).T.reshape(b.shape)


# ---------------------------------------------------------------------------
# Bitwise comparison and allocation peaks
# ---------------------------------------------------------------------------

def value_bytes(x):
    """The bytes that encode each value. An x87 long double holds 10 bytes
    padded to 12 or 16, and the padding is arbitrary."""
    a = np.ascontiguousarray(x)
    used = 10 if np.finfo(a.dtype).nmant == 63 else a.itemsize
    return a.view(np.uint8).reshape(-1, a.itemsize)[:, :used].tobytes()


def assert_bit_identical(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.shape(got) == np.shape(want)
    assert value_bytes(got) == value_bytes(want)


def allocation_peak(fn) -> int:
    """Peak bytes traced while fn() runs, after one untraced warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: Block budgets that put every knot set on one side of the cut: "matrix"
#: forms the distance matrix at construction and refuses coincident knots
#: by its argmin; "tree" refuses them with a k-d tree and holds no
#: matrix. The budget also sizes the solver's u_p row slices:
#: one slice on "matrix", 4 rows each on "tree".
KNOT_PATHS = {"matrix": 2**62, "tree": 0}


@contextlib.contextmanager
def every_knot_set_on(path):
    """Knot sets built inside take the ``path`` side of the cut."""
    with pytest.MonkeyPatch.context() as mp_:
        mp_.setattr(bkm.geometry, "_BLOCK_ENTRIES", KNOT_PATHS[path])
        yield


# ---------------------------------------------------------------------------
# Reference kernel blocks: plain expressions with a temporary per operation
# ---------------------------------------------------------------------------

def _mq_float_like(r):
    arr = np.asarray(r)
    return arr if arr.dtype.kind == "f" else arr.astype(float)


def mq_phi_hat(c, r):
    """s^3 as q sqrt(q), with q = r^2 + c^2."""
    r = _mq_float_like(r)
    q = r * r + c * c
    return q * np.sqrt(q)


def mq_phi(c, r, dimension=2):
    """3 d s + 3 r^2 / s + s^3, with s = sqrt(q) and s^3 as q s."""
    r = _mq_float_like(r)
    q = r * r + c * c
    s = np.sqrt(q)
    return (3.0 * dimension) * s + 3.0 * r * r / s + q * s


def mq_phi_hat_normal(c, r, projection):
    """3 r s p."""
    r = _mq_float_like(r)
    p = _mq_float_like(projection)
    return 3.0 * r * np.sqrt(r * r + c * c) * p


def general_solution_normal_derivative(dimension, r, projection):
    """-J1(r) p in 2-d, (sin(r)/r)' p in 3-d; a 0-d radius becomes a float."""
    arr = np.asarray(r, dtype=float)
    if dimension == 2:
        dv = special.j1(arr)
    else:
        dv = special.spherical_jn(0, arr, derivative=True)
    dv = float(dv) if arr.ndim == 0 else dv
    return (-dv if dimension == 2 else dv) * np.asarray(projection, dtype=float)


def normal_projections(points, normals, sources, r, tol):
    """((x - s) . n) / r by boolean-mask gathers, 0 where r <= tol."""
    dots = np.einsum("...k,...k->...", points - sources, normals)
    proj = np.zeros_like(r)
    ok = r > tol
    proj[ok] = dots[ok] / r[ok]
    return proj
