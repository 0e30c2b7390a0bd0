"""Independent reference computations used by the tests.

Everything here deliberately avoids the library's own evaluation paths:
Bessel values come from an extended-precision power-series summation,
derivatives from finite differences, zeros from bisection on the series, and
operator-adapted (GSR) kernel blocks from one kernel call per entry.
"""
import mpmath as mp
import numpy as np

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
