"""Operator-adapted RBF constructors and constrained interpolation.

Given the general solution g of an operator, radial basis functions can be
manufactured that bake in both the operator and the problem data: interior
kernels absorb the forcing, boundary kernels the Dirichlet or Neumann data,
and a smoothing factor r^{2m} keeps everything differentiable at the source.
Substituting sqrt(r^2 + c^2) for the radius inside g turns any of them into
a pre-wavelet variant; time-dependent problems get kernels whose distance
treats t as one more coordinate.

Every data callable (``forcing``, ``dirichlet``, ``neumann``, ``psi``) takes
points with their coordinates on the last axis, one ``(d,)`` or a batch
``(n, d)``, and returns a value per point or a constant. ProblemSpec's data
callables may not return a constant: a solve refuses any result but one
value per point. Write coordinates as ``x[..., j]``: ``x[j]`` reads the j-th
point of a batch. Time, for the time-dependent kinds, is the last coordinate.

This module only constructs kernels and interpolates with them; no
collocation solver is built on top.
"""
from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from typing import Callable, Optional

import numpy as np

from ._linalg import FactoredMatrix
from .drm import _at_points
from .geometry import _checked_count, pairwise_distances

#: The callables each kind needs besides g; its keys are ``KINDS``.
_REQUIRED = {"interior": (), "dirichlet": ("dirichlet", "g_dr"),
             "neumann": ("neumann",), "simple": (), "wave": ("forcing",),
             "extended_helmholtz": ("forcing", "g_tt"), "transient": ("forcing",)}

KINDS = tuple(_REQUIRED)

#: Kinds eligible for the pre-wavelet radius substitution.
_PREWAVELET_KINDS = ("interior", "dirichlet", "neumann", "simple")


@dataclass(frozen=True)
class GsrKernel:
    """An evaluable operator-adapted radial kernel.

    Construct as ``GsrKernel(kind, g, m=..., ...)``: every field after ``g``
    is keyword-only, and construction refuses any input the parameters below
    rule out. Call with ``kernel(r, sources)``: a distance and one source
    node ``(d,)``, or an (m, n) distance block and the n nodes ``(n, d)``
    whose data weight its columns (see the module docstring). Kinds without
    data ignore them.

    Parameters
    ----------
    kind : one of ``KINDS``
        ``interior`` multiplies [f(x) + rho(g(r))] onto the smoothed general
        solution; ``dirichlet``/``neumann`` weight the data functions onto
        the radial derivative / value; ``simple`` is the bare r^{2m} g(r)
        (thin plate spline for g = log, m = 1); ``wave``, ``extended_helmholtz``
        and ``transient`` are the time-dependent forms.
    g : callable
        The operator's general solution; for ``transient`` it takes (r, t).
    m : non-negative whole number
        Smoothness exponent of the r^{2m} factor (t^{2m} for ``transient``);
        m = 0 drops it, as distinct source and response sets allow.
    prewavelet_c : float >= 0
        If positive, evaluates g at sqrt(r^2 + c^2) instead of r. Available
        for the four space kinds; c = 0 recovers the plain kernel.

    A kind needs the data it reads: ``dirichlet`` needs dirichlet and g_dr,
    ``neumann`` neumann, the time-dependent kinds a forcing, and
    ``extended_helmholtz`` also g_tt and a finite, nonzero wave_speed.
    ``interior`` adds a forcing and rho_of_g when they are given. Any
    callable field may otherwise be None, but nothing else.
    """

    kind: str
    g: Callable
    _: KW_ONLY
    m: int = 1
    forcing: Optional[Callable] = None           # f(x) or f(x, t) via the nodes
    dirichlet: Optional[Callable] = None
    neumann: Optional[Callable] = None
    rho_of_g: Optional[Callable] = None          # remaining operator applied to g
    g_dr: Optional[Callable] = None              # dg/dr
    g_tt: Optional[Callable] = None              # second time derivative of g
    prewavelet_c: float = 0.0
    wave_speed: Optional[float] = None           # finite and nonzero

    def __post_init__(self):
        kind = self.kind
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        needed = ("g",) + _REQUIRED[kind]
        for name in ("g", "forcing", "dirichlet", "neumann", "rho_of_g", "g_dr", "g_tt"):
            fn = getattr(self, name)
            if not callable(fn) and (fn is not None or name in needed):
                raise ValueError(f"kind={kind!r}: {name} must be callable, got {fn!r}")
        m = _checked_count(self.m, "smoothness exponent m", 0)
        c = float(self.prewavelet_c)
        if not (np.isfinite(c) and c >= 0.0):
            raise ValueError(f"prewavelet_c must be finite and non-negative, got {c}")
        if c > 0.0 and kind not in _PREWAVELET_KINDS:
            raise ValueError(f"the pre-wavelet substitution applies to kinds "
                             f"{_PREWAVELET_KINDS}, not {kind!r}")
        speed = self.wave_speed
        if kind == "extended_helmholtz" and not 0 < abs(float(speed or 0)) < np.inf:
            raise ValueError(f"wave_speed must be finite and nonzero, got {speed}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "prewavelet_c", c)

    def __call__(self, r, sources=None):
        r = np.asarray(r, dtype=float)
        if self.kind == "extended_helmholtz":
            h = self.g(r)
            bracket = self.forcing(sources) + h + \
                (1.0 + 1.0 / self.wave_speed**2) * self.g_tt(r)
            return h * bracket
        if self.kind == "transient":
            t = np.asarray(sources, dtype=float)[..., -1]
            return t ** (2 * self.m) * self.g(r, t) * self.forcing(sources)
        power = r ** (2 * self.m)
        if self.kind == "wave":
            return power * self.g(r) * self.forcing(sources)
        s = np.sqrt(r**2 + self.prewavelet_c**2) if self.prewavelet_c > 0.0 else r
        if self.kind == "simple":
            return power * self.g(s)
        if self.kind == "interior":
            data = self.forcing(sources) if self.forcing is not None else 0.0
            if self.rho_of_g is not None:
                data = data + self.rho_of_g(s)
            return data * power * self.g(s)
        if self.kind == "dirichlet":
            return self.dirichlet(sources) * power * self.g_dr(s)
        return self.neumann(sources) * power * self.g(s)


def timespace_distance(p, q) -> float:
    """Euclidean distance over concatenated space-time coordinates."""
    a = np.atleast_1d(np.asarray(p, dtype=float))
    b = np.atleast_1d(np.asarray(q, dtype=float))
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("coordinates must be finite")
    return float(pairwise_distances(a[None], b[None])[0, 0])


@dataclass(frozen=True)
class ConstrainedFit:
    """Interpolation coefficients with the orthogonality side condition.

    ``beta[:-1]`` weights the kernel centred at each node, ``beta[-1]`` the
    constraint function psi; the side condition sum(beta_k psi(x_k)) = 0
    makes the kernel part orthogonal to psi.
    """

    beta: np.ndarray
    psi: Callable
    nodes: np.ndarray
    kernel: GsrKernel

    @property
    def side_condition(self) -> float:
        return float(self.beta[:-1] @ _on_points(self.psi, self.nodes))


def constrained_interpolate(nodes, kernel: GsrKernel, psi: Callable,
                            values) -> ConstrainedFit:
    """Fit values at nodes with kernel terms plus a psi term, constrained.

    Solves the bordered system [[A, psi], [psi^T, 0]] [beta; beta_{N+1}] =
    [values; 0] where A[i, k] = kernel(|x_i - x_k|, x_k). Raises
    :class:`IllConditionedError` when the bordered matrix is singular.
    """
    pts = np.atleast_2d(np.asarray(nodes, dtype=float))
    vals = np.asarray(values, dtype=float)
    n = pts.shape[0]
    if n < 1:
        raise ValueError("at least one node is required")
    if vals.shape != (n,):
        raise ValueError(f"values must have length {n}")

    psi_vals = _on_points(psi, pts)
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = kernel(pairwise_distances(pts, pts), pts)
    bordered[:n, n] = psi_vals
    bordered[n, :n] = psi_vals
    rhs = np.concatenate([vals, [0.0]])
    beta = FactoredMatrix(bordered, label="bordered interpolation").solve(rhs)
    return ConstrainedFit(beta=beta, psi=psi, nodes=pts, kernel=kernel)


def evaluate_constrained(fit: ConstrainedFit, x):
    """The constrained representation at a point (a float) or (m, d) points,
    its kernel terms over :func:`bkm.drm._at_points`'s checked blocks."""
    p = np.asarray(x, dtype=float)
    if p.ndim > 2 or not np.isfinite(p).all():
        raise ValueError("expected a point or (m, d) points, with finite coordinates")
    pts, nodes = np.atleast_2d(p), fit.nodes
    if pts.shape[1] != nodes.shape[1]:
        raise ValueError(f"dimension mismatch: {pts.shape[1]} vs {nodes.shape[1]}")
    terms = _at_points(pts, nodes, lambda r: fit.kernel(r, nodes) @ fit.beta[:-1])
    u = fit.beta[-1] * _on_points(fit.psi, pts) + terms
    return float(u[0]) if p.ndim < 2 else u


def _on_points(fn, points):
    """A data callable on an (n, d) batch of points, as n values."""
    return np.broadcast_to(np.asarray(fn(points), dtype=float), points.shape[:1])
