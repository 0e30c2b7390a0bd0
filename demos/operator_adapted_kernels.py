#!/usr/bin/env python3
"""Constructing radial kernels adapted to an operator and its data.

Starting from an operator's general solution g, kernels of the form
r^{2m} g(r) (optionally weighted by the problem's forcing or boundary data)
give interpolants tuned to the problem at hand. Substituting
sqrt(r^2 + c^2) inside g produces the pre-wavelet variants; including time
in the distance gives space-time kernels.
"""
import numpy as np

from bkm import (GsrKernel, constrained_interpolate, evaluate_constrained,
                 timespace_distance)


def safe_log(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    np.log(r, out=out, where=r > 0)
    return out if out.ndim else float(out)


# the bare form with g = log, m = 1 is the thin plate spline
tps = GsrKernel("simple", g=safe_log, m=1)
print("thin plate spline as a special case: r^2 log r")
for r in (0.5, 1.0, 2.0):
    print(f"    r={r}: kernel {tps(r):+.6f}   direct {r*r*np.log(r):+.6f}")
print()

# pre-wavelet variant: finite slope everywhere, same far field
wavelet = GsrKernel("simple", g=safe_log, m=1, prewavelet_c=0.5)
print("pre-wavelet variant r^2 log sqrt(r^2 + c^2), c = 0.5")
for r in (0.0, 0.5, 2.0):
    print(f"    r={r}: {wavelet(r):+.6f}")
print()

# data-weighted kernels for interior / Dirichlet / Neumann source points
forcing = lambda x: 1.0 + x[..., 0]
interior_kernel = GsrKernel("interior", g=safe_log, m=1, forcing=forcing)
dirichlet_kernel = GsrKernel("dirichlet", g=safe_log, m=1,
                             dirichlet=lambda x: 2.0, g_dr=lambda r: 1.0 / r)
src = np.array([0.5, 0.0])
print("data-weighted kernels at source (0.5, 0), r = 1.5:")
print(f"    interior  [f(x) + rho(g)] r^2 g : {interior_kernel(1.5, src):+.6f}")
print(f"    dirichlet D(x) r^2 dg/dr        : {dirichlet_kernel(1.5, src):+.6f}")
print()

# constrained interpolation: kernel part orthogonal to the constraint
rng = np.random.default_rng(3)
nodes = rng.uniform(-1.5, 1.5, size=(12, 2))
target = lambda x: np.sin(x[..., 0]) + 0.5 * x[..., 1] ** 2
values = target(nodes)
fit = constrained_interpolate(nodes, tps, psi=lambda x: 1.0, values=values)
probe = np.array([0.3, -0.4])
print("constrained thin-plate interpolation of sin x + y^2/2 on 12 nodes:")
print(f"    value at ({probe[0]:g}, {probe[1]:g}): "
      f"{evaluate_constrained(fit, probe):+.6f} (target {target(probe):+.6f})")
print(f"    side condition sum(beta_k psi_k) = {fit.side_condition:+.2e}")
print()

# time-space distance treats t like another coordinate
p = ([0.0, 0.0], 0.0)
q = ([3.0, 0.0], 4.0)
d = timespace_distance([*p[0], p[1]], [*q[0], q[1]])
print(f"time-space distance between x={p[0]}, t={p[1]} and x={q[0]}, "
      f"t={q[1]}: {d}")
wave = GsrKernel("wave", g=lambda r: np.exp(-r), m=1,
                 forcing=lambda node: 1.0 + 0.1 * node[..., -1])
print(f"wave-kernel value at that separation: {wave(d, np.array([3.0, 0.0, 4.0])):.6f}")
