#!/usr/bin/env python3
"""Sanity check with a field the basis spans exactly, plus mixed data.

If the boundary data is sampled from u*(x) = J0(|x - x*|) with the source
x* outside the domain, the homogeneous solve must reproduce u* everywhere
to solver precision: the target lives in the span of the collocation basis.
The second half feeds Neumann data on half the boundary.
"""
import numpy as np

from bkm import (Ellipse, ProblemSpec, RhoZero, bessel_j0, bessel_j1,
                 ellipse_knots, evaluate, mq_pair, solve_linear)

ellipse = Ellipse(np.zeros(2), 2.0, 1.0)
xstar = np.array([3.0, 2.0])


def u_star(p):
    return bessel_j0(np.linalg.norm(p - xstar, axis=1))


problem = ProblemSpec(forcing=lambda p: np.zeros(len(p)), dirichlet=u_star,
                      rho=RhoZero(), geometry=ellipse)

print(f"Dirichlet data sampled from J0(|x - x*|), x* = ({xstar[0]:g}, {xstar[1]:g})")
for n in (8, 12, 16):
    knots = ellipse_knots(ellipse, n)
    solution = solve_linear(problem, knots, mq_pair(3.0))
    pts = ellipse.interior_samples(200, seed=1)
    err = np.max(np.abs(evaluate(solution, pts) - u_star(pts)))
    print(f"    N = {n:2d}: max interior error {err:.2e}")
print()

# mixed data: Dirichlet on the first half of the knots, Neumann on the rest
knots = ellipse_knots(ellipse, 16).with_dirichlet_count(8)


def neumann_data(p):
    # flux of u* through the ellipse's outward normal at each boundary point
    x, y = (p - ellipse.center).T
    _, normals = ellipse.boundary(np.arctan2(y / ellipse.semi_minor,
                                             x / ellipse.semi_major))
    diff = p - xstar
    r = np.linalg.norm(diff, axis=1)
    proj = np.einsum("ij,ij->i", diff, normals) / r
    return -bessel_j1(r) * proj


mixed = ProblemSpec(forcing=lambda p: np.zeros(len(p)), dirichlet=u_star,
                    neumann=neumann_data, rho=RhoZero(), geometry=ellipse)
solution = solve_linear(mixed, knots, mq_pair(3.0))
pts = ellipse.interior_samples(200, seed=2)
err = np.max(np.abs(evaluate(solution, pts) - u_star(pts)))
print(f"mixed Dirichlet/Neumann data, N = 16: max interior error {err:.2e}")
