#!/usr/bin/env python3
"""Finite support by abrupt truncation: sparse systems from global kernels.

Each collocation row keeps only its k nearest knots; kept entries are
bit-identical to the dense ones (no decay weighting). The result is a
banded sparse matrix a direct sparse solver factors cheaply, and the
interpolant error against the full system shrinks as the support grows.
"""
import numpy as np

from bkm import (Ellipse, build_interpolation_matrix, ellipse_knots, mq_pair,
                 solve_sparse, truncate_system)

ellipse = Ellipse(np.zeros(2), 2.0, 1.0)
knots = ellipse_knots(ellipse, 50)
pair = mq_pair(1.0)
# the dense matrix is formed once here and truncated at several k; the
# solver's frm_k route evaluates the kernels at the N k kept pairs only
matrix = build_interpolation_matrix(knots, pair)

bp = knots.boundary_positions
values = np.sin(bp[:, 0]) + bp[:, 0] * bp[:, 1]

rng = np.random.default_rng(0)
grid = []
while len(grid) < 60:
    p = rng.uniform([-2, -1], [2, 1])
    if (p[0] / 2) ** 2 + p[1] ** 2 < 1:
        grid.append(p)
grid = np.array(grid)
basis = pair.phi(np.linalg.norm(grid[:, None, :] - bp[None, :, :], axis=2))

full = solve_sparse(truncate_system(matrix, values, knots, 50))
reference = basis @ full

print("interpolating sin x + x y on 50 boundary knots, multiquadric c = 1")
print(f"{'k':>4} {'nonzeros':>9} {'fill':>7} {'field error vs full':>20}")
for k in (5, 10, 25, 50):
    system = truncate_system(matrix, values, knots, k)
    x = solve_sparse(system)
    err = np.max(np.abs(basis @ x - reference))
    nnz = system.matrix.nnz
    print(f"{k:4d} {nnz:9d} {nnz / 2500:6.0%} {err:20.3e}")

print()
print("k = 50 keeps every entry, so the sparse solve reproduces the dense")
print("solution; smaller supports trade accuracy for a banded system.")
