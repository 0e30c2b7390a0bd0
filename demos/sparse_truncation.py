#!/usr/bin/env python3
"""Finite support by abrupt truncation: sparse systems from global kernels.

Each collocation row keeps only its k nearest knots; kept entries are
bit-identical to the dense ones (no decay weighting). The result is a
banded sparse matrix a direct sparse solver factors cheaply, and the
interpolant error against the full system shrinks as the support grows.

Against the true solution, though, truncating global multiquadric rows does
not converge: the multiquadric grows with r, so each row drops its largest
entries. The figures printed at the end come from ``bkm bench CASE --knots N
--frm K --format table``. A local method that does converge is RBF-FD
(Wright & Fornberg, J. Comput. Phys. 212 (2006)).
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

grid = ellipse.interior_samples(60, seed=0)
basis = pair.phi(np.linalg.norm(grid[:, None, :] - bp[None, :, :], axis=2))

full = solve_sparse(truncate_system(lambda i, j: matrix[i, j], values, knots, 50))
reference = basis @ full

print("interpolating sin x + x y on 50 boundary knots, multiquadric c = 1")
print(f"{'k':>4} {'nonzeros':>9} {'fill':>7} {'field error vs full':>20}")
for k in (5, 10, 25, 50):
    system = truncate_system(lambda i, j: matrix[i, j], values, knots, k)
    x = solve_sparse(system)
    err = np.max(np.abs(basis @ x - reference))
    nnz = system.matrix.nnz
    print(f"{k:4d} {nnz:9d} {nnz / 2500:6.0%} {err:20.3e}")

print()
print("k = 50 keeps every entry, so the sparse solve reproduces the dense")
print("solution; smaller supports trade accuracy for a banded system.")
print()
print("Against the true solution, truncating global multiquadric rows does")
print("not converge. Largest error at the benchmark reference points:")
print("  table1, N = 16, k = 8: 1.13 (the dense solve: 7.4e-4)")
print("  table1, N = 1000: 5970, 1500, 382, 706 for k = 8, 16, 32, 64")
print("  table2, N = 200: 329, 4110 for k = 8, 16; k = 32 and 64 are refused,")
print("  their truncated fits' condition estimates being 1.6e15 and 3.3e19")
print("The dense solve refuses N = 64, 200 and 1000 as rank-deficient. A local")
print("method that converges is RBF-FD (Wright & Fornberg, JCP 212, 2006).")
