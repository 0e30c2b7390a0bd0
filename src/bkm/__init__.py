"""Boundary knot method: meshless RBF collocation for Helmholtz-type problems.

The method collocates boundary data in a basis of non-singular general
solutions (Bessel J0 in 2-d), absorbing inhomogeneous terms through
dual-reciprocity particular solutions built on multiquadric kernels. No
mesh, no integration, no fictitious boundary; with boundary knots only,
certain nonlinear equations reduce to a single linear solve.
"""
from ._linalg import COND_LIMIT, SolveRecord
from .bench import (BenchmarkCase, ErrorReport, convergence_sweep, named_case,
                    report_csv_lines, report_table_lines, run_case,
                    table1_case, table2_case)
from .drm import (DrmFit, build_interpolation_matrix, evaluate_particular,
                  evaluate_particular_normal)
from .errors import BkmError, DegenerateGeometryError, IllConditionedError
from .frm import SparseSystem, solve_sparse, truncate_system
from .geometry import Ellipse, KnotSet, ellipse_knots
from .gsr import (ConstrainedFit, GsrKernel, constrained_interpolate,
                  evaluate_constrained, timespace_distance)
from .kernels import GeneralSolution, KernelPair, bessel_j0, bessel_j1, mq_pair
from .solver import (BkmSolution, ProblemSpec, RhoBoundaryNonlinear, RhoLinear,
                     RhoZero, assemble_homogeneous_rows, evaluate,
                     evaluate_homogeneous, solve_linear,
                     solve_nonlinear_boundary_only)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkCase", "BkmError", "BkmSolution", "COND_LIMIT",
    "ConstrainedFit", "DegenerateGeometryError", "DrmFit",
    "Ellipse", "ErrorReport", "GeneralSolution", "GsrKernel",
    "IllConditionedError", "KernelPair", "KnotSet",
    "ProblemSpec", "RhoBoundaryNonlinear", "RhoLinear", "RhoZero",
    "SolveRecord", "SparseSystem", "assemble_homogeneous_rows", "bessel_j0",
    "bessel_j1", "build_interpolation_matrix", "constrained_interpolate",
    "convergence_sweep", "ellipse_knots", "evaluate", "evaluate_constrained",
    "evaluate_homogeneous", "evaluate_particular",
    "evaluate_particular_normal", "mq_pair", "named_case", "report_csv_lines",
    "report_table_lines", "run_case", "solve_linear",
    "solve_nonlinear_boundary_only", "solve_sparse", "table1_case",
    "table2_case", "timespace_distance", "truncate_system",
]
