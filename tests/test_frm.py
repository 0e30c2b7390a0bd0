import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import bkm.geometry
import bkm.solver
import bkm._linalg
from bkm._linalg import RESIDUAL_TOL, FactoredMatrix, SolveRecord
from bkm.drm import build_interpolation_matrix
from bkm.errors import BkmError, IllConditionedError
from bkm.frm import SparseSystem, solve_sparse, truncate_system
from bkm.geometry import Ellipse, KnotSet, ellipse_knots, pairwise_distances
from bkm.kernels import GeneralSolution, mq_pair
from bkm.solver import ProblemSpec, assemble_homogeneous_rows, solve_linear
from oracles import allocation_peak, fibonacci_sphere

ELL = Ellipse(np.zeros(2), 2.0, 1.0)

#: Prints whether the sparse LU module is loaded after a dense solve, then
#: after a truncated one.
_SPARSE_LU_LOADED = """
import sys
import numpy as np
import bkm
ks = bkm.ellipse_knots(bkm.Ellipse(np.zeros(2), 2.0, 1.0), 7)
problem = bkm.ProblemSpec(forcing=lambda p: p[:, 0],
                          dirichlet=lambda p: np.sin(p[:, 0]) + p[:, 0])
for frm_k in (None, 7):
    bkm.solve_linear(problem, ks, bkm.mq_pair(3.0), frm_k=frm_k)
    print("scipy.sparse.linalg" in sys.modules)
"""


def test_only_a_truncated_solve_loads_the_sparse_lu():
    # a fresh interpreter: this one has loaded it already
    src = str(Path(bkm.geometry.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _SPARSE_LU_LOADED], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.split() == ["False", "True"]


def test_solve_sparse_refuses_a_non_square_system():
    system = SparseSystem(matrix=sp.csr_matrix(np.ones((2, 3))), rhs=np.ones(2), k=1)
    with pytest.raises(ValueError, match="system must be square"):
        solve_sparse(system)


def test_solve_sparse_refuses_a_non_finite_solution():
    system = SparseSystem(matrix=sp.csr_matrix(np.eye(3)),
                          rhs=np.array([1.0, np.inf, 0.0]), k=1)
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        solve_sparse(system)


def mq_system(n, c=1.0, seed=1):
    ks = ellipse_knots(ELL, n)
    matrix = build_interpolation_matrix(ks, mq_pair(c))
    rng = np.random.default_rng(seed)
    rhs = matrix @ rng.uniform(-1.0, 1.0, n)
    return ks, matrix, rhs


def truncation_oracle(knots, k):
    """Reference pattern: a stable argsort of each row's distances."""
    pts = knots.all_positions
    dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    keep = np.zeros(dists.shape, dtype=bool)
    for i in range(len(pts)):
        order = np.argsort(dists[i], kind="stable")   # stable sort: ties by index
        keep[i, order[:k]] = True
    return keep


def scattered_knots():
    pos = np.random.default_rng(11).uniform([-2, -1], [2, 1], size=(16, 2))
    return KnotSet(pos, np.tile([1.0, 0.0], (16, 1)))


def octagon_knots():
    # mirror-exact vertices: both neighbours of every vertex, and both
    # second neighbours, lie at bit-identical distances
    c = np.sqrt(0.5)
    pos = np.array([[1, 0], [c, c], [0, 1], [-c, c],
                    [-1, 0], [-c, -c], [0, -1], [c, -c]], dtype=float)
    return KnotSet(pos, np.tile([1.0, 0.0], (8, 1)))


def grid_knots():
    g = np.arange(5.0)
    pos = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    return KnotSet(pos, np.tile([1.0, 0.0], (25, 1)))


@pytest.mark.parametrize("make_knots", [scattered_knots, octagon_knots, grid_knots])
def test_truncation_matches_stable_argsort_oracle(make_knots):
    ks = make_knots()
    n = ks.size
    rng = np.random.default_rng(n)
    # a third of the entries are zero: kept zeros must stay explicit
    matrix = np.where(rng.random((n, n)) < 1 / 3, 0.0, rng.standard_normal((n, n)))
    dists = pairwise_distances(ks.all_positions, ks.all_positions)
    ties = 0
    for k in range(1, n + 1):
        sparse = truncate_system(lambda i, j: matrix[i, j], np.ones(n), ks, k)
        expected = truncation_oracle(ks, k)
        coo = sparse.matrix.tocoo()
        pattern = np.zeros((n, n), dtype=bool)
        pattern[coo.row, coo.col] = True
        np.testing.assert_array_equal(pattern, expected)
        assert coo.nnz == expected.sum() == n * k
        assert coo.data.tobytes() == matrix[coo.row, coo.col].tobytes()
        np.testing.assert_array_equal(np.diff(sparse.matrix.indptr), k)
        kth = np.sort(dists, axis=1)[:, k - 1:k]
        ties += np.count_nonzero(np.count_nonzero(dists <= kth, axis=1) > k)
    if make_knots is not scattered_knots:
        assert ties > n        # the tie rule is exercised, not just present


def ellipse_dirichlet_knots():
    return ellipse_knots(ELL, 12)


def ellipse_mixed_knots():
    return ellipse_knots(ELL, 13).with_dirichlet_count(6)


def octagon_mixed_knots():
    return octagon_knots().with_dirichlet_count(5)


def sphere_mixed_knots():
    # 3-d: the Neumann entries take the sin(r)/r derivative
    pos = fibonacci_sphere(20)
    return KnotSet(pos, pos).with_dirichlet_count(12)


@pytest.mark.parametrize("make_knots", [ellipse_dirichlet_knots, ellipse_mixed_knots,
                                        octagon_knots, octagon_mixed_knots,
                                        grid_knots, sphere_mixed_knots])
def test_solver_builds_kept_pairs_as_truncated_dense(make_knots, monkeypatch):
    # the solver evaluates its kernels at the kept pairs only; both systems
    # must be, bit for bit, the dense matrices truncated by truncate_system
    selections, systems = [], []
    select = bkm.geometry._nearest_neighbours

    def counted_select(positions, tree, k):
        selections.append(k)
        return select(positions, tree, k)

    def recorded_truncate(*args):
        systems.append(truncate_system(*args))
        return systems[-1]

    monkeypatch.setattr(bkm.geometry, "_nearest_neighbours", counted_select)
    monkeypatch.setattr(bkm.solver, "truncate_system", recorded_truncate)
    problem = ProblemSpec(forcing=lambda p: p[:, 0],
                          dirichlet=lambda p: np.sin(p[:, 0]) + p[:, 0],
                          neumann=lambda p: np.cos(p[:, 0]) + 1.0)
    kernel = mq_pair(1.5)
    n = make_knots().size
    for k in sorted({1, n // 2, n}):
        ks = make_knots()
        selections.clear()
        systems.clear()
        try:
            solve_linear(problem, ks, kernel, frm_k=k)
        except (BkmError, np.linalg.LinAlgError):
            pass            # a singular truncation (k = 1 on Neumann rows)
        assert selections == [k]          # one neighbour search per solve
        dense = (build_interpolation_matrix(ks, kernel),
                 assemble_homogeneous_rows(ks, GeneralSolution(ks.dimension)))
        assert len(systems) == 2
        for system, matrix in zip(systems, dense):
            expected = truncate_system(lambda i, j: matrix[i, j], system.rhs, ks, k)
            for name in ("data", "indices", "indptr"):
                got, want = getattr(system.matrix, name), getattr(expected.matrix, name)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), name
            assert system.matrix.nnz == n * k
        assert selections == [k]          # the oracle reused the pattern


def test_full_truncation_equals_dense_entries():
    ks, matrix, rhs = mq_system(12)
    sparse = truncate_system(lambda i, j: matrix[i, j], rhs, ks, 12)
    np.testing.assert_array_equal(sparse.matrix.toarray(), matrix)


def test_k_one_keeps_only_the_diagonal():
    ks, matrix, rhs = mq_system(9, c=3.0)
    sparse = truncate_system(lambda i, j: matrix[i, j], rhs, ks, 1)
    np.testing.assert_array_equal(sparse.matrix.toarray(),
                                  np.diag(np.diag(matrix)))


def test_seven_knot_neighbourhoods_match_brute_force():
    ks, matrix, rhs = mq_system(7)
    sparse = truncate_system(lambda i, j: matrix[i, j], rhs, ks, 3)
    pts = ks.all_positions
    dense_mat = sparse.matrix.toarray()
    for i in range(7):
        d = np.linalg.norm(pts - pts[i], axis=1)
        expected = np.argsort(d, kind="stable")[:3]
        kept = np.flatnonzero(dense_mat[i])
        assert set(kept) == set(expected)
        assert i in kept                      # self always kept
    # on the uniformly parametrised ellipse the two ring neighbours are kept
    row0 = set(np.flatnonzero(dense_mat[0]))
    assert row0 == {0, 1, 6}


def test_kept_entries_identical_no_decay():
    ks, matrix, rhs = mq_system(15)
    sparse = truncate_system(lambda i, j: matrix[i, j], rhs, ks, 6)
    arr = sparse.matrix.toarray()
    mask = arr != 0.0
    np.testing.assert_array_equal(arr[mask], matrix[mask])


def test_sparsity_bound():
    ks, matrix, rhs = mq_system(20)
    for k in (1, 3, 7, 20):
        sparse = truncate_system(lambda i, j: matrix[i, j], rhs, ks, k)
        assert sparse.matrix.nnz <= k * 20
        per_row = np.diff(sparse.matrix.indptr)
        assert np.all(per_row <= k)


def test_truncated_solve_holds_no_knot_by_knot_array():
    # placing 2000 knots and a k = 7 solve: the 2000 x 2000 distance matrix
    # alone would take 32 MB. k = 7 answers (condition estimates ~7e3); k = 8
    # is refused at the fit (4.0e16) and would never reach the collocation
    problem = ProblemSpec(forcing=lambda p: p[:, 0],
                          dirichlet=lambda p: np.sin(p[:, 0]) + p[:, 0])
    peak = allocation_peak(
        lambda: solve_linear(problem, ellipse_knots(ELL, 2000), mq_pair(3.0), frm_k=7))
    assert peak < 4e6


def test_pattern_generally_asymmetric():
    rng = np.random.default_rng(4)
    pos = rng.uniform([-2, -1], [2, 1], size=(14, 2))
    normals = np.tile([1.0, 0.0], (14, 1))
    ks = KnotSet(pos, normals)
    pair = mq_pair(1.0)
    matrix = build_interpolation_matrix(ks, pair)
    plain = truncate_system(lambda i, j: matrix[i, j], np.zeros(14), ks, 4)
    pat = (plain.matrix.toarray() != 0)
    assert not np.array_equal(pat, pat.T)     # scattered knots: asymmetric


def test_truncate_validation():
    ks, matrix, rhs = mq_system(7)
    with pytest.raises(ValueError):
        truncate_system(lambda i, j: matrix[i, j], rhs, ks, 0)
    with pytest.raises(ValueError):
        truncate_system(lambda i, j: matrix[i, j], rhs, ks, 8)


def test_truncate_refuses_a_fractional_k_and_records_a_whole_one():
    ks, matrix, rhs = mq_system(7)
    with pytest.raises(ValueError, match="neighbour count must be a whole number"):
        truncate_system(lambda i, j: matrix[i, j], rhs, ks, 2.5)
    sparse = truncate_system(lambda i, j: matrix[i, j], rhs, ks, 3.0)
    assert type(sparse.k) is int and sparse.matrix.nnz == 21


def test_full_sparse_solve_matches_dense():
    ks, matrix, rhs = mq_system(20)
    sparse = truncate_system(lambda i, j: matrix[i, j], rhs, ks, 20)
    x_sparse = solve_sparse(sparse)
    x_dense = FactoredMatrix(matrix).solve(rhs)
    assert np.max(np.abs(x_sparse - x_dense)) < 1e-10
    resid = np.max(np.abs(rhs - matrix @ x_sparse))
    assert resid <= 1e-9 * np.max(np.abs(rhs))


def test_sparse_solve_tolerates_stiff_but_solvable_systems():
    # high condition number with large coefficients: backward stable solves
    # must pass even though the rhs-relative residual cannot reach 1e-9
    ks = ellipse_knots(Ellipse(np.array([3.0, 0.0]), 1.5, 0.5), 9)
    pair = mq_pair(18.0)
    matrix = build_interpolation_matrix(ks, pair)
    rhs = 2.0 * ks.boundary_positions[:, 1] * np.exp(ks.boundary_positions[:, 0])
    x = solve_sparse(truncate_system(lambda i, j: matrix[i, j], rhs, ks, 9))
    assert np.all(np.isfinite(x))
    backward = np.abs(matrix) @ np.abs(x) + np.abs(rhs)
    eta = np.max(np.abs(rhs - matrix @ x) / backward)
    assert eta <= 1e-9


def test_diagonal_solve():
    ks, matrix, rhs = mq_system(9, c=3.0)
    sparse = truncate_system(lambda i, j: matrix[i, j], rhs, ks, 1)
    x = solve_sparse(sparse)
    np.testing.assert_allclose(x, rhs / 45.0, rtol=1e-12)


def test_sweep_error_decreases_towards_dense():
    # interpolate a smooth function on 50 knots; compare each truncated
    # interpolant against the full one on a fixed evaluation grid
    n = 50
    ks = ellipse_knots(ELL, n)
    pair = mq_pair(1.0)
    matrix = build_interpolation_matrix(ks, pair)
    fvals = np.sin(ks.boundary_positions[:, 0]) + \
        ks.boundary_positions[:, 0] * ks.boundary_positions[:, 1]

    grid = ELL.interior_samples(40, seed=0)
    basis = pair.phi(np.linalg.norm(grid[:, None, :] -
                                    ks.boundary_positions[None, :, :], axis=2))

    reference = basis @ solve_sparse(
        truncate_system(lambda i, j: matrix[i, j], fvals, ks, n))
    errors = []
    for k in (10, 25, n):
        xk = solve_sparse(truncate_system(lambda i, j: matrix[i, j], fvals, ks, k))
        errors.append(np.max(np.abs(basis @ xk - reference)))
    assert errors[0] >= errors[1] >= errors[2]
    assert errors[2] == 0.0


def test_sparse_solve_rejects_structural_singularity():
    pos = np.array([[0.0, 0.0], [1.0, 0.0]])
    normals = np.tile([1.0, 0.0], (2, 1))
    ks = KnotSet(pos, normals)
    matrix = np.array([[0.0, 1.0], [1.0, 0.0]])   # zero diagonal
    sparse = truncate_system(lambda i, j: matrix[i, j], np.ones(2), ks, 1)
    with pytest.raises((np.linalg.LinAlgError, IllConditionedError)):
        solve_sparse(sparse)


def test_sparse_system_records_k():
    ks, matrix, rhs = mq_system(10)
    sparse = truncate_system(lambda i, j: matrix[i, j], rhs, ks, 4)
    assert isinstance(sparse, SparseSystem)
    assert sparse.k == 4
    assert sparse.size == 10


def test_sparse_refusal_names_the_stage_and_its_condition(monkeypatch):
    ks, matrix, rhs = mq_system(10)
    system = truncate_system(lambda i, j: matrix[i, j], rhs, ks, 4, "collocation")
    monkeypatch.setattr(bkm._linalg, "RESIDUAL_TOL", 0.0)
    with pytest.raises(IllConditionedError, match="collocation solve backward error") \
            as info:
        solve_sparse(system)
    assert info.value.condition == system.condition
    assert f"(condition estimate {system.condition:.3e})" in str(info.value)
    exact = np.linalg.cond(system.matrix.toarray(), 1)
    assert exact / 5 <= system.condition <= exact * (1 + 1e-12)


def test_a_sparse_stage_past_the_condition_limit_is_refused_as_a_dense_one():
    # 40 knots at c = 3: the fit's kappa_1 is far past COND_LIMIT, and k = N
    # keeps every entry; the gate refuses before any solve, as dgecon's does
    ks = ellipse_knots(ELL, 40)
    matrix = build_interpolation_matrix(ks, mq_pair(3.0))
    with pytest.raises(IllConditionedError) as dense:
        FactoredMatrix(matrix, label="particular-fit")
    system = truncate_system(lambda i, j: matrix[i, j], np.ones(40), ks, 40,
                             "particular-fit")
    with pytest.raises(IllConditionedError,
                       match=r"^particular-fit of size 40 is numerically "
                             r"rank-deficient \(condition estimate ") as sparse:
        solve_sparse(system)
    assert str(sparse.value).split(" (")[0] == str(dense.value).split(" (")[0]
    assert sparse.value.condition == system.condition > bkm._linalg.COND_LIMIT
    assert system.eta is None


def test_a_condition_past_the_float_range_is_inf_and_refused():
    # |A|_1 |A^-1|_1 = 1e400: the estimate is inf with no numpy overflow
    # warning (a warning fails this suite), and the stage is refused
    system = SparseSystem(matrix=sp.csr_matrix(np.diag([1e200, 1e-200])),
                          rhs=np.ones(2), k=1, label="collocation")
    with pytest.raises(IllConditionedError, match=r"^collocation of size 2 is "
                       r"numerically rank-deficient \(condition estimate inf\)$"):
        solve_sparse(system)
    assert system.condition == np.inf


def table2_knots():
    # table2's ellipse and knot count; at c = 18, dgecon puts its dense fit
    # 14 times below the exact kappa_1
    return ellipse_knots(Ellipse(np.array([3.0, 0.0]), 1.5, 0.5), 9)


def ellipse_200_mixed_knots():
    return ellipse_knots(ELL, 200).with_dirichlet_count(120)


@pytest.mark.parametrize("make_knots", [table2_knots, ellipse_mixed_knots,
                                        octagon_mixed_knots, scattered_knots,
                                        grid_knots, sphere_mixed_knots,
                                        ellipse_200_mixed_knots])
def test_sparse_condition_estimate_is_a_close_lower_bound(make_knots):
    # Hager-Higham's estimate is a lower bound on |A^-1|_1. Up to rounding:
    # np.linalg.cond(a, 1) inverts a, to a relative error of order
    # kappa_1 eps, so systems past 1e13 have no reference here. Over the 164
    # systems compared, the exact kappa_1 is at most 10.9 times the estimate
    # (the grid's dense fit at c = 3), and at most 4.7 times on the others;
    # k = N is compared against the dense matrix itself
    ks = make_knots()
    n, eps = ks.size, np.finfo(float).eps
    matrices = [build_interpolation_matrix(ks, mq_pair(c)) for c in (0.5, 3.0, 18.0)]
    matrices.append(assemble_homogeneous_rows(ks, GeneralSolution(ks.dimension)))
    compared = 0
    for matrix in matrices:
        for k in sorted({1, 2, 3, 5, 8, n // 2, n} & set(range(1, n + 1))):
            system = truncate_system(lambda i, j: matrix[i, j], np.ones(n), ks, k)
            try:
                solve_sparse(system)
            except (BkmError, np.linalg.LinAlgError):
                continue    # rank-deficient, or singular (k = 1 on Neumann rows)
            exact = np.linalg.cond(matrix if k == n else system.matrix.toarray(), 1)
            if exact <= 1e13:
                assert exact / 11 <= system.condition <= exact * (1 + 8 * eps * exact)
                compared += 1
    assert compared >= 12


def test_sparse_solve_records_its_backward_error():
    ks, matrix, rhs = mq_system(10)
    system = truncate_system(lambda i, j: matrix[i, j], rhs, ks, 4, "particular-fit")
    assert system.eta is None and system.condition is None
    x = solve_sparse(system)
    a = system.matrix
    eta = np.max(np.abs(rhs - a @ x)) / (
        abs(a).sum(axis=1).max() * np.max(np.abs(x)) + np.max(np.abs(rhs)))
    assert system.eta == eta and 0 < eta <= RESIDUAL_TOL
    assert 1.0 <= system.condition <= bkm._linalg.COND_LIMIT
    assert system.record() == SolveRecord("particular-fit", 10, system.condition, eta)
