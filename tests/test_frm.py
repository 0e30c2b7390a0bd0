import numpy as np
import pytest

import bkm.geometry
import bkm.solver
from bkm._linalg import solve_checked
from bkm.drm import build_interpolation_matrix
from bkm.errors import BkmError, IllConditionedError
from bkm.frm import SparseSystem, solve_sparse, truncate_system
from bkm.geometry import Ellipse, KnotSet, ellipse_knots
from bkm.kernels import helmholtz_general_solution, mq_pair
from bkm.solver import ProblemSpec, assemble_homogeneous_rows, solve_linear

ELL = Ellipse(np.zeros(2), 2.0, 1.0)


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
    ties = 0
    for k in range(1, n + 1):
        sparse = truncate_system(matrix, np.ones(n), ks, k)
        expected = truncation_oracle(ks, k)
        coo = sparse.matrix.tocoo()
        pattern = np.zeros((n, n), dtype=bool)
        pattern[coo.row, coo.col] = True
        np.testing.assert_array_equal(pattern, expected)
        assert coo.nnz == expected.sum() == n * k
        assert coo.data.tobytes() == matrix[coo.row, coo.col].tobytes()
        np.testing.assert_array_equal(np.diff(sparse.matrix.indptr), k)
        kth = np.sort(ks.distances, axis=1)[:, k - 1:k]
        ties += np.count_nonzero(np.count_nonzero(ks.distances <= kth, axis=1) > k)
    if make_knots is not scattered_knots:
        assert ties > n        # the tie rule is exercised, not just present


def ellipse_dirichlet_knots():
    return ellipse_knots(ELL, 12)


def ellipse_mixed_knots():
    return ellipse_knots(ELL, 13).with_dirichlet_count(6)


def octagon_mixed_knots():
    return octagon_knots().with_dirichlet_count(5)


@pytest.mark.parametrize("make_knots", [ellipse_dirichlet_knots, ellipse_mixed_knots,
                                        octagon_knots, octagon_mixed_knots,
                                        grid_knots])
def test_solver_builds_kept_pairs_as_truncated_dense(make_knots, monkeypatch):
    # the solver evaluates its kernels at the kept pairs only; both systems
    # must be, bit for bit, the dense matrices truncated by truncate_system
    selections, systems = [], []
    select = bkm.geometry._nearest_neighbours

    def counted_select(dists, k):
        selections.append(k)
        return select(dists, k)

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
                 assemble_homogeneous_rows(ks, helmholtz_general_solution(2)))
        assert len(systems) == 2
        for system, matrix in zip(systems, dense):
            expected = truncate_system(matrix, system.rhs, ks, k)
            for name in ("data", "indices", "indptr"):
                got, want = getattr(system.matrix, name), getattr(expected.matrix, name)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), name
            assert system.matrix.nnz == n * k
        assert selections == [k]          # the oracle reused the pattern


def test_full_truncation_equals_dense_entries():
    ks, matrix, rhs = mq_system(12)
    sparse = truncate_system(matrix, rhs, ks, 12)
    np.testing.assert_array_equal(sparse.matrix.toarray(), matrix)


def test_k_one_keeps_only_the_diagonal():
    ks, matrix, rhs = mq_system(9, c=3.0)
    sparse = truncate_system(matrix, rhs, ks, 1)
    np.testing.assert_array_equal(sparse.matrix.toarray(),
                                  np.diag(np.diag(matrix)))


def test_seven_knot_neighbourhoods_match_brute_force():
    ks, matrix, rhs = mq_system(7)
    sparse = truncate_system(matrix, rhs, ks, 3)
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
    sparse = truncate_system(matrix, rhs, ks, 6)
    arr = sparse.matrix.toarray()
    mask = arr != 0.0
    np.testing.assert_array_equal(arr[mask], matrix[mask])


def test_sparsity_bound():
    ks, matrix, rhs = mq_system(20)
    for k in (1, 3, 7, 20):
        sparse = truncate_system(matrix, rhs, ks, k)
        assert sparse.matrix.nnz <= k * 20
        per_row = np.diff(sparse.matrix.indptr)
        assert np.all(per_row <= k)


def test_pattern_generally_asymmetric():
    rng = np.random.default_rng(4)
    pos = rng.uniform([-2, -1], [2, 1], size=(14, 2))
    normals = np.tile([1.0, 0.0], (14, 1))
    ks = KnotSet(pos, normals)
    pair = mq_pair(1.0)
    matrix = build_interpolation_matrix(ks, pair)
    plain = truncate_system(matrix, np.zeros(14), ks, 4)
    pat = (plain.matrix.toarray() != 0)
    assert not np.array_equal(pat, pat.T)     # scattered knots: asymmetric


def test_truncate_validation():
    ks, matrix, rhs = mq_system(7)
    with pytest.raises(ValueError):
        truncate_system(matrix, rhs, ks, 0)
    with pytest.raises(ValueError):
        truncate_system(matrix, rhs, ks, 8)
    with pytest.raises(ValueError):
        truncate_system(matrix[:5, :5], rhs[:5], ks, 3)


def test_full_sparse_solve_matches_dense():
    ks, matrix, rhs = mq_system(20)
    sparse = truncate_system(matrix, rhs, ks, 20)
    x_sparse = solve_sparse(sparse)
    x_dense, _ = solve_checked(matrix, rhs)
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
    x = solve_sparse(truncate_system(matrix, rhs, ks, 9))
    assert np.all(np.isfinite(x))
    backward = np.abs(matrix) @ np.abs(x) + np.abs(rhs)
    eta = np.max(np.abs(rhs - matrix @ x) / backward)
    assert eta <= 1e-9


def test_diagonal_solve():
    ks, matrix, rhs = mq_system(9, c=3.0)
    sparse = truncate_system(matrix, rhs, ks, 1)
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

    rng = np.random.default_rng(0)
    grid = []
    while len(grid) < 40:
        p = rng.uniform([-2, -1], [2, 1])
        if (p[0] / 2) ** 2 + p[1] ** 2 < 1:
            grid.append(p)
    grid = np.array(grid)
    basis = pair.phi(np.linalg.norm(grid[:, None, :] -
                                    ks.boundary_positions[None, :, :], axis=2))

    reference = basis @ solve_sparse(truncate_system(matrix, fvals, ks, n))
    errors = []
    for k in (10, 25, n):
        xk = solve_sparse(truncate_system(matrix, fvals, ks, k))
        errors.append(np.max(np.abs(basis @ xk - reference)))
    assert errors[0] >= errors[1] >= errors[2]
    assert errors[2] == 0.0


def test_sparse_solve_rejects_structural_singularity():
    pos = np.array([[0.0, 0.0], [1.0, 0.0]])
    normals = np.tile([1.0, 0.0], (2, 1))
    ks = KnotSet(pos, normals)
    matrix = np.array([[0.0, 1.0], [1.0, 0.0]])   # zero diagonal
    sparse = truncate_system(matrix, np.ones(2), ks, 1)
    with pytest.raises((np.linalg.LinAlgError, IllConditionedError)):
        solve_sparse(sparse)


def test_sparse_system_records_k():
    ks, matrix, rhs = mq_system(10)
    sparse = truncate_system(matrix, rhs, ks, 4)
    assert isinstance(sparse, SparseSystem)
    assert sparse.k == 4
    assert sparse.size == 10
