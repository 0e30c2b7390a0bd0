import numpy as np
import pytest

from bkm._linalg import solve_checked
from bkm.drm import build_interpolation_matrix
from bkm.errors import IllConditionedError
from bkm.frm import SparseSystem, solve_sparse, truncate_system
from bkm.geometry import Ellipse, KnotSet, ellipse_knots
from bkm.kernels import mq_pair

ELL = Ellipse(np.zeros(2), 2.0, 1.0)


def mq_system(n, c=1.0, seed=1):
    ks = ellipse_knots(ELL, n)
    matrix = build_interpolation_matrix(ks, mq_pair(c))
    rng = np.random.default_rng(seed)
    rhs = matrix @ rng.uniform(-1.0, 1.0, n)
    return ks, matrix, rhs


def truncation_oracle(knots, k, symmetrize=False):
    """Reference pattern: a stable argsort of each row's distances."""
    pts = knots.all_positions
    dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    keep = np.zeros(dists.shape, dtype=bool)
    for i in range(len(pts)):
        order = np.argsort(dists[i], kind="stable")   # stable sort: ties by index
        keep[i, order[:k]] = True
    if symmetrize:
        keep |= keep.T
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
        for symmetrize in (False, True):
            sparse = truncate_system(matrix, np.ones(n), ks, k, symmetrize=symmetrize)
            expected = truncation_oracle(ks, k, symmetrize)
            coo = sparse.matrix.tocoo()
            pattern = np.zeros((n, n), dtype=bool)
            pattern[coo.row, coo.col] = True
            np.testing.assert_array_equal(pattern, expected)
            assert coo.nnz == expected.sum()
            assert coo.data.tobytes() == matrix[coo.row, coo.col].tobytes()
            if not symmetrize:
                assert sparse.matrix.nnz == n * k
                np.testing.assert_array_equal(np.diff(sparse.matrix.indptr), k)
        kth = np.sort(ks.distances, axis=1)[:, k - 1:k]
        ties += np.count_nonzero(np.count_nonzero(ks.distances <= kth, axis=1) > k)
    if make_knots is not scattered_knots:
        assert ties > n        # the tie rule is exercised, not just present


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


def test_pattern_generally_asymmetric_until_symmetrized():
    rng = np.random.default_rng(4)
    pos = rng.uniform([-2, -1], [2, 1], size=(14, 2))
    normals = np.tile([1.0, 0.0], (14, 1))
    ks = KnotSet(pos, normals)
    pair = mq_pair(1.0)
    matrix = build_interpolation_matrix(ks, pair)
    plain = truncate_system(matrix, np.zeros(14), ks, 4)
    pat = (plain.matrix.toarray() != 0)
    assert not np.array_equal(pat, pat.T)     # scattered knots: asymmetric
    sym = truncate_system(matrix, np.zeros(14), ks, 4, symmetrize=True)
    pat_sym = (sym.matrix.toarray() != 0)
    np.testing.assert_array_equal(pat_sym, pat_sym.T)
    assert pat_sym.sum() >= pat.sum()


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
