import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from bkm.errors import DegenerateGeometryError
from bkm.geometry import (COINCIDENT_TOL, UNIT_TOL, Ellipse, KnotSet,
                          _normal_projections, _row_norms, as_point, ellipse_knots,
                          pairwise_distances)
from oracles import KNOT_PATHS, every_knot_set_on

coord = st.floats(min_value=-50.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False)

#: Coordinates spread over magnitudes 1e-6 .. 1e8.
mixed_coord = st.builds(lambda m, e: m * 10.0 ** e,
                        st.floats(-1.0, 1.0, allow_nan=False), st.integers(-6, 8))


@st.composite
def point_set_pairs(draw):
    dim = draw(st.sampled_from([2, 3]))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = draw(st.lists(mixed_coord, min_size=m * dim, max_size=m * dim))
    b = draw(st.lists(mixed_coord, min_size=n * dim, max_size=n * dim))
    return np.reshape(a, (m, dim)), np.reshape(b, (n, dim))


#: Random centres and semi-axes a >= b > 0, and boundary parameter values.
ellipses = st.builds(lambda cx, cy, a, ratio: Ellipse(np.array([cx, cy]), a, a * ratio),
                     st.floats(-10, 10), st.floats(-10, 10), st.floats(0.5, 20),
                     st.floats(0.1, 1))
angles = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8).map(np.array)


def implicit(e, points):
    rel = (points - e.center) / (e.semi_major, e.semi_minor)
    return np.sum(rel ** 2, axis=1)


def test_ellipse_knots_axis_aligned():
    e = Ellipse(np.zeros(2), 2.0, 1.0)
    ks = ellipse_knots(e, 4)
    expected = np.array([[2.0, 0.0], [0.0, 1.0], [-2.0, 0.0], [0.0, -1.0]])
    np.testing.assert_allclose(ks.boundary_positions, expected, atol=1e-14)
    assert ks.n_interior == 0
    assert ks.dirichlet_count == 4


def test_ellipse_knot_normal_on_major_axis():
    ks = ellipse_knots(Ellipse(np.zeros(2), 2.0, 1.0), 4)
    np.testing.assert_allclose(ks.boundary_normals[0], [1.0, 0.0], atol=1e-14)


def test_circle_knot_at_third_turn():
    ks = ellipse_knots(Ellipse(np.zeros(2), 1.0, 1.0), 3)
    # t = 2 pi / 3: direct trigonometric evaluation
    np.testing.assert_allclose(ks.boundary_positions[1], [-0.5, 0.8660254037844387],
                               atol=1e-12)
    np.testing.assert_allclose(ks.boundary_normals[1], [-0.5, 0.8660254037844387],
                               atol=1e-12)


def test_ellipse_knots_rejects_zero():
    # an unbounded count names its lower bound only
    with pytest.raises(ValueError, match="knot count out of range: expected at "
                                         "least 1, got 0"):
        ellipse_knots(Ellipse(np.zeros(2), 2.0, 1.0), 0)


def test_a_point_and_an_ellipse_centre_refuse_the_wrong_dimension():
    with pytest.raises(ValueError, match=re.escape(
            "point must have dimension 2 or 3, got shape (4,)")):
        as_point([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="ellipse center must be two-dimensional"):
        Ellipse(np.zeros(3), 2.0, 1.0)


@pytest.mark.parametrize("n", [1, 2, 5, 7, 16, 50])
def test_ellipse_knots_on_implicit_curve(n):
    e = Ellipse(np.array([0.5, -0.25]), 2.0, 1.0)
    ks = ellipse_knots(e, n)
    np.testing.assert_allclose(implicit(e, ks.boundary_positions), 1.0, atol=1e-12)
    assert e.contains(ks.boundary_positions).all()     # the ellipse is closed


@pytest.mark.parametrize("n", [2, 5, 7, 16])
def test_ellipse_normals_unit_and_outward(n):
    e = Ellipse(np.array([1.0, 2.0]), 2.0, 1.0)
    ks = ellipse_knots(e, n)
    norms = np.linalg.norm(ks.boundary_normals, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    outward = np.einsum("ij,ij->i", ks.boundary_normals,
                        ks.boundary_positions - e.center)
    assert np.all(outward > 0)


def test_radial_distance_basics():
    d = pairwise_distances(np.array([[0.0, 0.0], [1.5, 0.0]]),
                           np.array([[0.0, 0.0], [3.0, 4.0], [1.2, -0.35]]))
    assert d[0, 0] == 0.0
    assert d[0, 1] == pytest.approx(5.0, abs=1e-15)
    assert d[1, 2] == pytest.approx(np.sqrt(0.3**2 + 0.35**2), abs=1e-15)


def test_radial_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        pairwise_distances(np.array([[0.0, 0.0]]), np.array([[1.0, 2.0, 3.0]]))


@settings(deadline=None)
@given(ax=coord, ay=coord, bx=coord, by=coord, cx=coord, cy=coord)
def test_radial_distance_metric_axioms(ax, ay, bx, by, cx, cy):
    pts = np.array([[ax, ay], [bx, by], [cx, cy]])
    d = pairwise_distances(pts, pts)
    assert d[0, 1] == pytest.approx(d[1, 0], abs=1e-12)
    assert np.all(np.diag(d) == 0.0)
    assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-12


def test_normal_projection_collinear_orthogonal_degenerate():
    # dr/dn along n = (1, 0) of a collinear, an orthogonal and a coincident
    # pair: the convention at r = 0 is a projection of 0
    x = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, -0.7]])
    s = np.array([[0.0, 0.0], [0.0, 0.0], [0.3, -0.7]])
    proj = _normal_projections(x, np.array([1.0, 0.0]), s, np.linalg.norm(x - s, axis=1))
    np.testing.assert_array_equal(proj, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_normal_projections_bit_identical_to_mask_gathers(dim, dtype):
    # a block, a strided column slice of it, gathered pairs and one 0-d pair,
    # each with a coincident point-source pair
    rng = np.random.default_rng(dim)
    x, s = rng.uniform(-3.0, 3.0, (7, dim)), rng.uniform(-3.0, 3.0, (10, dim))
    s[5] = x[2]
    n = rng.standard_normal((7, dim))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    r = pairwise_distances(x, s).astype(dtype)
    pairs = np.array([0, 2, 2, 6]), np.array([1, 5, 4, 9])
    cases = [(x[:, None], n[:, None], s, r), (x[:, None], n[:, None], s[:4], r[:, :4]),
             (x[pairs[0]], n[pairs[0]], s[pairs[1]], r[pairs]),
             (x[2], n[2], s[5], np.asarray(r[2, 5])), (x[3], n[3], s[1], np.asarray(r[3, 1]))]
    for args in cases:
        oracles.assert_bit_identical(
            _normal_projections(*args),
            oracles.normal_projections(*args, tol=COINCIDENT_TOL))


@settings(deadline=None)
@given(ax=coord, ay=coord, sx=coord, sy=coord, angle=st.floats(0, 2 * np.pi))
def test_normal_projection_bounded(ax, ay, sx, sy, angle):
    x, s = np.array([[ax, ay]]), np.array([[sx, sy]])
    n = np.array([np.cos(angle), np.sin(angle)])
    proj = _normal_projections(x, n, s, np.linalg.norm(x - s, axis=1))
    assert abs(proj[0]) <= 1.0 + 1e-12


UNIT_X = np.array([[1.0, 0.0]])


@pytest.mark.parametrize("kwargs, match", [
    (dict(boundary_positions=np.empty((0, 2)), boundary_normals=np.empty((0, 2))),
     "at least one boundary knot"),
    (dict(boundary_positions=np.zeros((1, 4)), boundary_normals=np.eye(1, 4)),
     "knot dimension must be 2 or 3, got 4"),
    (dict(boundary_positions=np.zeros((2, 2)), boundary_normals=UNIT_X),
     "boundary_normals must match boundary_positions in shape"),
    (dict(boundary_positions=[[np.nan, 0.0]], boundary_normals=UNIT_X),
     "knot coordinates and normals must be finite"),
    (dict(boundary_positions=[[1.0, 0.0]], boundary_normals=UNIT_X,
          interior=[[0.0, 0.0, 0.0]]),
     "interior knots must match the boundary dimension"),
    (dict(boundary_positions=[[1.0, 0.0]], boundary_normals=UNIT_X,
          interior=[[0.0, np.nan]]),
     "interior coordinates must be finite"),
], ids=["empty", "dimension-4", "normals-shape", "nan-position", "interior-dimension",
        "nan-interior"])
def test_knotset_refuses_malformed_knots(kwargs, match):
    with pytest.raises(ValueError, match=match):
        KnotSet(**kwargs)


def test_knotset_rejects_non_unit_normal():
    with pytest.raises(ValueError, match="unit length"):
        KnotSet(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]))
    ks = KnotSet(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    assert ks.boundary_positions.shape == (1, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dim", [2, 3])
def test_knotset_refuses_every_non_finite_entry_before_normal_lengths(bad, dim):
    # an inf or a nan in any coordinate or normal entry is refused as such,
    # also when another normal is not of unit length; finite normals off
    # unit length by more than UNIT_TOL, and no less, are refused as such
    pos = np.arange(4.0 * dim).reshape(4, dim)
    nor = np.eye(dim)[np.arange(4) % dim]
    for name in ("pos", "nor"):
        for i, j in np.ndindex(pos.shape):
            for spoil in (False, True):
                p, n = pos.copy(), nor.copy()
                (p if name == "pos" else n)[i, j] = bad
                if spoil:
                    n[(i + 1) % 4] *= 2.0
                with pytest.raises(ValueError, match="knot coordinates and normals "
                                                     "must be finite"):
                    KnotSet(p, n)
    for scale, refused in ((1.0 + 2 * UNIT_TOL, True), (1.0 - 2 * UNIT_TOL, True),
                           (1.0 + UNIT_TOL / 2, False), (1.0 - UNIT_TOL / 2, False)):
        n = nor.copy()
        n[2] *= scale
        if refused:
            with pytest.raises(ValueError, match="all boundary normals must have "
                                                 "unit length"):
                KnotSet(pos, n)
        else:
            assert KnotSet(pos, n).boundary_normals.tobytes() == n.tobytes()


def test_knotset_rejects_coincident_knots():
    pos = np.array([[1.0, 0.0], [1.0, 0.0]])
    nor = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateGeometryError):
        KnotSet(pos, nor)


def test_knotset_rejects_coincident_interior():
    ks = ellipse_knots(Ellipse(np.zeros(2), 2.0, 1.0), 4)
    with pytest.raises(DegenerateGeometryError):
        ks.with_interior(np.array([[0.3, 0.2], [0.3, 0.2]]))


def _repeat(points, i):
    """``points`` with point i repeated at the end."""
    return np.concatenate((points, points[i:i + 1]))


def _ellipse_knot_0_repeated(n):
    """n knots on the `wide` ellipse, then knot 0 again as knot n."""
    ks = ellipse_knots(Ellipse(np.zeros(2), 10.0, 5.0), n)
    return KnotSet(_repeat(ks.boundary_positions, 0), _repeat(ks.boundary_normals, 0))


def _reversed_repeats():
    """300 scattered points, then every 7th of them from the last backwards."""
    points = np.random.default_rng(7).uniform(-1.0, 1.0, (300, 2))
    return np.concatenate((points, points[::-7]))


def _refusal(make_knots, path):
    with every_knot_set_on(path), pytest.raises(DegenerateGeometryError) as refused:
        make_knots()
    return str(refused.value)


_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("make_knots, message", [
    (lambda: _knots_at(_repeat(_SQUARE, 2)),
     "knots 2 and 4 coincide (distance 0.000e+00)"),
    (lambda: _knots_at(np.concatenate((_SQUARE, [[4e-13, 0.0]]))),
     "knots 0 and 4 coincide (distance 4.000e-13)"),
    # two exact repeats: the lower (i, j) is refused, not the one found first
    (lambda: _knots_at(_repeat(_repeat(_SQUARE, 3), 1)),
     "knots 1 and 5 coincide (distance 0.000e+00)"),
    # 43 exact repeats, which the tree finds in no particular order
    (lambda: _knots_at(_reversed_repeats()),
     "knots 5 and 342 coincide (distance 0.000e+00)"),
    # the closest pair is refused, not the lowest pair within the tolerance
    (lambda: _knots_at(np.concatenate((_SQUARE, [[0.0, 9e-13], [1.0, 1.0]]))),
     "knots 2 and 5 coincide (distance 0.000e+00)"),
    (lambda: _sphere_set().with_interior(_repeat(oracles.fibonacci_sphere(5, 0.5), 3)),
     "knots 123 and 125 coincide (distance 0.000e+00)"),
    (lambda: _knots_at(_repeat(oracles.fibonacci_sphere(200), 17)),
     "knots 17 and 200 coincide (distance 0.000e+00)"),
    (lambda: _ellipse_knot_0_repeated(999),
     "knots 0 and 999 coincide (distance 0.000e+00)"),
], ids=["duplicate", "within-tolerance", "two-duplicates", "many-duplicates",
        "closest-first", "sphere-interior", "sphere", "ellipse1000"])
def test_both_paths_refuse_coincident_knots_with_one_message(make_knots, message):
    # the k-d tree path names the pair the distance matrix's argmin names,
    # with the same distance, character for character
    assert _refusal(make_knots, "matrix") == message
    assert _refusal(make_knots, "tree") == message


def test_knotset_ordering_and_partition():
    ks = ellipse_knots(Ellipse(np.zeros(2), 2.0, 1.0), 6)
    ks = ks.with_interior(np.array([[0.1, 0.2], [-0.3, 0.1]]))
    assert ks.size == 8
    assert ks.n_boundary == 6
    assert ks.n_interior == 2
    np.testing.assert_array_equal(ks.all_positions[:6], ks.boundary_positions)
    np.testing.assert_array_equal(ks.all_positions[6:], ks.interior)
    mixed = ks.with_dirichlet_count(4)
    assert mixed.dirichlet_count == 4
    assert mixed.neumann_count == 2


def test_with_dirichlet_count_shares_arrays_and_checks_range():
    for path in KNOT_PATHS:
        with every_knot_set_on(path):
            base = ellipse_knots(Ellipse(np.zeros(2), 2.0, 1.0), 6) \
                .with_interior(np.array([[0.1, 0.2]]))
        mixed = base.with_dirichlet_count(4)
        assert (mixed.dirichlet_count, base.dirichlet_count) == (4, 6)
        for name in ("all_positions", "boundary_positions", "boundary_normals",
                     "interior"):
            assert getattr(mixed, name) is getattr(base, name)
        # the twin reads the base's held matrix; the tree path holds none
        reads = [ks.distances_at(np.s_[:], np.s_[:]) for ks in (mixed, base)]
        assert np.shares_memory(*reads) == (path == "matrix")
        # the neighbour pattern the twin forms is the base's too
        assert mixed.neighbours(3) is base.neighbours(3)
    for bad in (-1, 7):      # 7 = knot count, one past the boundary knots
        with pytest.raises(ValueError, match="dirichlet_count out of range"):
            base.with_dirichlet_count(bad)


def test_neighbours_pattern_is_kept_and_read_only():
    ks = ellipse_knots(Ellipse(np.zeros(2), 2.0, 1.0), 7)
    indices, indptr = ks.neighbours(3)
    assert ks.neighbours(3) is ks.neighbours(3)
    np.testing.assert_array_equal(indptr, np.arange(0, 22, 3))
    np.testing.assert_array_equal(indices[:3], [0, 1, 6])
    for arr in (indices, indptr):
        with pytest.raises(ValueError):
            arr[0] = 5
    for bad in (0, 8):
        with pytest.raises(ValueError, match="neighbour count"):
            ks.neighbours(bad)


def _knots_at(points):
    """Every point a boundary knot, each with the first unit vector as normal."""
    return KnotSet(points, np.eye(points.shape[1])[np.zeros(len(points), int)])


def _square_lattice(side=12):
    """side x side unit lattice: exact ties at nearly every distance."""
    axis = np.arange(float(side))
    return _knots_at(np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2))


def _sphere_set(n=120):
    points = oracles.fibonacci_sphere(n)
    return KnotSet(points, points)


def assert_neighbours_are_brute_force(ks, counts):
    # the reference: each row's first k columns of a stable argsort of its
    # full distance row, ascending
    order = np.argsort(pairwise_distances(ks.all_positions, ks.all_positions),
                       axis=1, kind="stable")
    for k in counts:
        indices, indptr = ks.neighbours(k)
        np.testing.assert_array_equal(indptr, np.arange(0, ks.size * k + 1, k))
        expected = np.sort(order[:, :k], axis=1).ravel()
        assert np.array_equal(indices, expected), f"k = {k} of {ks.size}"


@pytest.mark.parametrize("make_knots", [
    *(lambda n=n: ellipse_knots(Ellipse(np.zeros(2), 2.0, 1.0), n)
      for n in (7, 8, 9, 64, 200)),
    _square_lattice, _sphere_set],
    ids=["ellipse7", "ellipse8", "ellipse9", "ellipse64", "ellipse200",
         "lattice", "sphere"])
def test_neighbours_are_the_brute_force_pattern_for_every_k(make_knots):
    # ellipse knots are mirror-symmetric, so their rows hold near-ties that
    # a k-d tree and the exact distances may order apart
    for path in KNOT_PATHS:
        with every_knot_set_on(path):
            ks = make_knots()
        assert_neighbours_are_brute_force(ks, range(1, ks.size + 1))


def test_neighbours_are_the_brute_force_pattern_at_a_thousand_knots():
    # every k at N = 1000 takes about a minute and a half, so the solver's
    # small k and a stride up to N
    ks = ellipse_knots(Ellipse(np.zeros(2), 2.0, 1.0), 1000)
    assert_neighbours_are_brute_force(ks, [*range(1, 33), *range(33, 1000, 161), 999, 1000])


@st.composite
def lattice_points(draw):
    """Distinct points on a lattice of a drawn spacing, 2-d or 3-d: exact
    ties, and near-ties where differences of coordinates round apart."""
    dim = draw(st.sampled_from([2, 3]))
    cells = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim),
                          min_size=1, max_size=40, unique=True))
    spacing = draw(st.sampled_from([1.0, 0.3, 7.1, 1e-3]))
    offset = draw(st.sampled_from([0.0, 0.1, 1e3]))
    return np.array(cells, dtype=float) * spacing + offset


@settings(deadline=None)
@given(lattice_points(), st.sampled_from(list(KNOT_PATHS)))
def test_neighbours_are_the_brute_force_pattern_on_lattice_points(points, path):
    with every_knot_set_on(path):
        ks = _knots_at(points)
    assert_neighbours_are_brute_force(ks, range(1, ks.size + 1))


@pytest.mark.parametrize("bad", [7.9, 3.7, 2.5, np.nan, np.inf])
def test_every_count_must_be_a_whole_number(bad):
    e = Ellipse(np.zeros(2), 2.0, 1.0)
    ks = ellipse_knots(e, 8)
    for name, call in (
            ("knot count", lambda: ellipse_knots(e, bad)),
            ("dirichlet_count", lambda: KnotSet(ks.boundary_positions,
                                                ks.boundary_normals,
                                                dirichlet_count=bad)),
            ("dirichlet_count", lambda: ks.with_dirichlet_count(bad)),
            ("neighbour count", lambda: ks.neighbours(bad)),
            ("sample count", lambda: e.interior_samples(bad, seed=0))):
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            call()


@pytest.mark.parametrize("whole", [7, 7.0, np.int64(7), np.float64(7.0)])
def test_whole_counts_of_any_numeric_type_are_accepted(whole):
    ks = ellipse_knots(Ellipse(np.zeros(2), 2.0, 1.0), whole)
    assert ks.n_boundary == 7
    for mixed in (ks.with_dirichlet_count(whole),
                  KnotSet(ks.boundary_positions, ks.boundary_normals,
                          dirichlet_count=whole)):
        assert type(mixed.dirichlet_count) is int and mixed.dirichlet_count == 7
    assert ks.neighbours(whole) is ks.neighbours(7)
    e = Ellipse(np.zeros(2), 2.0, 1.0)
    assert e.interior_samples(whole, seed=3).tobytes() == \
        e.interior_samples(7, seed=3).tobytes()


def test_interior_samples_refuse_a_negative_count():
    # a negative count used to return an empty (0, 2) array
    with pytest.raises(ValueError, match="sample count out of range"):
        Ellipse(np.zeros(2), 2.0, 1.0).interior_samples(-3, seed=0)


def _block_examples():
    """Blocks at the solver's sizes, in the layouts its callers pass: the
    `wide` evaluation (256 points by 144 knots), a 3-d block, Fortran
    order, strided column views of one wider array, and integer
    coordinates (which used to fail in the square root's integer output)."""
    rng = np.random.default_rng(20)
    wide = (rng.uniform(-10, 10, (256, 2)), rng.uniform(-10, 10, (144, 2)))
    solid = (rng.normal(0, 5, (200, 3)), rng.normal(0, 5, (150, 3)))
    fortran = tuple(np.asfortranarray(x) for x in wide)
    table = rng.normal(0, 3, (300, 6))
    strided = (table[:, ::3], table[:120, 1::3])
    whole = (np.array([[0, 0], [3, 4], [-7, 2]]), np.array([[1, 1], [6, 8]]))
    return wide, solid, fortran, strided, whole


BLOCKS = _block_examples()


@settings(deadline=None)
@given(point_set_pairs())
@example(BLOCKS[0])
@example(BLOCKS[1])
@example(BLOCKS[2])
@example(BLOCKS[3])
@example(BLOCKS[4])
def test_pairwise_distances_bit_identical_to_norm(pair):
    # the sum of squares in coordinate order, then one square root; a build
    # that fused the multiply-add would change bytes and fail here
    a, b = pair
    expected = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    got = pairwise_distances(a, b)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_pairwise_distances_dimension_mismatch():
    with pytest.raises(ValueError):
        pairwise_distances(np.zeros((2, 2)), np.zeros((3, 3)))


def test_knotset_distances_read_only_and_exact():
    # both paths give the bits of one pairwise_distances block; only the
    # matrix path holds a matrix, and the tree path computes each read afresh
    variants = []
    for path in KNOT_PATHS:
        with every_knot_set_on(path):
            base = ellipse_knots(Ellipse(np.array([0.5, -1.0]), 3.0, 1.5), 9)
            variants += [(path, ks) for ks in (
                base, base.with_interior(np.array([[0.1, -0.9], [1.2, -1.3]])),
                base.with_dirichlet_count(4),
                base.with_interior(np.array([[0.4, -0.6]])).with_dirichlet_count(2),
                _knots_at(oracles.fibonacci_sphere(30) * 1e3 + 7.0))]
    for path, ks in variants:
        d = ks.distances_at(np.s_[:], np.s_[:])
        assert d.shape == (ks.size, ks.size)
        if path == "matrix":
            assert not d.flags.writeable
            with pytest.raises(ValueError):
                d[0, 1] = 0.0
        else:
            assert not np.shares_memory(d, ks.distances_at(np.s_[:], np.s_[:]))
        diag = np.diag(d)
        assert np.all(diag == 0.0) and not np.any(np.signbit(diag))
        full = pairwise_distances(ks.all_positions, ks.all_positions)
        assert d.tobytes() == full.tobytes()
    # exactly symmetric, which the DRM right-hand side relies on; 1000
    # knots compute the whole block when it is read
    ks = ellipse_knots(Ellipse(np.zeros(2), 10.0, 5.0), 1000)
    d = ks.distances_at(np.s_[:], np.s_[:])
    assert d.tobytes() == d.T.copy().tobytes()


@pytest.mark.parametrize("path", KNOT_PATHS)
@pytest.mark.parametrize("make_knots", [
    lambda: ellipse_knots(Ellipse(np.array([0.5, -1.0]), 3.0, 1.5), 40)
    .with_interior(np.array([[0.1, -0.9], [1.2, -1.3], [0.4, -0.6]])),
    lambda: _knots_at(oracles.fibonacci_sphere(50) * 1e3 + 7.0)],
    ids=["ellipse", "sphere"])
def test_distances_at_blocks_and_pairs_are_the_matrix_entries(make_knots, path):
    # the tree path holds no matrix, so there each block and pair is
    # computed on its own
    with every_knot_set_on(path):
        ks = make_knots()
    n = ks.size
    blocks = [np.s_[:n], np.s_[:n]], [np.s_[3:17], np.s_[:]], [np.s_[:40], np.s_[:40]], \
        [np.s_[40:], np.s_[5:9]]
    rows, cols = np.divmod(np.arange(n * n), n)
    picked = np.random.default_rng(n).permutation(n * n)[:200]
    pairs = [rows, cols], [np.sort(rows[picked]), cols[picked]]
    got = [ks.distances_at(*where) for where in (*blocks, *pairs)]
    full = pairwise_distances(ks.all_positions, ks.all_positions)
    for where, entries in zip((*blocks, *pairs), got):
        assert entries.tobytes() == full[tuple(where)].tobytes()


def test_knotset_immutable_arrays():
    ks = ellipse_knots(Ellipse(np.zeros(2), 2.0, 1.0), 5)
    with pytest.raises(ValueError):
        ks.boundary_positions[0, 0] = 99.0


def test_ellipse_validation():
    # a < b, b = 0, and semi-axes that are not finite
    for a, b in ((1.0, 2.0), (1.0, 0.0), (np.inf, 1.0), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="requires finite a >= b > 0"):
            Ellipse(np.zeros(2), a, b)


@settings(deadline=None)
@given(ellipses, angles)
def test_boundary_points_on_the_ellipse_with_unit_outward_normals(e, t):
    positions, normals = e.boundary(t)
    np.testing.assert_allclose(implicit(e, positions), 1.0, rtol=0, atol=1e-12)
    assert e.contains(positions).all()
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(np.einsum("ij,ij->i", normals, positions - e.center) > 0)
    assert not e.contains(positions + 1e-6 * e.semi_major * normals).any()


@settings(deadline=None)
@given(ellipses, angles)
def test_boundary_is_the_plain_expressions_byte_for_byte(e, t):
    # the in-place forms give the bits of the plain expressions
    trig = np.column_stack((np.cos(t), np.sin(t)))
    normals = trig * (e.semi_minor, e.semi_major)
    positions, unit = e.boundary(t)
    plain = e.center + trig * (e.semi_major, e.semi_minor)
    assert positions.tobytes() == plain.tobytes()
    assert unit.tobytes() == (normals / _row_norms(normals)[:, None]).tobytes()
    assert positions.shape == unit.shape == (len(t), 2)


@settings(deadline=None)
@given(ellipses, st.integers(0, 30), st.integers(0, 2**32 - 1), st.floats(0.1, 1.0))
def test_interior_samples_strictly_inside_and_reproducible(e, n, seed, shrink):
    pts = e.interior_samples(n, seed, shrink)
    assert pts.shape == (n, 2)
    assert np.all(implicit(e, pts) < shrink) and e.contains(pts).all()   # shrink <= 1
    assert pts.tobytes() == e.interior_samples(n, seed, shrink).tobytes()
    for bad in (0.0, 1.5):
        with pytest.raises(ValueError, match="shrink"):
            e.interior_samples(n, seed, shrink=bad)
