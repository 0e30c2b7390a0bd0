import numpy as np
import pytest
from hypothesis import given, strategies as st

from bkm.errors import DegenerateGeometryError
from bkm.geometry import (BoundaryKnot, Ellipse, KnotSet, ellipse_knots,
                          normal_projection, pairwise_distances,
                          radial_distance)

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
    with pytest.raises(ValueError):
        ellipse_knots(Ellipse(np.zeros(2), 2.0, 1.0), 0)


@pytest.mark.parametrize("n", [1, 2, 5, 7, 16, 50])
def test_ellipse_knots_on_implicit_curve(n):
    e = Ellipse(np.array([0.5, -0.25]), 2.0, 1.0)
    ks = ellipse_knots(e, n)
    rel = ks.boundary_positions - e.center
    implicit = (rel[:, 0] / e.semi_major) ** 2 + (rel[:, 1] / e.semi_minor) ** 2
    np.testing.assert_allclose(implicit, 1.0, atol=1e-12)


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
    assert radial_distance([0.0, 0.0], [0.0, 0.0]) == 0.0
    assert radial_distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0, abs=1e-15)
    expected = np.sqrt(0.3**2 + 0.35**2)
    assert radial_distance([1.5, 0.0], [1.2, -0.35]) == pytest.approx(expected,
                                                                      abs=1e-15)


def test_radial_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        radial_distance([0.0, 0.0], [1.0, 2.0, 3.0])


@given(ax=coord, ay=coord, bx=coord, by=coord, cx=coord, cy=coord)
def test_radial_distance_metric_axioms(ax, ay, bx, by, cx, cy):
    a, b, c = [ax, ay], [bx, by], [cx, cy]
    dab = radial_distance(a, b)
    dba = radial_distance(b, a)
    assert dab == pytest.approx(dba, abs=1e-12)
    assert radial_distance(a, a) == 0.0
    assert radial_distance(a, c) <= dab + radial_distance(b, c) + 1e-12


def test_normal_projection_collinear_orthogonal_degenerate():
    assert normal_projection([1.0, 0.0], [0.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
    assert normal_projection([0.0, 1.0], [0.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0)
    assert normal_projection([0.3, -0.7], [0.3, -0.7], [1.0, 0.0]) == 0.0


@given(ax=coord, ay=coord, sx=coord, sy=coord, angle=st.floats(0, 2 * np.pi))
def test_normal_projection_bounded(ax, ay, sx, sy, angle):
    n = [np.cos(angle), np.sin(angle)]
    p = normal_projection([ax, ay], [sx, sy], n)
    assert abs(p) <= 1.0 + 1e-12


def test_boundary_knot_validates_unit_normal():
    with pytest.raises(ValueError):
        BoundaryKnot(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    k = BoundaryKnot(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert k.position.shape == (2,)


def test_knotset_rejects_coincident_knots():
    pos = np.array([[1.0, 0.0], [1.0, 0.0]])
    nor = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateGeometryError):
        KnotSet(pos, nor)


def test_knotset_rejects_coincident_interior():
    ks = ellipse_knots(Ellipse(np.zeros(2), 2.0, 1.0), 4)
    with pytest.raises(DegenerateGeometryError):
        ks.with_interior(np.array([[0.3, 0.2], [0.3, 0.2]]))


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
    base = ellipse_knots(Ellipse(np.zeros(2), 2.0, 1.0), 6) \
        .with_interior(np.array([[0.1, 0.2]]))
    mixed = base.with_dirichlet_count(4)
    assert (mixed.dirichlet_count, base.dirichlet_count) == (4, 6)
    for name in ("distances", "all_positions", "boundary_positions",
                 "boundary_normals", "interior"):
        assert getattr(mixed, name) is getattr(base, name)
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


@given(point_set_pairs())
def test_pairwise_distances_bit_identical_to_norm(pair):
    a, b = pair
    expected = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    got = pairwise_distances(a, b)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_pairwise_distances_dimension_mismatch():
    with pytest.raises(ValueError):
        pairwise_distances(np.zeros((2, 2)), np.zeros((3, 3)))


def test_knotset_distances_read_only_and_exact():
    base = ellipse_knots(Ellipse(np.array([0.5, -1.0]), 3.0, 1.5), 9)
    variants = [base, base.with_interior(np.array([[0.1, -0.9], [1.2, -1.3]])),
                base.with_dirichlet_count(4),
                base.with_interior(np.array([[0.4, -0.6]])).with_dirichlet_count(2)]
    for ks in variants:
        d = ks.distances
        assert d.shape == (ks.size, ks.size)
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[0, 1] = 0.0
        diag = np.diag(d)
        assert np.all(diag == 0.0) and not np.any(np.signbit(diag))
        full = pairwise_distances(ks.all_positions, ks.all_positions)
        assert d.tobytes() == full.tobytes()


def test_knotset_immutable_arrays():
    ks = ellipse_knots(Ellipse(np.zeros(2), 2.0, 1.0), 5)
    with pytest.raises(ValueError):
        ks.boundary_positions[0, 0] = 99.0


def test_ellipse_validation():
    with pytest.raises(ValueError):
        Ellipse(np.zeros(2), 1.0, 2.0)   # a < b
    with pytest.raises(ValueError):
        Ellipse(np.zeros(2), 1.0, 0.0)


def test_knots_property_round_trip():
    ks = ellipse_knots(Ellipse(np.zeros(2), 2.0, 1.0), 3)
    knots = ks.knots
    assert len(knots) == 3
    np.testing.assert_array_equal(knots[1].position, ks.boundary_positions[1])
