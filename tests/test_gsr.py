import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bkm.errors import IllConditionedError
from bkm.gsr import (KINDS, ConstrainedFit, GsrKernel, constrained_interpolate,
                     evaluate_constrained, timespace_distance)
from oracles import gsr_bordered_beta, gsr_kernel_row, mp_solve, safe_log

coord = st.floats(min_value=-20.0, max_value=20.0,
                  allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# Kernel constructors
# ---------------------------------------------------------------------------

def test_simple_kind_is_thin_plate_spline():
    tps = GsrKernel("simple", g=np.log, m=1)
    for r in np.linspace(0.01, 10.0, 200):
        assert tps(r) == pytest.approx(r * r * np.log(r), abs=1e-12 * max(1, r * r))


def test_prewavelet_simple_form_and_origin_value():
    k = GsrKernel("simple", g=np.log, m=1, prewavelet_c=0.5)
    for r in (0.3, 1.0, 4.2):
        expected = r * r * np.log(np.sqrt(r * r + 0.25))
        assert k(r) == pytest.approx(expected, rel=1e-14)
    assert k(0.0) == 0.0   # the r^2 factor wins against log c


@pytest.mark.parametrize("kind", ["simple", "interior", "dirichlet", "neumann"])
def test_prewavelet_reduces_to_plain_at_zero_dilation(kind):
    kwargs = dict(g=safe_log, m=1)
    if kind == "interior":
        kwargs.update(forcing=lambda x: 1.0 + x[..., 0], rho_of_g=lambda r: 0.1 * r)
    if kind == "dirichlet":
        kwargs.update(dirichlet=lambda x: 2.0 - x[..., 1], g_dr=lambda r: 1.0 / r)
    if kind == "neumann":
        kwargs.update(neumann=lambda x: x[..., 0] * x[..., 1])
    plain = GsrKernel(kind, **kwargs)
    wavelet = GsrKernel(kind, prewavelet_c=0.0, **kwargs)
    src = np.array([0.4, -0.2])
    for r in np.linspace(0.05, 8.0, 50):
        assert wavelet(r, src) == plain(r, src)


def test_interior_kind_formula():
    f = lambda x: 2.0 + x[..., 0]
    rho = lambda r: 0.5 * r
    k = GsrKernel("interior", g=safe_log, m=1, forcing=f, rho_of_g=rho)
    src = np.array([1.0, 0.0])
    r = 2.0
    assert k(r, src) == pytest.approx((3.0 + 1.0) * r**2 * np.log(r))


def test_interior_kind_zero_data_is_zero():
    k = GsrKernel("interior", g=safe_log, m=1, forcing=lambda x: 0.0,
                  rho_of_g=None)
    assert k(1.7, np.array([0.3, 0.3])) == 0.0


def test_interior_rho_term_can_be_dropped():
    f = lambda x: 1.0
    rho = lambda r: 10.0 * r
    keep = GsrKernel("interior", g=safe_log, m=1, forcing=f, rho_of_g=rho)
    drop = GsrKernel("interior", g=safe_log, m=1, forcing=f, rho_of_g=None)
    src = np.zeros(2)
    assert keep(2.0, src) == pytest.approx((1.0 + 20.0) * 4.0 * np.log(2.0))
    assert drop(2.0, src) == pytest.approx(4.0 * np.log(2.0))


def test_dirichlet_kind_uses_radial_derivative():
    d = lambda x: 3.0
    k = GsrKernel("dirichlet", g=safe_log, m=1, dirichlet=d, g_dr=lambda r: 1.0 / r)
    assert k(2.0, np.zeros(2)) == pytest.approx(3.0 * 4.0 * 0.5)


def test_neumann_kind_weights_value():
    k = GsrKernel("neumann", g=safe_log, m=2, neumann=lambda x: -2.0)
    assert k(2.0, np.zeros(2)) == pytest.approx(-2.0 * 16.0 * np.log(2.0))


def test_smoothing_power_can_be_dropped():
    k = GsrKernel("simple", g=safe_log, m=0)
    assert k(2.0) == pytest.approx(np.log(2.0))


def test_wave_kind_formula():
    f = lambda node: node[..., 0] + node[..., -1]  # f(x, t) on the space-time node
    k = GsrKernel("wave", g=np.cos, m=1, forcing=f)
    node = np.array([0.5, 2.0])
    assert k(1.2, node) == pytest.approx(1.2**2 * np.cos(1.2) * 2.5)


def test_extended_helmholtz_literal_form():
    h = np.cos
    h_tt = lambda r: -np.cos(r)
    f = lambda node: 0.25
    k = GsrKernel("extended_helmholtz", g=h, g_tt=h_tt, forcing=f, wave_speed=2.0)
    r = 0.8
    bracket = 0.25 + np.cos(r) + (1.0 + 0.25) * (-np.cos(r))
    assert k(r, np.zeros(3)) == pytest.approx(np.cos(r) * bracket)


def test_transient_kind_formula():
    g = lambda r, t: np.exp(-r * r / (1.0 + t))
    f = lambda node: 2.0
    k = GsrKernel("transient", g=g, m=1, forcing=f)
    node = np.array([0.0, 0.5])            # (x, t)
    assert k(1.0, node) == pytest.approx(0.25 * np.exp(-1.0 / 1.5) * 2.0)


def test_gsr_kernel_validation():
    # the pre-wavelet substitution is for the four space kinds only
    with pytest.raises(ValueError, match="pre-wavelet"):
        GsrKernel("wave", g=np.cos, forcing=lambda n: 1.0, prewavelet_c=1.0)
    kwargs = REFERENCE_KERNELS["extended_helmholtz"][1]
    for speed in (None, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="wave_speed"):
            GsrKernel("extended_helmholtz", **{**kwargs, "wave_speed": speed})
    assert set(KINDS) >= {"simple", "wave", "transient"}


@pytest.mark.parametrize("kind, kwargs, match", [
    ("dirichlet", dict(g=np.log), "dirichlet must be callable, got None"),
    ("bogus", dict(g=np.log), "kind must be one of"),
    ("simple", dict(g=np.cos, prewavelet_c=np.nan), "prewavelet_c"),
    ("simple", dict(g=np.cos, m=-1), "smoothness exponent m out of range"),
    ("simple", dict(g=np.cos, m=1.5), "smoothness exponent m must be a whole"),
], ids=["missing-data", "unknown-kind", "nan-dilation", "negative-m", "fractional-m"])
def test_gsr_kernel_refuses_bad_input_at_construction(kind, kwargs, match):
    with pytest.raises(ValueError, match=match):
        GsrKernel(kind, **kwargs)


#: The callables each kind reads when it is called.
NEEDED_CALLABLES = {
    "interior": ("g",), "simple": ("g",), "dirichlet": ("g", "dirichlet", "g_dr"),
    "neumann": ("g", "neumann"), "wave": ("g", "forcing"),
    "extended_helmholtz": ("g", "forcing", "g_tt"), "transient": ("g", "forcing"),
}


@pytest.mark.parametrize("kind", KINDS)
def test_gsr_kernel_refuses_a_missing_callable(kind):
    kwargs = REFERENCE_KERNELS[kind][1]
    GsrKernel(kind, **kwargs)
    for name in NEEDED_CALLABLES[kind]:
        for missing in (None, 2.0):
            with pytest.raises(ValueError, match=f"{name} must be callable"):
                GsrKernel(kind, **{**kwargs, name: missing})


def test_gsr_kernel_refuses_data_that_is_not_callable():
    # optional or unused data may be None, but nothing else
    for kind, name in (("interior", "forcing"), ("interior", "rho_of_g"),
                       ("simple", "neumann")):
        with pytest.raises(ValueError, match=f"{name} must be callable, got 2.0"):
            GsrKernel(kind, g=np.log, **{name: 2.0})


def test_gsr_kernel_fields_after_g_are_keyword_only():
    with pytest.raises(TypeError):
        GsrKernel("simple", np.log, 2)
    assert GsrKernel("simple", np.log, m=2).m == 2


def test_gsr_kernel_normalises_m_and_the_dilation():
    k = GsrKernel("simple", g=np.log, m=np.float64(2.0), prewavelet_c=1)
    assert type(k.m) is int and k.m == 2
    assert type(k.prewavelet_c) is float and k.prewavelet_c == 1.0


# ---------------------------------------------------------------------------
# Time-space distance
# ---------------------------------------------------------------------------

def test_timespace_distance_basics():
    assert timespace_distance([0.0, 0.0], [0.0, 0.0]) == 0.0
    assert timespace_distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        timespace_distance([0.0, 0.0], [1.0, 2.0, 3.0])
    for p, q in (([0.0, np.inf], [0.0, 0.0]), ([0.0, 0.0], [-np.inf, 1.0])):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            timespace_distance(p, q)


@given(ax=coord, at=coord, bx=coord, bt=coord, cx=coord, ct=coord)
def test_timespace_distance_metric_axioms(ax, at, bx, bt, cx, ct):
    a, b, c = [ax, at], [bx, bt], [cx, ct]
    assert timespace_distance(a, b) == pytest.approx(timespace_distance(b, a),
                                                     abs=1e-12)
    assert timespace_distance(a, a) == 0.0
    assert timespace_distance(a, c) <= (timespace_distance(a, b) +
                                        timespace_distance(b, c) + 1e-12)


# ---------------------------------------------------------------------------
# Constrained interpolation
# ---------------------------------------------------------------------------

def tps_kernel():
    return GsrKernel("simple", g=safe_log, m=1)


def test_exact_zero_components_pass_the_normwise_gate():
    # a bordered TPS system (condition ~31) with a node at the origin, drawn
    # by test_constrained_fit_property: its answer holds exact zeros where
    # the right-hand side is 0, so its componentwise backward error is ~1,
    # although the answer is exact to round-off. A normwise gate accepts it
    nodes = 0.1 * np.array([[-3.0, -1.0], [0.0, -1.0], [0.0, 0.0]])
    psi = lambda x: x[..., 0]
    rhs = np.array([-1.4, 0.0, 0.0, 0.0])
    fit = constrained_interpolate(nodes, tps_kernel(), psi, rhs[:3])
    bordered = np.zeros((4, 4))
    for i, x in enumerate(nodes):
        bordered[i, :3] = gsr_kernel_row(tps_kernel(), nodes, x)
        bordered[i, 3] = bordered[3, i] = psi(x)
    resid = np.abs(rhs - bordered @ fit.beta)
    scale = np.abs(bordered) @ np.abs(fit.beta) + np.abs(rhs)
    assert np.max(resid / np.maximum(scale, 1e-300)) > 0.5
    exact = mp_solve(bordered, rhs)
    assert np.max(np.abs(fit.beta - exact)) <= 1e-14 * np.max(np.abs(exact))


def test_constraint_absorbs_psi_samples():
    rng = np.random.default_rng(0)
    nodes = rng.uniform(-1, 1, size=(8, 2))
    psi = lambda x: 1.0 + 2.0 * x[..., 0] - x[..., 1]
    values = np.array([psi(x) for x in nodes])
    fit = constrained_interpolate(nodes, tps_kernel(), psi, values)
    np.testing.assert_allclose(fit.beta[:-1], 0.0, atol=1e-9)
    assert fit.beta[-1] == pytest.approx(1.0, abs=1e-9)


def test_zero_values_give_zero_coefficients():
    rng = np.random.default_rng(1)
    nodes = rng.uniform(-1, 1, size=(6, 2))
    fit = constrained_interpolate(nodes, tps_kernel(), lambda x: 1.0, np.zeros(6))
    np.testing.assert_allclose(fit.beta, 0.0, atol=1e-12)


def test_random_fit_interpolates_and_satisfies_side_condition():
    rng = np.random.default_rng(2)
    nodes = rng.uniform(-1, 1, size=(10, 2))
    values = rng.standard_normal(10)
    fit = constrained_interpolate(nodes, tps_kernel(), lambda x: 1.0, values)
    reproduced = np.array([evaluate_constrained(fit, x) for x in nodes])
    scale = np.max(np.abs(values))
    assert np.max(np.abs(reproduced - values)) <= 1e-9 * scale
    assert abs(fit.side_condition) <= 1e-10
    assert abs(np.sum(fit.beta[:-1])) <= 1e-10   # psi = 1 makes these equal


def test_constrained_fit_with_nonconstant_psi():
    rng = np.random.default_rng(3)
    nodes = rng.uniform(-2, 2, size=(12, 2))
    psi = lambda x: x[..., 0]
    values = np.sin(nodes[:, 0]) + nodes[:, 1]
    fit = constrained_interpolate(nodes, tps_kernel(), psi, values)
    reproduced = np.array([evaluate_constrained(fit, x) for x in nodes])
    np.testing.assert_allclose(reproduced, values, atol=1e-9)
    assert abs(fit.side_condition) <= 1e-10


def test_constrained_interpolate_validation():
    with pytest.raises(ValueError):
        constrained_interpolate(np.empty((0, 2)), tps_kernel(), lambda x: 1.0, [])
    nodes = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        constrained_interpolate(nodes, tps_kernel(), lambda x: 1.0, [1.0])


def test_constrained_interpolate_singular_system():
    # identical psi = 0 column makes the bordered system singular
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises((IllConditionedError, np.linalg.LinAlgError)):
        constrained_interpolate(nodes, tps_kernel(), lambda x: 0.0,
                                np.array([1.0, 2.0, 3.0]))


def test_timespace_nodes_with_wave_kernel():
    # nodes carry (x, t); the kernel sees time-space radii
    nodes = np.array([[0.0, 0.0], [1.0, 0.5], [0.3, 1.5], [-0.7, 2.0]])
    kernel = GsrKernel("wave", g=lambda r: np.exp(-r), m=1,
                       forcing=lambda node: 1.0 + 0.1 * node[..., -1])
    values = np.array([0.5, -1.0, 2.0, 0.25])
    fit = constrained_interpolate(nodes, kernel, lambda x: 1.0, values)
    reproduced = np.array([evaluate_constrained(fit, x) for x in nodes])
    np.testing.assert_allclose(reproduced, values, atol=1e-9)


def three_node_fit():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return constrained_interpolate(nodes, tps_kernel(), lambda x: 1.0,
                                   np.array([1.0, 2.0, 3.0]))


def test_evaluate_constrained_refuses_non_finite_points():
    fit = three_node_fit()
    for bad in ([np.nan, 0.0], [[0.2, 0.1], [np.inf, 0.0]]):
        with pytest.raises(ValueError, match="finite"):
            evaluate_constrained(fit, bad)


def test_evaluate_constrained_refuses_a_dimension_mismatch():
    fit = three_node_fit()
    for bad in ([0.1, 0.2, 0.3], [[0.1, 0.2, 0.3]]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            evaluate_constrained(fit, bad)


# ---------------------------------------------------------------------------
# Batched construction against the per-entry reference
# ---------------------------------------------------------------------------

def decay(r):
    return np.exp(-r)


#: One kernel per kind, the data-weighted ones with data that varies from
#: node to node, so a source weighting the wrong axis changes the matrix.
REFERENCE_KERNELS = {
    "simple": ("simple", dict(g=safe_log, m=1)),
    "prewavelet": ("simple", dict(g=safe_log, m=1, prewavelet_c=0.5)),
    "interior": ("interior", dict(g=safe_log, m=1, forcing=lambda x: 2.0 + x[..., 0],
                                  rho_of_g=lambda r: 0.1 * r)),
    "dirichlet": ("dirichlet", dict(g=decay, m=1, dirichlet=lambda x: 2.0 - x[..., 1],
                                    g_dr=lambda r: -np.exp(-r))),
    "neumann": ("neumann", dict(g=safe_log, m=2,
                                neumann=lambda x: 1.0 + x[..., 0] * x[..., 1])),
    "wave": ("wave", dict(g=decay, m=1, forcing=lambda x: 1.0 + 0.1 * x[..., -1])),
    "extended_helmholtz": ("extended_helmholtz", dict(
        g=decay, g_tt=decay, forcing=lambda x: 1.0 + x[..., 0] ** 2, wave_speed=2.0)),
    "transient": ("transient", dict(g=lambda r, t: np.exp(-r * r / (1.0 + t)), m=1,
                                    forcing=lambda x: 2.0 + x[..., 0])),
}


@pytest.mark.parametrize("dim", [2, 3], ids=["plane", "space-time"])
@pytest.mark.parametrize("case", sorted(REFERENCE_KERNELS))
def test_fit_and_evaluation_match_the_per_entry_reference(case, dim):
    kind, kwargs = REFERENCE_KERNELS[case]
    kernel = GsrKernel(kind, **kwargs)
    psi = lambda x: 1.0 + x[..., 0]
    rng = np.random.default_rng(12)
    nodes = rng.uniform(0.2, 1.5, size=(8, dim))   # t = x[..., -1] > 0
    values = rng.standard_normal(8)
    fit = constrained_interpolate(nodes, kernel, psi, values)
    reference = gsr_bordered_beta(kernel, psi, nodes, values)
    # the bordered condition numbers here stay below 1e5 and the entries
    # agree to a few ulps, so beta agrees to ~1e5 * eps; 1e-10 leaves room
    np.testing.assert_allclose(fit.beta, reference, rtol=0,
                               atol=1e-10 * np.max(np.abs(reference)))

    probes = rng.uniform(0.0, 1.7, size=(5, dim))
    expected = np.array([gsr_kernel_row(kernel, nodes, p) @ reference[:-1] +
                         reference[-1] * psi(p) for p in probes])
    np.testing.assert_allclose(evaluate_constrained(fit, probes), expected, rtol=0,
                               atol=1e-10 * np.max(np.abs(expected)))


lattice_nodes = st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                         min_size=1, max_size=15, unique=True)


@settings(max_examples=60, deadline=None)
@given(cells=lattice_nodes, data=st.data(), constant_psi=st.booleans())
def test_constrained_fit_property(cells, data, constant_psi):
    # nodes on a 0.1 lattice in [-2, 2]^2 are at least 0.1 apart
    nodes = 0.1 * np.array(cells, dtype=float)
    n = len(nodes)
    values = 0.1 * np.array(data.draw(st.lists(st.integers(-100, 100),
                                               min_size=n, max_size=n)), dtype=float)
    psi = (lambda x: 1.0) if constant_psi else (lambda x: x[..., 0])
    try:
        fit = constrained_interpolate(nodes, tps_kernel(), psi, values)
    except IllConditionedError:
        return
    points = np.concatenate([nodes, nodes + 0.05])
    single = [evaluate_constrained(fit, p) for p in points]
    assert all(isinstance(v, float) for v in single)
    single = np.array(single)
    batch = evaluate_constrained(fit, points)
    assert batch.shape == (2 * n,)
    assert np.max(np.abs(batch - single)) <= 1e-12 * np.max(np.abs(single))
    assert np.max(np.abs(batch[:n] - values)) <= 1e-9 * np.max(np.abs(values))
    assert abs(fit.side_condition) <= 1e-10
