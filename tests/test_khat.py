import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernlab import builders
from chernlab.errors import (
    ChernLabError,
    NotBasedAtIdentity,
    ShapeMismatch,
    UnsupportedDomain,
    WindowTooSmall,
)
from chernlab.geomgrid import SampledMap, integrate, make_domain
from chernlab.khat import (
    CircleConnection,
    a_even,
    a_odd,
    classifying_projection_loop,
    cs_of_nullhomotopy,
    holonomy_log_det,
    khat_class,
    point_class_odd,
    strip_stabilization,
    underlying_I,
)
from chernlab.kops import blocksum_map, inversion_homotopy_even, inversion_homotopy_odd, lobatto_rule
from chernlab.stiefel import PolarizedWindow
from homotopy_stacks import stacked_homotopy

WINDINGS = st.integers(min_value=-2, max_value=2)


@settings(max_examples=25, deadline=None)
@given(WINDINGS, WINDINGS)
def test_khat_winding_is_additive_under_blocksum(a, b):
    f, g = builders.loop_zn(a, res=64), builders.loop_zn(b, res=64)
    assert khat_class(blocksum_map(f, g)).invariants["winding"] == a + b


@pytest.mark.parametrize("make", [lambda: builders.loop_zn(1, res=64), builders.su2_chart], ids=["zn1", "su2"])
def test_cs_of_nullhomotopy_lifts_the_exterior_derivative(make):
    report = cs_of_nullhomotopy(inversion_homotopy_odd(make()).reversed())
    assert report["lift_residuals"]
    assert max(report["lift_residuals"].values()) < 1e-10


def test_cs_of_nullhomotopy_lifts_the_exterior_derivative_on_projections():
    dom = make_domain("torus2", (16, 16))
    x = builders.random_unitary_map(np.random.default_rng(6), dom, size=4, window=PolarizedWindow(2, 2))
    report = cs_of_nullhomotopy(inversion_homotopy_even(x, t_res=9).reversed())
    assert [f.form_degree for f in report["forms"]] == [1]
    assert set(report["lift_residuals"]) == {1}
    assert report["lift_residuals"][1] < 1e-10


def test_cs_of_nullhomotopy_checks_the_projections_of_frames():
    dom = make_domain("torus2", (16, 16))
    x = builders.random_unitary_map(np.random.default_rng(6), dom, size=4, window=PolarizedWindow(2, 2))
    h = inversion_homotopy_even(x, t_res=9)
    back = h.reversed()
    pi_plus = back.window.pi_plus
    # the first frame spans the positive modes without being their columns
    assert np.abs(back.slices[0] - pi_plus[:, back.window.n_minus :]).max() > 0.1
    assert np.abs(back.slices[0] @ np.swapaxes(back.slices[0], -1, -2).conj() - pi_plus).max() < 1e-12
    assert cs_of_nullhomotopy(back)["lift_residuals"][1] < 1e-10
    with pytest.raises(NotBasedAtIdentity, match="away from the basepoint"):
        cs_of_nullhomotopy(h)


def test_cs_of_nullhomotopy_needs_the_basepoint_at_the_start():
    h = inversion_homotopy_odd(builders.loop_zn(1, res=64))  # starts at f (+) f*, not at 1
    with pytest.raises(NotBasedAtIdentity, match="away from the basepoint"):
        cs_of_nullhomotopy(h)


def test_underlying_class_of_a_torus_map_is_unsupported():
    with pytest.raises(UnsupportedDomain, match="circle domain, got torus2"):
        underlying_I(builders.su2_chart(res=8))


def _constant(dom, matrix, codomain, window=None):
    """The constant map ``matrix`` with its zero partials."""
    values = np.broadcast_to(np.asarray(matrix, dtype=complex), (*dom.node_shape, *np.shape(matrix)))
    return SampledMap(dom, values, codomain=codomain, window=window, partials=(np.zeros(values.shape),) * dom.dim)


def test_strip_stabilization_keeps_the_partials_of_a_unitary():
    dom = make_domain("circle", 32)
    f = builders.random_unitary_map(np.random.default_rng(40), dom, size=2)
    one = _constant(dom, np.eye(2), "unitary")
    g = blocksum_map(blocksum_map(f, one), _constant(dom, np.eye(4), "unitary"))
    stripped = strip_stabilization(g)  # both basepoint strands peel off
    assert np.array_equal(stripped.values, f.values)
    assert np.array_equal(stripped.partials[0], f.partials[0])
    assert np.array_equal(khat_class(g).representative.partials[0], f.partials[0])


def test_strip_stabilization_halves_the_window_of_a_projection():
    dom = make_domain("circle", 32)
    win = PolarizedWindow(2, 2)
    p = builders.random_projection_map(np.random.default_rng(41), dom, win)
    g = blocksum_map(p, _constant(dom, win.pi_plus, "projection", win))
    assert g.window == PolarizedWindow(4, 4)
    stripped = strip_stabilization(g)
    assert stripped.window == win
    assert np.array_equal(stripped.values, p.values)
    assert np.array_equal(stripped.partials[0], p.partials[0])


def _tagged_stabilized_unitary(window):
    """``f (+) 1`` for a 2 x 2 unitary circle map ``f`` with exact partials,
    tagged with ``window``."""
    dom = make_domain("circle", 16)
    f = builders.random_unitary_map(np.random.default_rng(43), dom, size=2)
    g = blocksum_map(f, _constant(dom, np.eye(2), "unitary"))
    return f, SampledMap(dom, g.values, codomain="unitary", window=window, partials=g.partials)


def test_strip_stabilization_stops_at_a_window_with_an_odd_side():
    _, g = _tagged_stabilized_unitary(PolarizedWindow(1, 3))
    assert strip_stabilization(g) is g


def test_strip_stabilization_halves_the_window_of_a_unitary():
    f, g = _tagged_stabilized_unitary(PolarizedWindow(2, 2))
    stripped = strip_stabilization(g)
    assert stripped.window == PolarizedWindow(1, 1)
    assert np.array_equal(stripped.values, f.values)
    assert np.array_equal(stripped.partials[0], f.partials[0])


def test_strip_stabilization_keeps_strands_that_mix():
    dom = make_domain("circle", 32)
    f = builders.random_unitary_map(np.random.default_rng(42), dom, size=2)
    g = blocksum_map(f, _constant(dom, np.eye(2), "unitary"))
    # a constant rotation of each (even, odd) strand pair: unitary, with cross strands
    c, s = np.cos(0.3), np.sin(0.3)
    r = np.kron(np.eye(2), [[c, -s], [s, c]])
    mixed = SampledMap(dom, r @ g.values @ r.T, codomain="unitary")
    assert strip_stabilization(mixed) is mixed


def mod1_distance(x, y):
    d = (x - y) % 1.0
    return min(d, 1.0 - d)


A_ODD_CASES = [(-2, 0.2, 0.3), (0, 0.1, 0.85), (1, -0.15, 0.05), (3, 0.25, 1.6)]


@pytest.mark.parametrize("n, eps, offset", A_ODD_CASES)
def test_a_odd_winding_curvature_and_point_class(n, eps, offset):
    # phi = n theta / 2pi + eps sin(theta) + offset; the representative exp(-2 pi i phi)
    # winds -n, ch_1 = phi' d(theta) integrates to n, and det at theta = 0 is exp(-2 pi i offset)
    theta = make_domain("circle", 128).axes[0].coords
    data = a_odd(n * theta / (2.0 * np.pi) + eps * np.sin(theta) + offset)
    assert data.invariants["winding"] == -n
    total = integrate(data.curvature[0])
    assert abs(-total - data.invariants["winding"]) < 1e-12
    assert mod1_distance(data.invariants["det_phase_mod1"], -offset) < 1e-12
    assert data.checks["square_commutes_residual"] < 1e-12


@pytest.mark.parametrize("n, eps, offset", A_ODD_CASES)
def test_curvature_of_the_action_is_the_exterior_derivative(n, eps, offset):
    # R(a(phi)) = d phi, node by node
    theta = make_domain("circle", 128).axes[0].coords
    ch1 = a_odd(n * theta / (2.0 * np.pi) + eps * np.sin(theta) + offset).curvature[0]
    dphi = n / (2.0 * np.pi) + eps * np.cos(theta)
    assert np.abs(ch1.component((0,)) - dphi).max() < 1e-12


def _band_blocksum(seed):
    rng = np.random.default_rng(seed)
    return blocksum_map(
        builders.random_band_loop(rng, rank=2, winding=[1, -2]), builders.random_band_loop(rng, rank=2, winding=[2, 0])
    )


@pytest.mark.parametrize(
    "make",
    [*(lambda n=n: builders.loop_zn(n, res=64) for n in range(-2, 3)), *(lambda s=s: _band_blocksum(s) for s in (0, 1))],
    ids=[*(f"zn{n}" for n in range(-2, 3)), "bands0", "bands1"],
)
def test_curvature_and_underlying_class_square_commutes(make):
    data = khat_class(make())
    assert data.parity == "odd"
    assert data.checks["square_commutes_residual"] < 1e-10


def test_class_data_forgets_a_basepoint_strand():
    dom = make_domain("circle", 32)
    f = builders.random_unitary_map(np.random.default_rng(44), dom, size=2)
    plain, padded = khat_class(f), khat_class(blocksum_map(f, _constant(dom, np.eye(2), "unitary")))
    assert padded.invariants == plain.invariants
    assert [x.form_degree for x in padded.curvature] == [x.form_degree for x in plain.curvature]
    for a, b in zip(padded.curvature, plain.curvature):
        assert np.array_equal(a.component((0,)), b.component((0,)))


def test_a_odd_takes_one_sample_per_circle_node():
    with pytest.raises(ShapeMismatch):
        a_odd(np.zeros((16, 2)))


@pytest.mark.parametrize("phases", [(0.3,), (0.25, 0.5), (0.9, 0.4, -0.2), (0.5, 0.5, 0.5, 0.125)])
def test_point_class_odd_is_the_phase_sum_mod_one(phases):
    u = np.diag(np.exp(2j * np.pi * np.array(phases)))
    assert mod1_distance(point_class_odd(u), sum(phases)) < 1e-12


def test_khat_class_takes_every_loop_that_the_unitary_tag_accepts():
    f = builders.loop_zn(1, res=16, pad=3)
    # the Frobenius defect of u*u - 1 at a node is 9.70e-9, just under the
    # one rule (1e-8) of the tag and of require_unitary, so a raw node passes too
    g = SampledMap(f.domain, f.values * (1.0 + 2.8e-9), codomain="unitary")
    assert mod1_distance(point_class_odd(g.values[0]), 0.0) < 1e-12
    data = khat_class(g)
    assert data.invariants["winding"] == 1
    assert mod1_distance(data.invariants["det_phase_mod1"], 0.0) < 1e-12


@pytest.mark.parametrize("c_plus, c_minus", [(0.7, 0.2), (-1.2, 0.45), (2.3, -0.9)])
def test_holonomy_log_det_coefficient_is_the_integral_difference_mod_one(c_plus, c_minus):
    dom = make_domain("circle", 64)
    theta = dom.axes[0].coords
    plus = CircleConnection(dom, c_plus + 0.3 * np.cos(theta))
    minus = CircleConnection(dom, c_minus + 0.5 * np.sin(2.0 * theta))
    form = holonomy_log_det(plus, minus)
    expected = (plus.integral() - minus.integral()) / (2.0 * np.pi)
    coeff = form.component((0,))
    assert np.all(coeff == coeff[0]) and abs(coeff[0].imag) == 0.0
    assert mod1_distance(coeff[0].real, expected) < 1e-12
    assert -0.5 < coeff[0].real <= 0.5


@pytest.mark.parametrize("window", [None, PolarizedWindow(1, 1), PolarizedWindow(3, 4)], ids=["default", "w11", "w34"])
def test_a_even_represents_by_the_classifying_loop_itself(window):
    dom = make_domain("circle", 64)
    alpha = CircleConnection(dom, 0.7 + 0.3 * np.cos(dom.axes[0].coords))
    data = a_even(alpha, window)
    assert np.array_equal(data.representative.values, classifying_projection_loop(alpha, window).values)
    assert data.parity == "even" and data.invariants == {"virtual_dimension": 0}
    assert [x.form_degree for x in data.curvature] == [0]


def test_a_even_needs_modes_zero_and_minus_one_in_the_window():
    with pytest.raises(WindowTooSmall):
        a_even(CircleConnection.constant(0.7), PolarizedWindow(0, 2))


_LINE = np.diag([1.0, 0.0]).astype(complex)


def _constant_homotopy(codomain):
    """Five slices ``_LINE`` over the 8-node circle, with no window and a zero time jet."""
    slices = np.broadcast_to(_LINE, (5, 8, 2, 2)).copy()
    times, quadrature = lobatto_rule(5, 0.0, 1.0)
    return stacked_homotopy(make_domain("circle", 8), times, quadrature, slices, codomain=codomain)


def _circle_map(codomain):
    return SampledMap(make_domain("circle", 8), np.broadcast_to(_LINE, (8, 2, 2)), codomain=codomain)


CONTRACT_CHECKS = {
    "connection domain": (
        lambda: CircleConnection(make_domain("torus2", (8, 8)), np.zeros((8, 8))),
        UnsupportedDomain,
        "circle connections live on circle grids",
    ),
    "connection samples": (
        lambda: CircleConnection(make_domain("circle", 8), np.zeros(7)),
        ShapeMismatch,
        "connection samples do not match the grid",
    ),
    "connection NaN sample": (lambda: CircleConnection.constant(np.nan), ShapeMismatch, "connection samples must be finite"),
    "connection inf sample": (
        lambda: CircleConnection(make_domain("circle", 8), np.array([0.0, 0.1, 0.2, np.inf, 0.4, 0.5, 0.6, 0.7])),
        ShapeMismatch,
        "connection samples must be finite",
    ),
    "underlying_I of an unwindowed projection": (
        lambda: underlying_I(_circle_map("projection")),
        UnsupportedDomain,
        "even underlying class needs a windowed circle map",
    ),
    "underlying_I tag": (
        lambda: underlying_I(_circle_map("generic")),
        UnsupportedDomain,
        "underlying class needs a unitary or projection map",
    ),
    "holonomy_log_det grids": (
        lambda: holonomy_log_det(CircleConnection.constant(0.3), CircleConnection(make_domain("circle", 8), np.zeros(8))),
        ShapeMismatch,
        "connections must share one circle grid",
    ),
    "nullhomotopy without a window": (
        lambda: cs_of_nullhomotopy(_constant_homotopy("projection")),
        NotBasedAtIdentity,
        "projection nullhomotopy needs a window basepoint",
    ),
    "nullhomotopy tag": (
        lambda: cs_of_nullhomotopy(_constant_homotopy("generic")),
        ShapeMismatch,
        "nullhomotopy slices must be unitary or projection",
    ),
}


@pytest.mark.parametrize("name", CONTRACT_CHECKS)
def test_contract_checks_raise_their_errors(name):
    call, error, fragment = CONTRACT_CHECKS[name]
    assert issubclass(error, ChernLabError)
    with pytest.raises(error, match=fragment):
        call()
