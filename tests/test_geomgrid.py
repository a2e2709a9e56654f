import numpy as np
import pytest

from chernlab.builders import loop_zn
from chernlab.errors import BadResolution, ChernLabError, DegreeMismatch, DegreeOverflow, ShapeMismatch
from chernlab.geomgrid import (
    Axis,
    GradedForm,
    SampledMap,
    cycle_integral,
    differentiate,
    exactness_residual,
    form_derivative,
    generating_cycles,
    integrate,
    make_domain,
    sub_grid,
)
from chernlab.kops import lobatto_rule
from chernlab.stiefel import PolarizedWindow


def circle_map(res, fn):
    dom = make_domain("circle", res)
    th = dom.axes[0].coords
    values = np.array([np.atleast_2d(fn(t)) for t in th])
    return SampledMap(dom, values)


# ---------------------------------------------------------------- domains


def test_circle_node_coordinates():
    dom = make_domain("circle", 8)
    assert np.allclose(dom.axes[0].coords, 2 * np.pi * np.arange(8) / 8)


def test_torus2_node_count():
    dom = make_domain("torus2", (16, 16))
    assert int(np.prod(dom.node_shape)) == 256


@pytest.mark.parametrize("tag", ["unitray", "Unitary", ""])
def test_sampled_map_rejects_an_unknown_codomain_tag(tag):
    dom = make_domain("circle", 8)
    with pytest.raises(ShapeMismatch, match="is not one of unitary, projection, frame, generic"):
        SampledMap(dom, np.broadcast_to(np.eye(2), (8, 2, 2)), codomain=tag)


def test_resolution_minimum_enforced():
    with pytest.raises(BadResolution):
        make_domain("circle", 4)


@pytest.mark.parametrize(
    "kind, res",
    [
        ("circle", (16, 16)),
        ("circle", ()),
        ("torus2", 16),
        ("torus2", (16, 16, 16)),
        ("torus3", (16, 16)),
    ],
)
def test_wrong_resolution_count_rejected(kind, res):
    with pytest.raises(BadResolution, match=kind):
        make_domain(kind, res)


def test_unknown_and_two_chart_kinds_rejected():
    # every axis is periodic: the interval and the cylinder are not domains
    for kind, res in (("cp1_charts", (9, 8)), ("sphere", (9, 8)), ("interval", 9), ("cylinder", (17, 16)), ("point", ())):
        with pytest.raises(BadResolution, match="unknown domain kind"):
            make_domain(kind, res)


# ---------------------------------------------------------------- jets


def test_constant_map_has_zero_jets():
    dom = make_domain("torus2", (16, 16))
    f = SampledMap(dom, np.full((16, 16, 1, 1), 2.0 + 1j))
    for p in differentiate(f):
        assert np.abs(p).max() < 1e-12


def test_spectral_derivative_matches_analytic():
    f = circle_map(256, lambda t: np.exp(1j * t))
    (d,) = differentiate(f)
    expected = np.array([[[1j * np.exp(1j * t)]] for t in f.domain.axes[0].coords])
    assert np.abs(d - expected).max() < 1e-10


def test_leibniz_rule_on_circle():
    dom = make_domain("circle", 128)
    th = dom.axes[0].coords
    a = np.exp(1j * th) + 0.5 * np.cos(2 * th)
    b = np.sin(th) + 2.0
    fa = SampledMap(dom, a[:, None, None])
    fb = SampledMap(dom, b[:, None, None].astype(complex))
    fab = SampledMap(dom, (a * b)[:, None, None])
    (da,) = differentiate(fa)
    (db,) = differentiate(fb)
    (dab,) = differentiate(fab)
    assert np.abs(dab - (da * b[:, None, None] + a[:, None, None] * db)).max() < 1e-8


def test_partials_of_wrong_count_rejected():
    dom = make_domain("torus2", (8, 8))
    values = np.zeros((8, 8, 2, 2))
    with pytest.raises(ShapeMismatch, match=r"2 x \(8, 8, 2, 2\)"):
        SampledMap(dom, values, partials=(values,))


def test_partials_of_wrong_shape_rejected():
    dom = make_domain("torus2", (8, 8))
    values = np.zeros((8, 8, 2, 2))
    with pytest.raises(ShapeMismatch, match=r"2 x \(8, 8, 2, 2\)"):
        SampledMap(dom, values, partials=(values, np.zeros((8, 8, 2, 1))))


def test_projection_partials_must_be_hermitian():
    dom = make_domain("torus2", (8, 8))
    values = np.broadcast_to(np.diag([1.0, 0.0]), (8, 8, 2, 2))
    hermitian = np.broadcast_to(np.array([[0.0, 1.0], [1.0, 0.0]]), values.shape)
    SampledMap(dom, values, codomain="projection", partials=(hermitian, 2.0 * hermitian))
    skew = np.broadcast_to(np.array([[0.0, 1e-7], [0.0, 0.0]]), values.shape)
    with pytest.raises(ShapeMismatch, match=r"axis 1 is not Hermitian: defect 1\.000e-07"):
        SampledMap(dom, values, codomain="projection", partials=(hermitian, hermitian + skew))


def test_frame_values_must_be_orthonormal_frames():
    dom = make_domain("torus2", (8, 8))
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 8, 3, 2)))[0]
    assert SampledMap(dom, q, codomain="frame").cols == 2
    assert SampledMap(dom, (1 + 1e-9) * q, codomain="frame").cols == 2
    for scale in (1 + 1e-8, 2.0):
        with pytest.raises(ShapeMismatch, match=r"frame values need V\* V = 1"):
            SampledMap(dom, scale * q, codomain="frame")
    skewed = q.copy()
    skewed[3, 5, :, 1] += 0.1 * skewed[3, 5, :, 0]  # injective, not orthonormal, at one node
    with pytest.raises(ShapeMismatch, match=r"frame values need V\* V = 1"):
        SampledMap(dom, skewed, codomain="frame")
    with pytest.raises(ShapeMismatch, match=r"frame values of shape \(2, 3\) are neither square nor frames"):
        SampledMap(dom, np.swapaxes(q, -1, -2).conj(), codomain="frame")


def test_frames_without_columns_are_those_of_the_zero_projection():
    # V* V = 1 holds on 0 x 0, so an n x 0 frame has defect 0
    frames = SampledMap(make_domain("torus2", (8, 8)), np.zeros((8, 8, 2, 0)), codomain="frame")
    assert frames.values.shape == (8, 8, 2, 0)


def test_sampled_map_takes_contiguous_complex_arrays_without_a_copy():
    dom = make_domain("torus2", (8, 8))
    values = np.zeros((8, 8, 2, 2), dtype=complex)
    partials = (np.ones_like(values), 2.0 * np.ones_like(values))
    f = SampledMap(dom, values, partials=partials)
    assert np.shares_memory(f.values, values) and not values.flags.writeable
    assert all(np.shares_memory(a, b) for a, b in zip(f.partials, partials))


# ---------------------------------------------------------------- quadrature


def test_integrate_constant_one_form_on_circle():
    dom = make_domain("circle", 64)
    form = GradedForm(dom, 1, {(0,): np.ones(64, dtype=complex)})
    assert abs(integrate(form) - 2 * np.pi) < 1e-12


def test_integral_independent_of_layout():
    dom = make_domain("torus2", (9, 24))
    re, im = np.random.default_rng(7).standard_normal((2, 9, 24))
    comp = re + 1j * im
    layouts = (comp, np.asfortranarray(comp), np.stack([comp, comp], axis=-1)[..., 1])
    assert len({integrate(GradedForm(dom, 2, {(0, 1): a})) for a in layouts}) == 1


def test_integrate_oscillating_form_vanishes():
    dom = make_domain("circle", 64)
    th = dom.axes[0].coords
    form = GradedForm(dom, 1, {(0,): np.exp(1j * th)})
    assert abs(integrate(form)) < 1e-12


def test_lobatto_refinement_order():
    # the time quadrature of every homotopy (kops), on [0, 1]: each added node
    # gains more than two and a half digits on a smooth integrand
    errs = []
    for n in (3, 4, 5, 6):
        t, w = lobatto_rule(n, 0.0, 1.0)
        errs.append(abs(w @ np.exp(t) - (np.e - 1.0)))
    assert errs[-1] < 1e-12
    assert all(coarse / fine > 300.0 for coarse, fine in zip(errs, errs[1:]))


def test_periodic_quadrature_near_machine():
    dom = make_domain("circle", 32)
    th = dom.axes[0].coords
    form = GradedForm(dom, 1, {(0,): (np.cos(3 * th) ** 2).astype(complex)})
    assert abs(integrate(form) - np.pi) < 1e-12


def test_trigonometric_polynomial_integrates_exactly_on_an_anisotropic_torus3():
    dom = make_domain("torus3", (8, 12, 16))
    k1, k2, k3 = np.meshgrid(*(ax.coords for ax in dom.axes), indexing="ij")
    # every mode is below its axis's node count, so only the mean survives
    comp = 1.5 + np.cos(3 * k1) * np.sin(5 * k2) + np.cos(7 * k3) ** 2 + np.sin(k1 + 2 * k2 - 3 * k3) * np.cos(k3)
    form = GradedForm(dom, 3, {(0, 1, 2): comp.astype(complex)})
    assert abs(integrate(form) - 2.0 * (2.0 * np.pi) ** 3) < 1e-12


def test_integrate_degree_mismatch():
    dom = make_domain("torus2", (8, 8))
    form = GradedForm(dom, 1, {(0,): np.zeros((8, 8), dtype=complex)})
    with pytest.raises(DegreeMismatch):
        integrate(form)


def test_exact_top_form_integrates_to_zero_on_torus():
    dom = make_domain("torus2", (24, 24))
    t1 = dom.axes[0].coords[:, None]
    t2 = dom.axes[1].coords[None, :]
    # d(sin(t1) cos(t2) dt2) has dt1^dt2 part cos(t1)cos(t2)
    comp = (np.cos(t1) * np.cos(t2)).astype(complex)
    form = GradedForm(dom, 2, {(0, 1): np.broadcast_to(comp, (24, 24))})
    assert abs(integrate(form)) < 1e-8


# ---------------------------------------------------------------- cycles


def test_dtheta_pairs_with_circle_generator():
    dom = make_domain("circle", 64)
    form = GradedForm(dom, 1, {(0,): np.ones(64, dtype=complex)})
    assert abs(exactness_residual(form) - 2 * np.pi) < 1e-12


def test_exact_one_form_has_tiny_residual():
    dom = make_domain("circle", 128)
    th = dom.axes[0].coords
    f = SampledMap(dom, np.sin(th)[:, None, None].astype(complex))
    (d,) = differentiate(f)
    form = GradedForm(dom, 1, {(0,): d[:, 0, 0]})
    assert exactness_residual(form) < 1e-8


def test_zero_degree_residual_is_sup_norm():
    dom = make_domain("circle", 16)
    form = GradedForm(dom, 0, {(): np.zeros(16, dtype=complex)})
    assert exactness_residual(form) == 0.0


def test_torus_cycles():
    dom = make_domain("torus2", (16, 16))
    t1 = dom.axes[0].coords[:, None]
    comp0 = np.broadcast_to(np.ones_like(t1), (16, 16)).astype(complex)
    comp1 = np.zeros((16, 16), dtype=complex)
    form = GradedForm(dom, 1, {(0,): comp0, (1,): comp1})
    cycles = generating_cycles(dom, 1)
    vals = [cycle_integral(form, c) for c in cycles]
    assert abs(vals[0] - 2 * np.pi) < 1e-12
    assert abs(vals[1]) < 1e-12


@pytest.mark.parametrize(
    "kind, res, cycles",
    [
        ("circle", 16, {1: [(0,)]}),
        ("torus2", (16, 16), {1: [(0,), (1,)], 2: [(0, 1)]}),
        ("torus3", (8, 8, 8), {1: [(0,), (1,), (2,)], 2: [(0, 1), (0, 2), (1, 2)], 3: [(0, 1, 2)]}),
    ],
)
def test_generating_cycles_are_the_periodic_axis_subsets(kind, res, cycles):
    dom = make_domain(kind, res)
    assert generating_cycles(dom, 0) == []
    for degree in range(1, dom.dim + 1):
        assert generating_cycles(dom, degree) == cycles[degree]


def test_torus3_face_integral_pins_the_other_axis_at_node_zero():
    dom = make_domain("torus3", (8, 10, 12))
    t0, t1, t2 = np.meshgrid(*[ax.coords for ax in dom.axes], indexing="ij")
    # on the face t1 = 0 the (0, 2) component is 1 + cos t0; elsewhere it differs
    comp = (1.0 + np.cos(t0) + 5.0 * np.sin(t1) + np.sin(t1 / 2.0) * np.cos(t2)).astype(complex)
    form = GradedForm(dom, 2, {(0, 2): comp})
    assert abs(cycle_integral(form, (0, 2)) - 4 * np.pi**2) < 1e-12
    assert abs(cycle_integral(form, (2, 0)) - 4 * np.pi**2) < 1e-12
    assert exactness_residual(form) == abs(cycle_integral(form, (0, 2)))


@pytest.mark.parametrize(
    "kind, res, axes, sub_kind, pin",
    [
        ("torus3", (8, 10, 12), (2, 0), "torus2", (slice(None), 0, slice(None))),
        ("torus3", (8, 10, 12), (1,), "circle", (0, slice(None), 0)),
        ("torus3", (8, 10, 12), (), "point", (0, 0, 0)),
        ("torus2", (8, 10), (1,), "circle", (0, slice(None))),
        ("torus2", (8, 10), (0, 1), "torus2", (slice(None), slice(None))),
    ],
)
def test_sub_grid_keeps_the_spanned_axes_and_pins_the_rest_at_node_zero(kind, res, axes, sub_kind, pin):
    dom = make_domain(kind, res)
    sub, got = sub_grid(dom, axes)
    assert sub.kind == sub_kind and sub.axes == tuple(dom.axes[a] for a in sorted(axes))
    assert got == pin


@pytest.mark.parametrize("axes", [(0, 0), (3,), (-1,)])
def test_sub_grid_rejects_repeated_or_missing_axes(axes):
    with pytest.raises(ShapeMismatch):
        sub_grid(make_domain("torus3", (8, 8, 8)), axes)


def test_exterior_derivative_of_function():
    dom = make_domain("circle", 128)
    th = dom.axes[0].coords
    f0 = GradedForm(dom, 0, {(): np.cos(th).astype(complex)})
    d = form_derivative(f0)
    assert np.abs(d.component((0,)) + np.sin(th)).max() < 1e-10


def test_d_squared_is_zero():
    dom = make_domain("torus2", (32, 32))
    t1 = dom.axes[0].coords[:, None]
    t2 = dom.axes[1].coords[None, :]
    f0 = GradedForm(dom, 0, {(): (np.sin(t1) * np.cos(2 * t2)).astype(complex) * np.ones((32, 32))})
    dd = form_derivative(form_derivative(f0))
    assert dd.sup_norm() < 1e-10


def test_sampled_map_window_must_span_the_rows():
    dom = make_domain("circle", 16)
    values = np.broadcast_to(np.eye(2, dtype=complex), (16, 2, 2))
    with pytest.raises(ShapeMismatch, match="window of dim 5 tags values of 2 rows"):
        SampledMap(dom, values, codomain="unitary", window=PolarizedWindow(2, 3))
    assert SampledMap(dom, values, codomain="unitary", window=PolarizedWindow(1, 1)).window.dim == 2


# ---------------------------------------------------------------- contract checks


def _stack(matrix, value=None, node=3, res=8):
    """``matrix`` at every node of a ``res``-node circle, every entry of
    ``node`` set to ``value`` when it is given."""
    out = np.array(np.broadcast_to(np.asarray(matrix, dtype=complex), (res, *np.shape(matrix))))
    if value is not None:
        out[node] = value
    return out


_CIRCLE, _TORUS = make_domain("circle", 8), make_domain("torus2", (8, 8))
_P = np.diag([1.0, 0.0])

_LOOP = loop_zn(1, res=16, pad=3)  # 3 x 3 unitaries

CONTRACT_CHECKS = {
    "fractional node count": (
        lambda: make_domain("torus2", (16.5, 16)),
        BadResolution,
        "an axis takes an integer node count, got 16.5",
    ),
    "float node count": (lambda: make_domain("circle", 8.9), BadResolution, "integer node count, got 8.9"),
    "no node counts": (lambda: make_domain("torus2", None), BadResolution, "integer node count, got None"),
    "node count string": (lambda: make_domain("circle", "16"), BadResolution, "integer node count, got '16'"),
    "fractional axis": (lambda: Axis(16.5), BadResolution, "an axis takes an integer node count, got 16.5"),
    "float axis": (lambda: Axis(16.0), BadResolution, "an axis takes an integer node count, got 16.0"),
    "values shape": (lambda: SampledMap(_CIRCLE, np.zeros((7, 2, 2))), ShapeMismatch, r"values shape \(7, 2, 2\)"),
    "unitary not square": (
        lambda: SampledMap(_CIRCLE, np.zeros((8, 2, 3)), codomain="unitary"),
        ShapeMismatch,
        "unitary values must be square",
    ),
    "projection not square": (
        lambda: SampledMap(_CIRCLE, np.zeros((8, 2, 3)), codomain="projection"),
        ShapeMismatch,
        "projection values must be square",
    ),
    "unitary NaN node": (
        lambda: SampledMap(_CIRCLE, _stack(np.eye(2), np.nan), codomain="unitary"),
        ShapeMismatch,
        "unitary tag violated: max node defect nan",
    ),
    "unitary inf node": (
        lambda: SampledMap(_CIRCLE, _stack(np.eye(2), np.inf), codomain="unitary"),
        ShapeMismatch,
        "unitary tag violated",
    ),
    "unitary Frobenius defect": (
        # every entry of u*u - 1 is under 1e-8 (9.0e-9), its Frobenius norm is not
        lambda: SampledMap(_LOOP.domain, _LOOP.values * (1.0 + 4.5e-9), codomain="unitary"),
        ShapeMismatch,
        "unitary tag violated: max node defect 1.559e-08",
    ),
    "projection NaN node": (
        lambda: SampledMap(_CIRCLE, _stack(_P, np.nan), codomain="projection"),
        ShapeMismatch,
        "projection tag violated: idempotency nan, hermiticity nan",
    ),
    "projection inf node": (
        lambda: SampledMap(_CIRCLE, _stack(_P, np.inf), codomain="projection"),
        ShapeMismatch,
        "projection tag violated",
    ),
    "projection NaN partial": (
        lambda: SampledMap(_CIRCLE, _stack(_P), codomain="projection", partials=(_stack(0 * _P, np.nan),)),
        ShapeMismatch,
        "projection partial along axis 0 is not Hermitian: defect nan",
    ),
    "frame NaN node": (
        lambda: SampledMap(_CIRCLE, _stack(np.eye(3, 2), np.nan), codomain="frame"),
        ShapeMismatch,
        r"frame values need V\* V = 1: max node defect nan",
    ),
    "frame inf node": (
        lambda: SampledMap(_CIRCLE, _stack(np.eye(3, 2), np.inf), codomain="frame"),
        ShapeMismatch,
        r"frame values need V\* V = 1",
    ),
    "form degree": (lambda: GradedForm(_CIRCLE, 2, {}), DegreeOverflow, "form degree 2 exceeds domain dimension 1"),
    "negative form degree": (
        lambda: GradedForm(_CIRCLE, -1, {}),
        DegreeOverflow,
        "form degree must be a non-negative integer, got -1",
    ),
    "form index": (
        lambda: GradedForm(_TORUS, 2, {(1, 0): np.zeros((8, 8))}),
        DegreeMismatch,
        r"multi-index \(1, 0\) is not strictly increasing of length 2",
    ),
    "form component shape": (
        lambda: GradedForm(_CIRCLE, 1, {(0,): np.zeros(7)}),
        ShapeMismatch,
        r"component \(0,\) has shape \(7,\), want \(8,\)",
    ),
    "form sum of degrees": (
        lambda: GradedForm(_TORUS, 1, {}) + GradedForm(_TORUS, 2, {}),
        DegreeMismatch,
        "different domains or degrees",
    ),
    "form_derivative at top degree": (
        lambda: form_derivative(GradedForm(_CIRCLE, 1, {})),
        DegreeOverflow,
        "cannot raise degree beyond the domain dimension",
    ),
    "generating_cycles of a negative degree": (
        lambda: generating_cycles(_TORUS, -1),
        DegreeOverflow,
        "cycle degree must be a non-negative integer, got -1",
    ),
    "generating_cycles of a fractional degree": (
        lambda: generating_cycles(_TORUS, 1.5),
        DegreeOverflow,
        "cycle degree must be a non-negative integer, got 1.5",
    ),
    "cycle_integral dimension": (
        lambda: cycle_integral(GradedForm(_TORUS, 1, {}), (0, 1)),
        DegreeMismatch,
        "cycle dimension does not match form degree",
    ),
}


@pytest.mark.parametrize("name", CONTRACT_CHECKS)
def test_contract_checks_raise_their_errors(name):
    call, error, fragment = CONTRACT_CHECKS[name]
    assert issubclass(error, ChernLabError)
    with pytest.raises(error, match=fragment), np.errstate(invalid="ignore"):
        call()
