import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from chernlab import chernforms, fourier
from chernlab.builders import loop_zn, qwz_band, random_projection_map, random_unitary_map
from chernlab.chernforms import (
    Homotopy,
    _FrameCurvature,
    _range_frame,
    ch_even,
    ch_odd,
    ch_total,
    chern_scalar,
    cs_exact,
    cs_forms,
)
from chernlab.errors import ChernLabError, DegreeOverflow, NotALoop, ShapeMismatch, SingularInput
from chernlab.geomgrid import (
    GradedForm,
    SampledMap,
    cycle_integral,
    differentiate,
    exactness_residual,
    form_derivative,
    integrate,
    make_domain,
    sub_grid,
)
from chernlab.kops import blocksum, conjugation_homotopy, inversion_homotopy_even, inversion_homotopy_odd, lobatto_rule
from chernlab.numkernel import _real_form
from chernlab.stiefel import PolarizedWindow, _curvature
from homotopy_stacks import stacked_homotopy
from wedge_reference import trace_wedge

RNG = np.random.default_rng(11)


def constant_map(domain, matrix, codomain):
    m = np.asarray(matrix, dtype=complex)
    return SampledMap(domain, np.broadcast_to(m, (*domain.node_shape, *m.shape)), codomain=codomain)


def _adj(x):
    return np.swapaxes(x.conj(), -1, -2)


def perm_sign(seq):
    return (-1) ** sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])


def brute_force_trace(factors, axes):
    """Independent oracle for ``tr(a_1 ^ ... ^ a_r)`` on the increasing ``axes``.

    ``factors`` lists ``(degree, value)``, ``value(slots)`` being the factor's
    matrix on an ordered tuple of axes.  Sums explicit index-chain traces over
    all orderings of ``axes``, each factor taking the next ``degree`` of them,
    and divides by the product of ``degree!`` (the ``1/2^k`` of 2-form powers).
    """
    m = len(axes)
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(m)):
        mats, pos = [], 0
        for degree, value in factors:
            mats.append(value(tuple(axes[p] for p in perm[pos : pos + degree])))
            pos += degree
        r, n = len(mats), mats[0].shape[0]
        for chain in itertools.product(range(n), repeat=r):
            term = 1.0 + 0.0j
            for q in range(r):
                term *= mats[q][chain[q], chain[(q + 1) % r]]
            total += perm_sign(perm) * term
    return total / math.prod(math.factorial(degree) for degree, _ in factors)


def brute_force_wedge(mats):
    """Independent oracle for ``tr(a^m)`` of the 1-form with slot values ``mats``."""
    one_form = (1, lambda slots: mats[slots[0]])
    return brute_force_trace([one_form] * len(mats), range(len(mats)))


def antisym_trace_power(slots):
    """``sum_s sgn(s) tr[slots[s(1)] @ ... @ slots[s(m)]]`` over stacked nodes,
    the top component of ``tr(omega^m)`` for the 1-form with values ``slots``."""
    omega = {(i,): a for i, a in enumerate(slots)}
    return trace_wedge(*[omega] * len(slots))[tuple(range(len(slots)))]


def random_form(degree, n_axes, n=3):
    """Random matrix-valued form: its components and their alternating extension."""
    comps = {
        idx: RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
        for idx in itertools.combinations(range(n_axes), degree)
    }
    return comps, lambda slots: perm_sign(slots) * comps[tuple(sorted(slots))]


def test_normalizations():
    assert abs(chern_scalar("odd", 1) - 1j / (2 * np.pi)) < 1e-15
    assert abs(chern_scalar("even", 1) - 1j / (2 * np.pi)) < 1e-15
    assert abs(chern_scalar("odd", 2) - (1j / (2 * np.pi)) ** 2 * (-1.0 / 6.0)) < 1e-15


def test_wedge_single_slot():
    assert abs(antisym_trace_power([np.array([[[1j]]])])[0] - 1j) < 1e-15


def test_wedge_commuting_diagonals_vanish():
    mats = [np.diag(RNG.standard_normal(3)).astype(complex) for _ in range(3)]
    val = antisym_trace_power([m[None] for m in mats])[0]
    assert abs(val) < 1e-12
    assert abs(brute_force_wedge(mats)) < 1e-12


def test_wedge_matches_brute_force():
    mats = [
        RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3)) for _ in range(3)
    ]
    val = antisym_trace_power([m[None] for m in mats])[0]
    assert abs(val - brute_force_wedge(mats)) < 1e-10


@pytest.mark.parametrize("n_axes", [4, 5])
def test_trace_wedge_two_form_square_matches_brute_force(n_axes):
    comps, value = random_form(2, n_axes)
    out = trace_wedge(comps, comps)
    assert list(out) == list(itertools.combinations(range(n_axes), 4))
    for idx, val in out.items():
        assert abs(val - brute_force_trace([(2, value)] * 2, idx)) < 1e-10


def test_trace_wedge_mixed_matches_brute_force():
    theta, theta_value = random_form(1, 3)
    comps, value = random_form(2, 3)
    val = trace_wedge(theta, comps)[(0, 1, 2)]
    assert abs(val - brute_force_trace([(1, theta_value), (2, value)], (0, 1, 2))) < 1e-10


def test_trace_wedge_even_powers_of_one_form_vanish():
    a, _ = random_form(1, 4)
    assert max(abs(v) for v in trace_wedge(a, a).values()) < 1e-10
    assert abs(trace_wedge(a, a, a, a)[(0, 1, 2, 3)]) < 1e-10
    assert abs(trace_wedge(a, a, a)[(0, 1, 2)]) > 1e-3


def test_wedge_power_beyond_the_directions_is_empty():
    # a 1-form on one axis has no square; ch_odd refuses such degrees up front
    omega = {(0,): np.ones((1, 2, 2), dtype=complex)}
    assert trace_wedge(omega, omega) == {}
    with pytest.raises(DegreeOverflow):
        ch_odd(loop_zn(1, res=16), 2)


# ---------------------------------------------------------------- ch odd


def test_ch_odd_constant_is_zero():
    dom = make_domain("circle", 64)
    f = constant_map(dom, np.eye(2), codomain="unitary")
    assert ch_odd(f, 1).sup_norm() < 1e-12


@pytest.mark.parametrize("n", range(-3, 4))
def test_ch1_winding_integral(n):
    val = integrate(ch_odd(loop_zn(n=n, res=1024), 1))
    assert abs(val - (-n)) < 1e-8


def test_ch1_trace_cancellation():
    dom = make_domain("circle", 128)
    th = dom.axes[0].coords
    values = np.zeros((128, 2, 2), dtype=complex)
    values[:, 0, 0] = np.exp(1j * th)
    values[:, 1, 1] = np.exp(-1j * th)
    f = SampledMap(dom, values, codomain="unitary")
    assert abs(integrate(ch_odd(f, 1))) < 1e-12


def test_ch_odd_degree_guard():
    with pytest.raises(DegreeOverflow):
        ch_odd(loop_zn(n=1, res=64), 2)


@pytest.mark.parametrize("exact_jets", [True, False])
@pytest.mark.parametrize(
    ("kind", "res", "k"), [("circle", 64, 1), ("torus2", (16, 16), 1), ("torus3", (12,) * 3, 1), ("torus3", (12,) * 3, 2)]
)
def test_ch_odd_is_the_shuffle_wedge_of_omega(kind, res, k, exact_jets):
    # the written-out kernel against tr(omega^(2k-1)) of omega = f* df by the
    # reference shuffle; the scale bounds the sum: (2k-1)! sqrt(n) max |omega_i|^(2k-1)
    dom = make_domain(kind, res)
    f = random_unitary_map(np.random.default_rng(5), dom, size=2)
    f = f if exact_jets else SampledMap(dom, f.values, codomain="unitary")
    deg = 2 * k - 1
    omega = {(i,): _adj(f.values) @ p for i, p in enumerate(differentiate(f))}
    c = chern_scalar("odd", k)
    expected = {idx: c * a for idx, a in trace_wedge(*[omega] * deg).items()}
    norm = np.max([np.linalg.norm(x, axis=(-2, -1)) for x in omega.values()], axis=0)
    scale = abs(c) * math.factorial(deg) * math.sqrt(f.values.shape[-1]) * float((norm**deg).max())
    got = ch_odd(f, k)
    assert got.form_degree == deg and got.comps.keys() == expected.keys()
    assert max(float(np.abs(got.comps[idx] - a).max()) for idx, a in expected.items()) <= 1e-15 * scale


SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _nu3_map(m, res=24):
    """``g = d_4 + i (d_1 s_1 + d_2 s_2 + d_3 s_3)`` of the unit vector of ``d
    = (sin k_1, sin k_2, sin k_3, m + sum cos k_i)`` on torus3, with grid
    jets: its degree is the class-AIII winding number, 0 for ``|m| > 3``, 1
    for ``1 < |m| < 3`` and -2 for ``|m| < 1`` (Schnyder, Ryu, Furusaki and
    Ludwig, *Phys. Rev. B* 78, 195125, 2008)."""
    dom = make_domain("torus3", (res,) * 3)
    k = np.meshgrid(*[ax.coords for ax in dom.axes], indexing="ij")
    d = np.stack([*np.sin(k), m + np.cos(k).sum(axis=0)])
    d /= np.linalg.norm(d, axis=0)
    values = d[3][..., None, None] * np.eye(2) + 1j * np.einsum("a...,aij->...ij", d[:3], SIGMA)
    return SampledMap(dom, values, codomain="unitary")


@pytest.mark.parametrize(("m", "nu3"), [(2.0, 1), (-2.0, 1), (0.5, -2), (-0.5, -2), (4.0, 0)])
def test_ch3_integrates_to_the_winding_number_of_the_nu3_map(m, nu3):
    # the first nonzero integral of ch_3; at 24^3 the grid-jet errors are
    # 2.5e-8 (|m| = 2), 2.3e-5 (|m| = 0.5) and 1.3e-9 (m = 4)
    assert abs(integrate(ch_odd(_nu3_map(m), 2)) - nu3) < 1e-4


# ---------------------------------------------------------------- ch even


def test_ch_even_constant_is_zero():
    dom = make_domain("torus2", (12, 12))
    p = constant_map(dom, np.diag([1.0, 0.0]).astype(complex), codomain="projection")
    assert ch_even(p, 1).sup_norm() < 1e-12


def test_ch_even_refuses_a_rank_that_changes_over_the_nodes():
    dom = make_domain("torus2", (8, 8))
    values = np.zeros((8, 8, 2, 2), dtype=complex)
    values[..., 0, 0] = 1.0
    values[4:, :, 1, 1] = 1.0  # rank 2 on half the torus
    with pytest.raises(ShapeMismatch, match=r"ranks \[1, 2\] on one domain"):
        ch_even(SampledMap(dom, values, codomain="projection"), 1)


def test_curvature_pairs_are_exactly_anti_hermitian():
    # a square projection through its eigh frame, and a frame slice with two
    # frame jets and two jets of its projection: every R(F) = K - K^T is
    # exactly antisymmetric, every tr F exactly imaginary, and the degree-3
    # pairing is real
    p = random_projection_map(np.random.default_rng(7), make_domain("torus2", (16, 16)), PolarizedWindow(2, 2))
    h = _inversion_homotopies()["even"]
    sl = h.slice_map(2)
    square, frames = _FrameCurvature(2), _FrameCurvature(4)
    square.frame(_range_frame(p.values))
    square.fill((), iter(p.partials))
    frames.frame(h.slices[2])
    frames.fill((h.time_partials[2], h.spatial_partials[0][2]), iter(sl.partials[1:]))
    for kernel in (square, frames):
        r = kernel.frame_shape[-1]
        for a, b in itertools.combinations(range(kernel.n_slots), 2):
            assert np.array_equal(kernel.trace(a, b).real, np.zeros(kernel.frame_shape[:-2]))
            if a:  # slot 0 holds G_0 alone
                real = kernel.curvature(a, b)
                assert real.shape[-2:] == (2 * r, 2 * r) and real.dtype == np.float64
                assert np.abs(real).max() > 0.1
                assert np.array_equal(real, -np.swapaxes(real, -1, -2))
    assert frames.volume().dtype == np.float64


def _gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(0, 3),
    st.sampled_from([(), (1,), (3,), (2, 2)]),
    st.integers(0, 2**16),
)
def test_curvature_traces_are_those_of_the_explicit_commutators(n, r, n_frame, n_projection, stack, seed):
    # an oracle that shares no product with the kernel: with P = V V* and the
    # n x n jets D (Hermitian, or x V* + V x* for a frame jet x), tr F_ab is
    # tr(P [D_a, D_b]), F_ab read back from R(F_ab), a > 0 (and the F of
    # transgression_eta), is V* [D_a, D_b] V, and the degree-3 pairing of the
    # first four slots is tr(P [D_0, D_1] P [D_2, D_3]) - tr(P [D_0, D_2] P
    # [D_1, D_3]) + tr(P [D_0, D_3] P [D_1, D_2]); relative to the jet norms
    r = min(r, n)
    rng = np.random.default_rng(seed)
    v = np.ascontiguousarray(np.linalg.qr(_gaussian(rng, (*stack, n, n)))[0][..., :r])
    frame_jets = [_gaussian(rng, (*stack, n, r)) for _ in range(n_frame)]
    projection_jets = [y + _adj(y) for y in (_gaussian(rng, (*stack, n, n)) for _ in range(n_projection))]
    d = [x @ _adj(v) + v @ _adj(x) for x in frame_jets] + projection_jets
    if len(d) < 2:
        return
    p = v @ _adj(v)
    commutator = {(a, b): d[a] @ d[b] - d[b] @ d[a] for a, b in itertools.combinations(range(len(d)), 2)}
    norm = [np.linalg.norm(x, axis=(-2, -1)) for x in d]

    def scale(*slots):
        return 1e-12 * np.prod([norm[a] for a in slots], axis=0)

    def pairing(ab, cd):
        return np.trace(p @ commutator[ab] @ p @ commutator[cd], axis1=-2, axis2=-1)

    kernel = _FrameCurvature(len(d))
    kernel.frame(v)
    kernel.fill(frame_jets, projection_jets)
    for (a, b), c in commutator.items():
        expected = np.trace(p @ c, axis1=-2, axis2=-1)
        assert np.all(np.abs(kernel.trace(a, b) - expected) <= scale(a, b))
        if a:
            f = kernel.curvature(a, b).view(complex)[..., ::2, :]
            assert np.all(np.linalg.norm(f - _adj(v) @ c @ v, axis=(-2, -1)) <= scale(a, b))
    if len(d) >= 4:
        expected = pairing((0, 1), (2, 3)) - pairing((0, 2), (1, 3)) + pairing((0, 3), (1, 2))
        assert np.all(np.abs(kernel.volume() - expected) <= scale(0, 1, 2, 3))
    if n_frame >= 2:
        for (a, b), f in _curvature(v, tuple(frame_jets)).items():
            expected = _adj(v) @ commutator[a, b] @ v
            assert np.all(np.linalg.norm(f - expected, axis=(-2, -1)) <= scale(a, b))


def test_ch_one_of_a_projection_is_exactly_real():
    p = random_projection_map(np.random.default_rng(7), make_domain("torus2", (16, 16)), PolarizedWindow(2, 2))
    assert np.array_equal(ch_even(p, 1).comps[(0, 1)].imag, np.zeros(p.domain.node_shape))


def solid_angle_degree(m, res):
    """deg of k -> d/|d| for the QWZ vector d(k), as (1/4pi) int d.(d_1 d x d_2 d)/|d|^3."""
    k1, k2 = np.meshgrid(*[2 * np.pi * np.arange(res) / res] * 2, indexing="ij")
    d = np.stack([np.sin(k1), np.sin(k2), m + np.cos(k1) + np.cos(k2)])
    d1 = np.stack([np.cos(k1), 0 * k1, -np.sin(k1)])
    d2 = np.stack([0 * k2, np.cos(k2), -np.sin(k2)])
    density = np.einsum("i...,i...->...", d, np.cross(d1, d2, axis=0)) / np.linalg.norm(d, axis=0) ** 3
    return density.sum() * (2 * np.pi / res) ** 2 / (4 * np.pi)


def test_tautological_chern_number():
    # the QWZ lower band is the tautological line pulled back by -d/|d|, so
    # int ch_1 = deg(d/|d|); at m = 1 that is the -1 of the tautological
    # line bundle with these conventions
    for m, degree in [(1.0, -1), (-1.0, 1), (3.0, 0), (-3.0, 0), (1.5, -1)]:
        val = integrate(ch_even(qwz_band(m, 32), 1))
        assert abs(val - solid_angle_degree(m, 32)) < 1e-8
        assert abs(val - degree) < 1e-8


def test_qwz_band_rejects_a_closed_gap():
    for m in (-2.0, 0.0, 2.0):
        with pytest.raises(SingularInput):
            qwz_band(m)


def test_ch_total_cutoffs():
    dom = make_domain("circle", 64)
    f = constant_map(dom, np.eye(2), codomain="unitary")
    forms = ch_total(f, 3)
    assert len(forms) == 1  # only degree 1 fits on the circle
    assert forms[0].sup_norm() < 1e-12

    loop = loop_zn(n=2, res=128)
    forms = ch_total(loop, 2)
    assert [f.form_degree for f in forms] == [1]

    proj = qwz_band(res=16)
    forms = ch_total(proj, 2)
    assert [f.form_degree for f in forms] == [2]  # degree 4 cut off in dim 2


# ---------------------------------------------------------------- cs


def constant_homotopy(f, t_res=9):
    slices = np.broadcast_to(f.values, (t_res, *f.values.shape)).copy()
    return stacked_homotopy(f.domain, *lobatto_rule(t_res, 0.0, 1.0), slices, codomain=f.codomain)


def phase_homotopy(res=128, t_res=17):
    """H(theta, t) = exp(i(t sin(theta) + 0.3 t^2 cos(theta)))."""
    dom = make_domain("circle", res)
    th = dom.axes[0].coords
    times, quadrature = lobatto_rule(t_res, 0.0, 1.0)
    slices = np.empty((t_res, res, 1, 1), dtype=complex)
    for i, t in enumerate(times):
        slices[i, :, 0, 0] = np.exp(1j * (t * np.sin(th) + 0.3 * t * t * np.cos(th)))
    rate = 1j * (np.sin(th) + 0.6 * times[:, None] * np.cos(th))
    return stacked_homotopy(dom, times, quadrature, slices, rate[..., None, None] * slices, codomain="unitary")


def test_cs_constant_homotopy_zero():
    f = loop_zn(n=1, res=64)
    h = constant_homotopy(f)
    assert cs_forms(h, 1)[1].sup_norm() < 1e-12


def test_cs_stokes_identity_and_order():
    # f_t = exp(i sin(t) a(theta)) with its exact time jet: the integrand
    # cos(t) a(theta) of CS_0 is not a polynomial in t, so the residual is the
    # error of the Lobatto rule, which loses more than two and a half digits per added node
    dom = make_domain("circle", 128)
    th = dom.axes[0].coords
    a = np.sin(th) + 0.3 * np.cos(th)
    residuals = []
    for t_res in (3, 4, 5):
        times, quadrature = lobatto_rule(t_res, 0.0, 1.0)
        slices = np.exp(1j * np.sin(times)[:, None] * a)[..., None, None]
        rate = 1j * np.cos(times)[:, None] * a
        h = stacked_homotopy(dom, times, quadrature, slices, rate[..., None, None] * slices, codomain="unitary")
        cs0 = cs_forms(h, 1)[1]
        dcs = form_derivative(cs0)
        ch1_end = ch_odd(h.slice_map(h.n_times - 1), 1)
        ch1_start = ch_odd(h.slice_map(0), 1)
        residuals.append((dcs - (ch1_end - ch1_start)).sup_norm())
    assert residuals[-1] < 1e-9
    assert all(np.log10(coarse / fine) >= 2.5 for coarse, fine in zip(residuals, residuals[1:]))


def test_cs_stokes_degree_two_on_torus3():
    rng = np.random.default_rng(3)
    dom = make_domain("torus3", (10, 10, 10))
    coords = np.meshgrid(*[ax.coords for ax in dom.axes], indexing="ij")
    gen = np.zeros((10, 10, 10, 2, 2), dtype=complex)
    paulis = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    for i in range(3):
        gen += 0.3 * np.sin(coords[i])[..., None, None] * paulis[i]
    t_res = 17
    times, quadrature = lobatto_rule(t_res, 0.0, 1.0)
    slices = np.empty((t_res, 10, 10, 10, 2, 2), dtype=complex)
    for i, t in enumerate(times):
        flat = (1j * t * gen).reshape(-1, 2, 2)
        slices[i] = np.stack([expm(m) for m in flat]).reshape(10, 10, 10, 2, 2)
    h = stacked_homotopy(dom, times, quadrature, slices, 1j * gen @ slices, codomain="unitary")
    cs2 = cs_forms(h, 2)[2]
    dcs = form_derivative(cs2)
    ch3 = ch_odd(h.slice_map(t_res - 1), 2)
    assert (dcs - ch3).sup_norm() < 1e-6
    del rng


def test_cs_closedness_of_ch():
    f = loop_zn(n=2, res=256)
    # on a 1-d domain d(ch1) has degree 2 and cannot be formed; check on torus
    dom = make_domain("torus2", (24, 24))
    t1 = dom.axes[0].coords[:, None]
    t2 = dom.axes[1].coords[None, :]
    values = np.exp(1j * (np.sin(t1) + 0.5 * np.cos(t2) + t1 * 0))[..., None, None]
    g = SampledMap(dom, values, codomain="unitary")
    dch = form_derivative(ch_odd(g, 1))
    assert dch.sup_norm() < 1e-6
    del f


def test_cs_exact_verdicts():
    f = loop_zn(n=1, res=64)
    rep = cs_exact(constant_homotopy(f), k_max=2)
    assert rep["verdict"] is True

    # loop rotation: H(theta, t) = exp(i(theta + 2 pi t)) has CS_0 = -1
    dom = make_domain("circle", 64)
    th = dom.axes[0].coords
    t_res = 65
    times, quadrature = lobatto_rule(t_res, 0.0, 1.0)
    slices = np.empty((t_res, 64, 1, 1), dtype=complex)
    for i, t in enumerate(times):
        slices[i, :, 0, 0] = np.exp(1j * (th + 2 * np.pi * t))
    h = stacked_homotopy(dom, times, quadrature, slices, 2j * np.pi * slices, codomain="unitary")
    rep = cs_exact(h, k_max=1)
    assert rep["verdict"] is False
    cs0 = cs_forms(h, 1)[1]
    assert np.abs(cs0.component(()) - (-1.0)).max() < 1e-5


def test_cs_concatenation_additivity():
    h1 = phase_homotopy(res=64, t_res=9)
    # second leg continues from h1's endpoint
    dom = h1.spatial
    th = dom.axes[0].coords
    times, quadrature = lobatto_rule(9, 0.0, 1.0)
    end = h1.slices[-1]
    slices = np.empty((9, 64, 1, 1), dtype=complex)
    for i, t in enumerate(times):
        slices[i] = end * np.exp(1j * t * 0.4 * np.cos(2 * th))[:, None, None]
    rate = 0.4j * np.cos(2 * th)[:, None, None]
    h2 = stacked_homotopy(dom, times, quadrature, slices, rate * slices, codomain="unitary")
    cat = Homotopy.concatenate(h1, h2)
    lhs = cs_forms(cat, 1)[1]
    rhs = cs_forms(h1, 1)[1] + cs_forms(h2, 1)[1]
    assert (lhs - rhs).sup_norm() < 1e-8


def test_concatenate_rejects_mismatched_junction():
    h1 = phase_homotopy(res=64, t_res=9)
    h2 = constant_homotopy(loop_zn(n=1, res=64), t_res=9)
    with pytest.raises(NotALoop):
        Homotopy.concatenate(h1, h2)


def _even_inversion(t_res=5):
    x = random_unitary_map(np.random.default_rng(8), make_domain("circle", 16), size=4, window=PolarizedWindow(2, 2))
    return inversion_homotopy_even(x, t_res=t_res)  # 8 x 8 slices on PolarizedWindow(4, 4)


def test_homotopy_window_must_span_the_slice_rows():
    h = _even_inversion()
    with pytest.raises(ShapeMismatch, match="window of dim 4 tags values of 8 rows"):
        window = PolarizedWindow(1, 3)
        stacked_homotopy(h.spatial, h.times, h.quadrature, h.slices, h.time_partials, "projection", window)


def test_concatenate_rejects_mismatched_windows():
    h = _even_inversion()
    rev = h.reversed()
    back = _like(rev, rev.slices, rev.time_partials, window=PolarizedWindow(3, 5))
    assert back.window.dim == h.window.dim
    with pytest.raises(ShapeMismatch, match="windows"):
        Homotopy.concatenate(h, back)
    assert Homotopy.concatenate(h, h.reversed()).window == h.window


def _like(h, slices, time_partials, codomain="projection", window="same"):
    """A homotopy on the times of ``h`` with other slices and time jet."""
    window = h.window if window == "same" else window
    return stacked_homotopy(h.spatial, h.times, h.quadrature, slices, time_partials, codomain=codomain, window=window)


def _regauged(h, seed=5):
    """``h`` with every frame turned by one constant ``r x r`` unitary:
    other frames of the same projections."""
    rng = np.random.default_rng(seed)
    r = h.slices.shape[-1]
    g = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))[0]
    return _like(h, h.slices @ g, h.time_partials @ g)


def test_frame_slices_must_be_orthonormal_frames():
    h = _even_inversion()
    assert h.slices.shape[-2:] == (8, 4)
    for scale in (1 + 1e-8, 1 - 1e-8, 2.0):
        with pytest.raises(ShapeMismatch, match=r"projection frame slices need V\* V = 1"):
            _like(h, scale * h.slices, h.time_partials)
    assert _like(h, (1 + 1e-9) * h.slices, h.time_partials).slices.shape == h.slices.shape
    with pytest.raises(ShapeMismatch, match="neither square nor frames"):
        _like(h, _adj(h.slices), _adj(h.time_partials), window=None)
    # frames are a projection contract: other tags keep their slices unchecked
    assert _like(h, 2.0 * h.slices, h.time_partials, codomain="generic").slices.shape == h.slices.shape


def test_derived_frame_homotopies_are_checked_and_read_as_their_stacked_rebuilds(monkeypatch):
    x = random_unitary_map(np.random.default_rng(9), make_domain("torus2", (8, 8)), size=4, window=PolarizedWindow(2, 2))
    h = inversion_homotopy_even(x, t_res=5)
    calls, check = [], chernforms._check_frames

    def counting(*args, **kwargs):
        calls.append(args[1])
        return check(*args, **kwargs)

    monkeypatch.setattr(chernforms, "_check_frames", counting)
    back, face = h.reversed(), h.restrict((1,))
    chain = back.restrict((0,))
    assert h.adjoint() is h and chain.slices.shape == (5, 8, 8, 4)
    loop = Homotopy.concatenate(h, back)
    # every derived homotopy is built by the constructor, which checks its frames
    assert calls == ["projection frame slices"] * 4
    s, tp, sp = h.slices, h.time_partials, h.spatial_partials

    def rebuilt(d, slices, time_partials, spatial_partials):
        return stacked_homotopy(
            d.spatial, d.times, d.quadrature, slices, time_partials, "projection", h.window, spatial_partials
        )

    rebuilds = {
        back: rebuilt(back, s[::-1], -tp[::-1], tuple(p[::-1] for p in sp)),
        face: rebuilt(face, s[:, 0], tp[:, 0], (sp[1][:, 0],)),
        chain: rebuilt(chain, s[::-1, :, 0], -tp[::-1, :, 0], (sp[0][::-1, :, 0],)),
        loop: rebuilt(
            loop,
            np.concatenate([s, s[::-1]]),
            np.concatenate([tp, -tp[::-1]]),
            tuple(np.concatenate([p, p[::-1]]) for p in sp),
        ),
    }
    assert calls == ["projection frame slices"] * 8
    for d, r in rebuilds.items():
        assert d.slices.flags.c_contiguous and not d.slices.flags.writeable
        assert not d.time_partials.flags.writeable
        assert np.array_equal(d.slices, r.slices) and np.array_equal(d.time_partials, r.time_partials)
        assert all(np.array_equal(a, b) for a, b in zip(d.spatial_partials, r.spatial_partials, strict=True))
    assert face.spatial.dim == 1 and np.array_equal(face.slices, h.slices[:, 0])
    assert not loop.slices.flags.writeable
    assert np.array_equal(loop.quadrature, np.concatenate([h.quadrature, back.quadrature]))


def test_concatenate_compares_projections_at_the_junction():
    h = _even_inversion()
    back = _regauged(h.reversed())
    assert np.abs(back.slices[0] - h.slices[-1]).max() > 0.1  # other frames of the junction projection
    loop = Homotopy.concatenate(h, back)
    assert np.array_equal(loop.quadrature, np.concatenate([h.quadrature, back.quadrature]))
    assert np.array_equal(loop.slices[5:], back.slices)
    # F goes to g* F g, so the turned way back still undoes the way out
    assert (cs_forms(h, 1)[1] + cs_forms(back, 1)[1]).sup_norm() < 1e-12
    assert cs_forms(loop, 1)[1].sup_norm() < 1e-12
    with pytest.raises(NotALoop, match="junction slices differ"):
        Homotopy.concatenate(h, h)
    v, dv = h.slices, h.time_partials
    square = _like(h, v @ _adj(v), dv @ _adj(v) + v @ _adj(dv))
    with pytest.raises(ShapeMismatch, match="slice shapes"):
        Homotopy.concatenate(h, square.reversed())


@pytest.mark.parametrize("exact_jets", [True, False])
def test_frames_without_columns_give_zero_cs_forms(exact_jets):
    # n x 0 frames are those of the zero projection: the frame check takes
    # them (defect 0), and both degrees of the kernel read zero slots
    dom = make_domain("torus3", (8, 8, 8))
    blocks = np.zeros((5, 8, 8, 8, 2, 0), dtype=complex)
    eye = np.eye(5)  # the jets along every axis read the slices' blocks
    spatial = (eye,) * 3 if exact_jets else None
    h = Homotopy(dom, *lobatto_rule(5, 0.0, 1.0), blocks, eye, 0.0 * eye, "projection", None, spatial)
    forms = cs_forms(h)
    assert forms.keys() == {1, 2}
    assert forms[1].comps.keys() == {(0,), (1,), (2,)} and forms[2].comps.keys() == {(0, 1, 2)}
    for form in forms.values():
        for comp in form.comps.values():
            assert np.array_equal(comp, np.zeros(dom.node_shape))


def test_frame_homotopy_reads_as_its_projections():
    h = _inversion_homotopies()["even"]
    v, w = h.slices[3], h.spatial_partials[1][3]
    sl = h.slice_map(3)
    assert sl.codomain == "projection" and sl.values.shape[-2:] == (8, 8)
    assert np.array_equal(sl.values, v @ np.swapaxes(v, -1, -2).conj())
    a = w @ np.swapaxes(v, -1, -2).conj()
    assert np.array_equal(sl.partials[1], a + np.swapaxes(a, -1, -2).conj())
    assert h.adjoint() is h


@pytest.mark.parametrize("times", [np.linspace(1.0, 0.0, 5), np.zeros(5)])
def test_homotopy_times_must_increase(times):
    h = phase_homotopy(res=16, t_res=5)
    with pytest.raises(ShapeMismatch, match="time nodes must be finite and increase"):
        stacked_homotopy(h.spatial, times, h.quadrature, h.slices, h.time_partials, codomain="unitary")


def test_homotopy_rejects_an_unknown_codomain_tag():
    h = phase_homotopy(res=16, t_res=5)
    with pytest.raises(ShapeMismatch, match="'unitray'"):
        stacked_homotopy(h.spatial, h.times, h.quadrature, h.slices, h.time_partials, codomain="unitray")


def test_a_stacked_homotopy_takes_its_exact_time_jet():
    # every time jet is given, so three nodes, the fewest of a Lobatto rule, suffice
    f = random_unitary_map(np.random.default_rng(4), make_domain("circle", 16), size=2)
    gen = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    h = conjugation_homotopy(f, lambda t: expm(t * gen), lambda t: gen @ expm(t * gen), t_res=3)
    assert cs_forms(h).keys() == {1}
    # its slices, time jets and spatial jets are three chunks of its store, read by one-hot tables
    assert h.blocks.shape[0] == 9 and np.array_equal(h.time_weights, np.eye(3, 9, 3))
    assert np.array_equal(h.time_partials, h.blocks[3:6])
    with pytest.raises(TypeError, match="time_weights"):
        Homotopy(h.spatial, h.times, h.quadrature, h.blocks, h.weights, codomain="unitary")
    # and the builder hands in the quadrature: there is no default rule
    with pytest.raises(TypeError, match="quadrature"):
        Homotopy(h.spatial, h.times, blocks=h.blocks, weights=h.weights, time_weights=h.time_weights)
    with pytest.raises(TypeError, match="path_derivative"):
        conjugation_homotopy(f, lambda t: expm(t * gen))


def test_homotopy_holds_its_time_jet_from_construction():
    h = phase_homotopy(res=16, t_res=9)
    rev = h.reversed()
    cat = Homotopy.concatenate(h, rev)
    assert np.array_equal(cat.quadrature, np.concatenate([h.quadrature, rev.quadrature]))
    for x in (h, rev, cat, h.adjoint(), h.restrict((0,))):
        # the jet is held as weights on the blocks; each read forms a new stack
        assert not x.time_weights.flags.writeable and not x.time_partials.flags.writeable
        assert x.time_derivative() is not x.time_derivative()
        assert np.array_equal(x.time_derivative(), x.time_partials)
    assert np.array_equal(rev.time_partials, -h.time_partials[::-1])
    assert np.array_equal(cat.time_partials, np.concatenate([h.time_partials, rev.time_partials]))
    # a joined homotopy on other nodes keeps its time jet and its own quadrature
    short = stacked_homotopy(h.spatial, *lobatto_rule(5, 0.0, 1.0), rev.slices[::2], rev.time_partials[::2], "unitary")
    mixed = Homotopy.concatenate(h, short)
    assert np.array_equal(mixed.time_partials, np.concatenate([h.time_partials, short.time_partials]))
    assert np.array_equal(mixed.quadrature, np.concatenate([h.quadrature, short.quadrature]))


def test_homotopy_reverse_flips_cs_sign():
    h = phase_homotopy(res=64, t_res=17)
    a = cs_forms(h, 1)[1]
    b = cs_forms(h.reversed(), 1)[1]
    assert (a + b).sup_norm() < 1e-12


def test_cs_projection_k2_matches_space_time_permutation_sum():
    dom = make_domain("torus3", (8, 8, 8))
    x = random_unitary_map(np.random.default_rng(8), dom, size=4, window=PolarizedWindow(2, 2))
    # raw values: with the exact jets of x this integrand vanishes pointwise
    h = inversion_homotopy_even(SampledMap(dom, x.values, codomain="unitary", window=x.window), t_res=9)
    integrand = np.zeros((h.n_times, *dom.node_shape), dtype=complex)
    for it in range(h.n_times):
        # the slices are frames v of p = v v*, the time jet is that of v
        v, w = h.slices[it], h.time_partials[it]
        p = h.slice_map(it).values
        dt = w @ np.swapaxes(v, -1, -2).conj() + v @ np.swapaxes(w, -1, -2).conj()
        d = [dt, *differentiate(h.slice_map(it))]  # slot 0 is t
        for perm in itertools.permutations(range(4)):
            a, b, c, e = (d[q] for q in perm)
            prod = p @ (a @ b - b @ a) @ p @ (c @ e - e @ c)
            integrand[it] += perm_sign(perm) * np.trace(prod, axis1=-2, axis2=-1) / 4
    expected = chern_scalar("even", 2) * np.tensordot(h.quadrature, integrand, 1)
    got = cs_forms(h, 2)[2].component((0, 1, 2))
    assert np.abs(expected).max() > 1e-3
    assert np.abs(got - expected).max() < 1e-10


def _inversion_homotopies(seeds=(5, 6)):
    dom = make_domain("torus3", (8, 8, 8))
    f = random_unitary_map(np.random.default_rng(seeds[0]), dom, size=2)
    x = random_unitary_map(np.random.default_rng(seeds[1]), dom, size=4, window=PolarizedWindow(2, 2))
    return {
        "odd_exact_jets": inversion_homotopy_odd(f, t_res=5),
        "odd_grid_jets": inversion_homotopy_odd(SampledMap(dom, f.values, codomain="unitary"), t_res=5),
        "even": inversion_homotopy_even(x, t_res=5),
        "even_grid_jets": inversion_homotopy_even(
            SampledMap(dom, x.values, codomain="unitary", window=x.window), t_res=5
        ),
    }


def _product_pair(p, d, i, j):
    """``p (d_i d_j - d_j d_i) p`` from the products of ``cs_forms``:
    ``M - M*`` with ``M = (p d_i)(p d_j)*``."""
    m = (p @ d[i]) @ np.swapaxes((p @ d[j]).conj(), -1, -2)
    return m - np.swapaxes(m.conj(), -1, -2)


def _commutator_pair(p, d, i, j):
    """``p [d_i, d_j]``, which has the same traces as :func:`_product_pair`."""
    return p @ (d[i] @ d[j] - d[j] @ d[i])


def _frame_slots(h, it):
    """The slots of the frame slice ``v`` at ``it`` from the products of
    :class:`_FrameCurvature`, all on float views: ``G_0`` of the time jet,
    and ``R(G)`` of the spatial slots.  With ``W = [R(v) | R(iv)]`` the
    reshape of ``v @ [1 | R(i) | R(i) | -1]``, ``R(G)`` is the reshape of ``d
    @ W`` for the grid jets ``d`` of ``p = v R(v)^T``, and ``G = x + v R(x*
    v)`` for the frame jets ``x``, ``R(x* v)`` the reshape of ``x* @ W``,
    with ``i G`` in the odd rows of ``R(G)``."""
    v = h.slices[it]
    *nodes, n, r = v.shape
    turn = _real_form(1j * np.eye(r))
    wide = (v.view(float) @ np.hstack([np.eye(2 * r), turn, turn, -np.eye(2 * r)])).reshape(*nodes, 2 * n, 4 * r)

    def frame_jet(x):
        small = (np.ascontiguousarray(_adj(x)).view(float) @ wide).reshape(*nodes, 2 * r, 2 * r)
        return v.view(float) @ small + x.view(float)

    slots = np.empty((h.spatial.dim, *nodes, 2 * n, 2 * r))
    rows = slots.reshape(len(slots), *nodes, n, 4 * r)
    for row, x in zip(rows, (d[it] for d in h.spatial_partials or ())):
        g = frame_jet(x)
        row[..., : 2 * r] = g
        row[..., 2 * r :] = (1j * g.view(complex)).view(float)
    if h.spatial_partials is None:
        p = (v.view(float) @ np.swapaxes(wide[..., : 2 * r], -1, -2)).view(complex)
        for row, d in zip(rows, differentiate(SampledMap(h.spatial, p))):
            row[...] = d.view(float) @ wide
    return frame_jet(h.time_partials[it]), slots


def _slot_integrand(head, slots, k):
    """The contracted integrand of the slots of :func:`_frame_slots`, by the
    expressions of ``cs_forms``: ``tr F_0i = -2i <G_0, i G_i>`` for ``k =
    1``, and for ``k = 2`` the sum over the cyclic ``(i, j, l)`` of ``-2
    <R(G_j)^T R(G_l) - (..)^T, G_0^T G_i>``."""
    *nodes, _, r2 = slots.shape[1:]
    rows = slots.reshape(len(slots), *nodes, -1, 2 * r2)
    if k == 1:
        return {(i,): -2j * np.einsum("...ij,...ij->...", head, row[..., r2:]) for i, row in enumerate(rows)}
    total = np.zeros(nodes)
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        pair = np.swapaxes(slots[j], -1, -2) @ slots[l]
        curvature = pair - np.swapaxes(pair, -1, -2)
        total -= np.vecdot(curvature.reshape(*nodes, -1), (np.swapaxes(head, -1, -2) @ rows[i][..., :r2]).reshape(*nodes, -1))
    return {(0, 1, 2): 2.0 * total}


def _unitary_integrand(f, dt, d, k):
    """The contracted unitary CS integrand of a slice ``f`` with time jet
    ``dt`` and spatial jets ``d``: ``tr(f^{-1} df/dt)`` for ``k = 1``; for
    ``k = 2`` the products of ``cs_forms``, ``beta = J f^{-1}`` of the
    row-stacked jets ``J = [df/dt; d_1 f; ..]`` and ``X_i = beta_i beta_t``,
    both on float views, paired as ``tr(beta ^ X)``."""
    if k == 1:
        return trace_wedge({(): _adj(f) @ dt})
    n = f.shape[-1]
    jets = np.concatenate([dt, *d], axis=-2)
    beta = (jets.view(float) @ _real_form(_adj(f))).view(complex)
    heads = (beta[..., n:, :].view(float) @ _real_form(beta[..., :n, :])).view(complex)
    rows = range(n, jets.shape[-2], n)
    return trace_wedge(
        {(i,): beta[..., a : a + n, :] for i, a in enumerate(rows)},
        {(i,): heads[..., a - n : a, :] for i, a in enumerate(rows)},
    )


def _cs_through_slice_maps(h, k, pair=_product_pair):
    """``cs_forms`` evaluated one validated slice map at a time, projection
    pairs built by ``pair``; frame slices are read off the slots of
    :func:`_frame_slots` (:func:`_slot_integrand`)."""
    dt = h.time_derivative()
    acc = {}
    for it, wt in enumerate(h.quadrature):
        sl = h.slice_map(it)
        d = differentiate(sl)
        if h.codomain == "unitary":
            comps = _unitary_integrand(sl.values, dt[it], d, k)
            c = chern_scalar("odd", k) * (2 * k - 1)
        else:
            if h.slices.shape[-1] < h.slices.shape[-2]:
                comps = _slot_integrand(*_frame_slots(h, it), k)
            else:
                slots = [dt[it], *d]  # slot 0 is t
                pairs = {(a, b): pair(sl.values, slots, a, b) for a, b in itertools.combinations(range(len(slots)), 2)}
                iota = {(i - 1,): pairs[0, i] for i in range(1, h.spatial.dim + 1)}
                curvature = {(i - 1, j - 1): x for (i, j), x in pairs.items() if i > 0}
                comps = trace_wedge(iota, *[curvature] * (k - 1))
            c = chern_scalar("even", k) * k
        for idx, val in comps.items():
            acc[idx] = acc[idx] + wt * val if idx in acc else wt * val
    return {idx: c * a for idx, a in acc.items()}


@pytest.mark.parametrize("name", ["odd_exact_jets", "odd_grid_jets", "even", "even_grid_jets"])
def test_cs_form_reads_slices_without_revalidating_them(name, monkeypatch):
    h = _inversion_homotopies()[name]
    calls = []
    validate = SampledMap._validate_tag

    def counting(self, *args, **kwargs):
        calls.append(self)
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(SampledMap, "_validate_tag", counting)
    forms = cs_forms(h)
    single = {k: cs_forms(h, k)[k] for k in (1, 2)}
    assert not calls
    monkeypatch.undo()
    assert forms.keys() == {1, 2}
    for k, form in forms.items():
        expected = _cs_through_slice_maps(h, k)
        assert form.comps.keys() == expected.keys() == single[k].comps.keys()
        for idx, comp in form.comps.items():
            # the same products, so bit for bit; CS_0 of unitary slices is a trace pairing
            if form.form_degree > 0:
                assert np.array_equal(comp, expected[idx])
            assert np.abs(comp - expected[idx]).max() < 1e-15
            assert np.array_equal(comp, single[k].comps[idx])


@pytest.mark.parametrize("name", ["odd_exact_jets", "odd_grid_jets"])
def test_cs_form_on_two_axes_is_the_slice_map_form_bit_for_bit(name):
    # the 2-cycle passes that cs_exact runs for degree 2
    h = _inversion_homotopies()[name].restrict((0, 2))
    assert h.spatial.dim == 2 and h.slices.shape[-1] == 4
    forms = cs_forms(h)
    assert forms.keys() == {1, 2}
    for k, form in forms.items():
        expected = _cs_through_slice_maps(h, k)
        assert form.comps.keys() == expected.keys()
        for idx, comp in form.comps.items():
            if form.form_degree > 0:
                # with exact jets the form is round-off, which is still pinned bit for bit
                assert name == "odd_exact_jets" or np.abs(comp).max() > 1e-3
                assert np.array_equal(comp, expected[idx])
            assert np.abs(comp - expected[idx]).max() < 1e-15


def _assert_is_the_slice_map_form(h, vanishes=False):
    """Every positive-degree component of ``cs_forms(h)`` has the bytes of
    that of :func:`_cs_through_slice_maps`, and is zero exactly when
    ``vanishes``; degree 0, a pairing of the blocks, is pinned to round-off."""
    forms = cs_forms(h)
    for k, form in forms.items():
        expected = _cs_through_slice_maps(h, k)
        assert form.comps.keys() == expected.keys()
        for idx, comp in form.comps.items():
            if form.form_degree > 0:
                assert comp.tobytes() == expected[idx].tobytes()
                assert not comp.any() if vanishes else np.abs(comp).max() > 1e-3
            assert np.abs(comp - expected[idx]).max() < 1e-15
    return forms


@pytest.mark.parametrize("cycle", [(0, 1), (0, 2), (1, 2)])
def test_cs_form_on_every_two_cycle_is_the_slice_map_form_bit_for_bit(cycle):
    # the three passes of the degree-2 cs_exact of the grid-jet odd inversion
    h = _inversion_homotopies()["odd_grid_jets"].restrict(cycle)
    assert _assert_is_the_slice_map_form(h).keys() == {1, 2}


def test_cs_form_of_the_first_time_row_is_the_slice_map_form_bit_for_bit():
    # the rotation's time row at t = 0 is (0, -0.0, 2): one nonzero weight and a
    # signed zero, whose block the read skips, so the jet is 2 B_2 to the byte
    h = _inversion_homotopies()["odd_grid_jets"]
    assert h.time_weights[0].tolist() == [0.0, -0.0, 2.0] and np.signbit(h.time_weights[0, 1])
    assert h.time_derivative()[0].tobytes() == (2.0 * h.blocks[2]).tobytes()
    # the homotopy integrated at t = 0 alone: f (+) f* and its jets are block
    # diagonal there and the time jet off-diagonal, so tr(beta ^ X) is exactly 0
    first = Homotopy(
        h.spatial, h.times, np.eye(h.n_times)[0] * h.quadrature, h.blocks, h.weights, h.time_weights, "unitary", h.window
    )
    assert _assert_is_the_slice_map_form(first, vanishes=True).keys() == {1, 2}


@pytest.mark.parametrize("exact_jets", [False, True])
def test_cs_form_of_a_one_hot_homotopy_is_the_slice_map_form_bit_for_bit(exact_jets):
    # a conjugation homotopy's tables pick one block with weight 1: each read is a product over a span of one block
    dom = make_domain("torus3", (8, 8, 8))
    f = random_unitary_map(np.random.default_rng(7), dom, size=2)
    f = f if exact_jets else SampledMap(dom, f.values, codomain="unitary")
    gen = np.array([[0.5j, 1.0], [-1.0, -0.25j]])
    h = conjugation_homotopy(f, lambda t: expm(t * gen), lambda t: gen @ expm(t * gen), t_res=5)
    assert _assert_is_the_slice_map_form(h).keys() == {1, 2}


def _complex_products(monkeypatch):
    """Count the ``np.matmul`` calls on complex operands: the slice products,
    not the real dense-derivative ones."""
    calls = []
    matmul = np.matmul

    def counting(a, b, *args, **kwargs):
        if np.iscomplexobj(a) or np.iscomplexobj(b):
            calls.append(np.shape(b))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    return calls


def _stacked_products(monkeypatch):
    """Record ``(complex, a.shape, b.shape)`` of every ``np.matmul`` call
    whose first operand is a stack of matrices: the slice products and the
    widenings of a stack by one constant matrix, not the dense derivatives
    (a matrix times a stack) or the weighted sums over blocks."""
    calls = []
    matmul = np.matmul

    def counting(a, b, *args, **kwargs):
        if np.ndim(a) > 2:
            calls.append((np.iscomplexobj(a) or np.iscomplexobj(b), np.shape(a), np.shape(b)))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    return calls


@pytest.mark.parametrize("name", ["odd_exact_jets", "odd_grid_jets", "odd_on_a_two_cycle"])
def test_unitary_slices_take_two_stacked_products(name, monkeypatch):
    hs = _inversion_homotopies()
    h = hs["odd_grid_jets"].restrict((0, 2)) if name == "odd_on_a_two_cycle" else hs[name]
    dim, n, nodes = h.spatial.dim, h.slice_shape[-1], h.slice_shape[:-2]
    calls = _stacked_products(monkeypatch)
    cs_forms(h, 2)
    # f* widened by [1 | R(i) | R(i) | -1]; then [df/dt; d_1 f; ..] times
    # [R(f*) | R(if*)], which writes R(beta); then [beta_1; ..] times the
    # R(beta_t) view; all on float views
    per_slice = [
        (False, nodes + (n, 2 * n), (2 * n, 8 * n)),
        (False, nodes + ((dim + 1) * n, 2 * n), nodes + (2 * n, 4 * n)),
        (False, nodes + (dim * n, 2 * n), nodes + (2 * n, 2 * n)),
    ]
    assert calls == per_slice * h.n_times
    calls.clear()
    cs_forms(h, 1)
    assert calls == []


@pytest.mark.parametrize("name", ["odd_exact_jets", "odd_grid_jets", "odd_on_a_two_cycle"])
def test_the_beta_t_view_is_the_real_form_of_beta_t(name):
    # the first product writes R(beta) row pair by row pair, so the second
    # reads R(beta_t) in place, with the bytes of the two-write real form
    hs = _inversion_homotopies()
    h = hs["odd_grid_jets"].restrict((0, 2)) if name == "odd_on_a_two_cycle" else hs[name]
    n = h.slice_shape[-1]
    ws = chernforms._SliceWorkspace(h, [2])
    (_, _, rows), (_, real_beta_t, _) = ws.kernel.products  # the buffers of the unitary kernel
    assert np.shares_memory(real_beta_t, rows)
    slices, dt = h.slices, h.time_derivative()
    for it in range(h.n_times):
        ws.integrands(it)
        beta_t = rows[..., :n, : 2 * n].view(complex)
        assert real_beta_t.tobytes() == _real_form(beta_t).tobytes()
        # and beta_t is the right logarithmic derivative df/dt f* of the slice
        assert np.abs(beta_t - dt[it] @ _adj(slices[it])).max() <= 1e-14 * max(1.0, np.abs(dt[it]).max())


@pytest.mark.parametrize("name", ["odd_exact_jets", "odd_grid_jets", "phase_twisted"])
def test_unitary_cs_zero_is_the_quadrature_of_the_slice_traces(name):
    # sum_i q_i tr(f_i* df_i/dt) from the stacks, against the block pairings;
    # the scale bounds every term: sum_i |q_i| max |f_i|_F |df_i/dt|_F
    hs = _inversion_homotopies()
    h = _phase_twisted(hs["odd_grid_jets"]) if name == "phase_twisted" else hs[name]
    slices, dt = h.slices, h.time_derivative()
    expected = sum(q * np.trace(_adj(f) @ d, axis1=-2, axis2=-1) for q, f, d in zip(h.quadrature, slices, dt))
    norms = np.linalg.norm(slices, axis=(-2, -1)) * np.linalg.norm(dt, axis=(-2, -1))
    scale = float(np.abs(h.quadrature) @ norms.reshape(h.n_times, -1).max(axis=1))
    got = chernforms._unitary_cs_zero(h)
    assert scale > 1.0 and got.shape == h.spatial.node_shape
    assert np.abs(got - expected).max() <= 1e-15 * scale


def _alpha_form(h):
    """CS_2 of the unitary homotopy ``h`` from the complex left-invariant
    products, ``alpha = f^{-1} [df/dt | d_1 f | ..]`` and then ``alpha_t
    [omega_1 | ..]``, and the scale of its round-off: the quadrature sum of
    the largest ``|alpha_t| |omega_i|^2`` (Frobenius norms) of each slice,
    which bounds every trace it sums."""
    dt = h.time_derivative()
    acc, scale = {}, 0.0
    for it, wt in enumerate(h.quadrature):
        sl = h.slice_map(it)
        n = sl.values.shape[-1]
        alpha = _adj(sl.values) @ np.concatenate([dt[it], *differentiate(sl)], axis=-1)
        heads = alpha[..., :n] @ alpha[..., n:]
        head = [heads[..., a : a + n] for a in range(0, heads.shape[-1], n)]
        omega = [alpha[..., a : a + n] for a in range(n, alpha.shape[-1], n)]
        norms = np.linalg.norm(alpha[..., :n], axis=(-2, -1)), *(np.linalg.norm(x, axis=(-2, -1)) for x in omega)
        scale += abs(wt) * (norms[0] * np.max(norms[1:], axis=0) ** 2).max()
        forms = ({(i,): x for i, x in enumerate(xs)} for xs in (head, omega))
        for idx, val in trace_wedge(*forms).items():
            acc[idx] = acc[idx] + wt * val if idx in acc else wt * val
    c = chern_scalar("odd", 2) * 3
    return {idx: c * a for idx, a in acc.items()}, abs(c) * scale


@pytest.mark.parametrize("name", ["odd_exact_jets", "odd_grid_jets", "phase_twisted"])
def test_unitary_cs_form_is_the_left_invariant_form(name):
    # tr(beta ^ X) of the right logarithmic derivative is tr(alpha_t ^ omega ^ omega)
    hs = _inversion_homotopies()
    h = _phase_twisted(hs["odd_grid_jets"]) if name == "phase_twisted" else hs[name]
    expected, scale = _alpha_form(h)
    got = cs_forms(h, 2)[2]
    assert scale > 1e-2 and got.comps.keys() == expected.keys()
    for idx, comp in got.comps.items():
        assert np.abs(comp - expected[idx]).max() <= 1e-14 * scale


def test_projection_slices_take_no_complex_product(monkeypatch):
    hs = _inversion_homotopies()
    square = _conjugated_projections(make_domain("torus3", (8, 8, 8)))
    calls = _stacked_products(monkeypatch)
    nodes, (n, r) = hs["even"].slice_shape[:-2], hs["even"].slice_shape[-2:]
    # W is v widened by [1 | R(i) | R(i) | -1]; a frame jet x takes x* W, then
    # v R(x* v); a jet d of p takes d W; the degree-3 pairing takes
    # R(G_j)^T R(G_k) and G_0^T G_i for each cyclic (i, j, k)
    widening = [(False, nodes + (n, 2 * r), (2 * r, 8 * r))]
    frame_jet = [(False, nodes + (r, 2 * n), nodes + (2 * n, 4 * r)), (False, nodes + (n, 2 * r), nodes + (2 * r, 2 * r))]
    volume = [(False, nodes + (2 * r, 2 * n), nodes + (2 * n, 2 * r)), (False, nodes + (2 * r, n), nodes + (n, 2 * r))] * 3
    for name, per_slice in (
        ("even", widening + frame_jet * 4 + volume),
        # p = v R(v)^T, the time jet of the frame, and each grid jet of p
        (
            "even_grid_jets",
            widening
            + [(False, nodes + (n, 2 * r), nodes + (2 * r, 2 * n))]
            + frame_jet
            + [(False, nodes + (n, 2 * n), nodes + (2 * n, 4 * r))] * 3
            + volume,
        ),
    ):
        calls.clear()
        cs_forms(hs[name], 2)
        assert calls == per_slice * hs[name].n_times
    # a square slice takes its frame from eigh, widens it and takes all four slots as jets of p
    calls.clear()
    cs_forms(square, 2)
    assert calls and not any(is_complex for is_complex, _, _ in calls)
    assert len(calls) == (1 + 4 + 6) * square.n_times


def _phase_twisted(h):
    """The unitary homotopy ``h`` times the phase ``exp(i t a(x))``, whose CS_0 is not zero."""
    x = np.meshgrid(*[ax.coords for ax in h.spatial.axes], indexing="ij")
    a = (np.cos(x[0]) + 0.5 * np.sin(x[1] + x[2]))[..., None, None]
    phase = np.exp(1j * h.times.reshape(-1, *[1] * (h.slices.ndim - 1)) * a)
    dt = phase * (1j * a * h.slices + h.time_derivative())
    return stacked_homotopy(h.spatial, h.times, h.quadrature, phase * h.slices, dt, codomain="unitary")


@pytest.mark.parametrize("name", ["odd_exact_jets", "odd_grid_jets", "phase_twisted"])
def test_cs_zero_alone_is_the_trace_pairing(name):
    hs = _inversion_homotopies()
    h = _phase_twisted(hs["odd_grid_jets"]) if name == "phase_twisted" else hs[name]
    alone = cs_forms(h, 1)[1]
    expected = _cs_through_slice_maps(h, 1)
    assert alone.comps.keys() == expected.keys() == {()}
    if name == "phase_twisted":
        assert np.abs(expected[()]).max() > 0.1
    assert np.abs(alone.comps[()] - expected[()]).max() <= 1e-15
    assert np.abs(alone.comps[()] - cs_forms(h)[1].comps[()]).max() <= 1e-15


def _phase_family(t_res):
    """``f_t = exp(i t^2 phi(x)) (+) 1`` on torus2 over ``t`` in [0, 1], held
    stacked with its time jet ``2 i t phi f_t (+) 0``; its ``CS_0`` is
    ``chern_scalar("odd", 1) i phi`` at every node, from the integrand
    ``tr(f^{-1} df/dt) = 2 i t phi``, which the Lobatto rule integrates exactly."""
    dom = make_domain("torus2", (16, 16))
    x = np.meshgrid(*[ax.coords for ax in dom.axes], indexing="ij")
    phi = (np.cos(x[0]) + 0.5 * np.sin(x[0] + 2.0 * x[1]))[..., None, None]
    nodes, quadrature = lobatto_rule(t_res, 0.0, 1.0)
    times = nodes[:, None, None, None, None]
    phase = np.exp(1j * times**2 * phi)
    slices = blocksum(phase, np.ones_like(phase))
    jets = blocksum(2j * times * phi * phase, np.zeros_like(phase))
    return stacked_homotopy(dom, nodes, quadrature, slices, jets, codomain="unitary"), phi[..., 0, 0]


def test_cs_zero_of_a_phase_family_is_its_phase():
    # every inversion and Eckmann-Hilton CS_0 vanishes; this one does not
    h, phi = _phase_family(9)
    expected = chern_scalar("odd", 1) * 1j * phi
    assert np.abs(expected).max() > 0.2
    assert np.abs(cs_forms(h, 1)[1].comps[()] - expected).max() < 1e-12
    assert np.abs(cs_forms(h)[1].comps[()] - expected).max() < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cs_zero_pairings_are_the_slice_by_slice_integral(seed):
    # sum_kl c_kl tr(B_k* B_l), c = W^T diag(q) W', is sum_i q_i tr(f_i* df_i/dt)
    # for any blocks and real weights, derived homotopies included
    rng = np.random.default_rng(seed)
    dom = make_domain("circle", 8)
    n, k = 7, 3
    blocks = rng.standard_normal((k, 8, 2, 2)) + 1j * rng.standard_normal((k, 8, 2, 2))
    weights, time_weights = rng.standard_normal((2, n, k))
    h = Homotopy(dom, *lobatto_rule(n, 0.0, 1.0), blocks, weights, time_weights, "unitary")
    stacked = stacked_homotopy(dom, h.times, h.quadrature, h.slices, h.time_partials, "unitary")  # one-hot tables
    for x in (h, h.reversed(), Homotopy.concatenate(h, Homotopy.concatenate(h.reversed(), h)), stacked):
        pairs = zip(x.quadrature, x.slices, x.time_partials)
        expected = sum(q * np.einsum("...ij,...ij->...", s.conj(), j) for q, s, j in pairs)
        got = cs_forms(x, 1)[1].comps[()] / chern_scalar("odd", 1)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("name", ["odd_grid_jets", "even_grid_jets"])
def test_cs_forms_returns_no_workspace_buffer(name):
    first = cs_forms(_inversion_homotopies()[name])
    kept = {(k, idx): c.copy() for k, f in first.items() for idx, c in f.comps.items()}
    second = cs_forms(_inversion_homotopies(seeds=(8, 9))[name])
    assert max(np.abs(second[k].comps[idx] - c).max() for (k, idx), c in kept.items()) > 1e-3
    for (k, idx), c in kept.items():
        assert np.array_equal(first[k].comps[idx], c)
    comps = [c for forms in (first, second) for f in forms.values() for c in f.comps.values()]
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(comps, 2))


def _conjugated_projections(dom, exact_jets=True, t_res=9, leaf=None, eased=False):
    """A conjugation of a projection family on ``dom`` (or of ``leaf``) along
    ``t -> exp(phi(t) g)``, whose CS forms do not vanish pointwise; grid jets
    unless ``exact_jets``.  ``phi(t)`` is ``t``, or ``(1 - cos pi t)/2`` when
    ``eased``: the same path run at another speed, with the same ends."""
    p = random_projection_map(np.random.default_rng(7), dom, PolarizedWindow(2, 2)) if leaf is None else leaf
    if not exact_jets:
        p = SampledMap(dom, p.values, codomain=p.codomain, window=p.window)
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    gen = g - g.conj().T

    def phi(t):
        return 0.5 * (1.0 - np.cos(np.pi * t)) if eased else t

    def rate(t):
        return 0.5 * np.pi * np.sin(np.pi * t) if eased else 1.0

    return conjugation_homotopy(p, lambda t: expm(phi(t) * gen), lambda t: rate(t) * gen @ expm(phi(t) * gen), t_res)


def _largest_gap(forms, others):
    """The largest gap between the components of two ``cs_forms`` results,
    and the largest component of the first."""
    assert forms.keys() == others.keys()
    gap = max(np.abs(others[k].comps[idx] - c).max() for k, f in forms.items() for idx, c in f.comps.items())
    return gap, max(np.abs(c).max() for f in forms.values() for c in f.comps.values())


@pytest.mark.parametrize("kind", ["projection", "unitary"])
def test_cs_forms_do_not_see_a_reparametrization(kind):
    # the transgression form is invariant under a change of speed that keeps
    # the ends; the Lobatto rule reads it to round-off at 13 nodes, not at 5
    dom = make_domain("torus3", (8, 8, 8))
    leaf = random_unitary_map(np.random.default_rng(7), dom, size=4) if kind == "unitary" else None
    gaps = {}
    for t_res in (5, 13):
        plain = cs_forms(_conjugated_projections(dom, t_res=t_res, leaf=leaf))
        gap, scale = _largest_gap(plain, cs_forms(_conjugated_projections(dom, t_res=t_res, leaf=leaf, eased=True)))
        assert scale > 1.0
        gaps[t_res] = gap / scale
    assert gaps[13] < 1e-13 and gaps[5] > 1e-7


@pytest.mark.parametrize("name", ["odd_grid_jets", "even_grid_jets", "conjugated"])
def test_an_even_node_count_builds_and_agrees_with_the_odd_one(name):
    dom = make_domain("torus3", (8, 8, 8))
    if name == "conjugated":
        even, odd = (_conjugated_projections(dom, t_res=t_res) for t_res in (12, 13))
    else:
        builder = inversion_homotopy_odd if name == "odd_grid_jets" else inversion_homotopy_even
        leaf = random_unitary_map(np.random.default_rng(5), dom, size=4)
        leaf = SampledMap(dom, leaf.values, codomain="unitary", window=PolarizedWindow(2, 2))
        even, odd = (builder(leaf, t_res=t_res) for t_res in (12, 13))
    assert even.n_times == 12 and even.quadrature.sum() == pytest.approx(odd.quadrature.sum(), abs=1e-15)
    gap, scale = _largest_gap(cs_forms(odd), cs_forms(even))
    # unitary slices and projections, whose entries are at most 1: round-off is absolute
    assert scale > 1e-3 and gap < 1e-14


@pytest.mark.parametrize("exact_jets", [True, False])
def test_cs_form_has_the_traces_of_the_commutator_pairs(exact_jets):
    h = _conjugated_projections(make_domain("torus3", (8, 8, 8)), exact_jets)
    forms = cs_forms(h)
    assert forms.keys() == {1, 2}
    for k, form in forms.items():
        expected = _cs_through_slice_maps(h, k, _commutator_pair)
        assert form.comps.keys() == expected.keys()
        scale = max(np.abs(c).max() for c in expected.values())
        assert scale > 0.1
        for idx, comp in form.comps.items():
            assert np.abs(comp - expected[idx]).max() <= 1e-14 * scale


@pytest.mark.parametrize("name", ["odd_exact_jets", "odd_grid_jets", "even", "conjugated"])
def test_cs_exact_on_cycles_equals_the_full_grid_residuals(name):
    # a conjugated projection family on torus2: a CS_1 that is not exact, each 1-cycle pinning the other axis
    h = _conjugated_projections(make_domain("torus2", (16, 16))) if name == "conjugated" else _inversion_homotopies()[name]
    expected = {f.form_degree: exactness_residual(f) for f in cs_forms(h).values()}
    got = cs_exact(h)["residuals"]
    assert got.keys() == expected.keys()
    if name in ("odd_grid_jets", "conjugated"):  # aliased jets, a non-exact form: residuals above round-off
        assert max(expected.values()) > 1e-4
    for deg, r in got.items():
        assert abs(r - expected[deg]) <= 1e-15


def _same_homotopy(a, b):
    assert a.spatial == b.spatial and a.codomain == b.codomain
    assert np.array_equal(a.quadrature, b.quadrature)
    assert np.array_equal(a.times, b.times) and np.array_equal(a.slices, b.slices)
    assert np.array_equal(a.time_partials, b.time_partials)
    assert len(a.spatial_partials) == len(b.spatial_partials)
    for x, y in zip(a.spatial_partials, b.spatial_partials):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("axes", [(0,), (2,), (0, 2), (2, 1), (0, 1, 2)])
def test_restrict_pins_the_node_of_cycle_integral(axes):
    h = _inversion_homotopies()["even"]
    r = h.restrict(axes)
    sub, pin = sub_grid(h.spatial, axes)
    assert r.spatial == sub and r.spatial.dim == len(axes)
    assert np.array_equal(r.slices, h.slices[(slice(None), *pin)])
    for i, a in enumerate(sorted(axes)):
        assert np.array_equal(r.spatial_partials[i], h.spatial_partials[a][(slice(None), *pin)])
    full = GradedForm(h.spatial, len(axes), {tuple(sorted(axes)): np.trace(h.slices[1], axis1=-2, axis2=-1)})
    on_sub = GradedForm(sub, len(axes), {tuple(range(len(axes))): np.trace(r.slices[1], axis1=-2, axis2=-1)})
    assert cycle_integral(full, axes) == integrate(on_sub)
    _same_homotopy(h.reversed().restrict(axes), r.reversed())
    _same_homotopy(h.adjoint().restrict(axes), r.adjoint())


def _fresh(h):
    """A homotopy built by the constructor from the fields of ``h``."""
    return Homotopy(
        h.spatial, h.times, h.quadrature, h.blocks, h.weights, h.time_weights, h.codomain, h.window, h.spatial_weights
    )


def _assert_same_reads(a, b):
    """Every row of every table of ``a`` reads its store as that of ``b``:
    the same weights over the same float rows."""
    assert len(a._reads) == len(b._reads) == 2 + (0 if a.spatial_weights is None else a.spatial.dim)
    for reads, fresh in zip(a._reads, b._reads):
        assert len(reads) == len(fresh) == a.n_times
        for x, y in zip(reads, fresh):
            for u, v in zip(x, y, strict=True):
                assert u.shape == v.shape and u.tobytes() == v.tobytes()


def _one_hot_homotopy():
    """A conjugation homotopy with exact jets, whose tables are one-hot."""
    dom = make_domain("torus3", (8, 8, 8))
    gen = np.array([[0.5j, 1.0], [-1.0, -0.25j]])
    f = random_unitary_map(np.random.default_rng(7), dom, size=2)
    return conjugation_homotopy(f, lambda t: expm(t * gen), lambda t: gen @ expm(t * gen), t_res=5)


@pytest.mark.parametrize("name", ["odd_exact_jets", "odd_grid_jets", "even", "one_hot"])
def test_derived_homotopies_read_as_fresh_ones(name):
    h = _one_hot_homotopy() if name == "one_hot" else _inversion_homotopies()[name]
    derived = {
        "restrict": h.restrict((2, 0)),
        "restrict to one axis": h.restrict((1,)),
        "reversed": h.reversed(),
        "adjoint": h.adjoint(),
        "a chain": h.reversed().restrict((0, 1)).adjoint(),
        "concatenate": Homotopy.concatenate(h, h.reversed()),
    }
    for d in derived.values():
        _assert_same_reads(d, _fresh(d))


@st.composite
def _weight_tables(draw):
    """Tables of 1-5 blocks whose rows are zero, signed zeros, one-hot, or
    weights among which zeros of either sign fall."""
    n_blocks = draw(st.integers(1, 5))
    weight = st.sampled_from([0.0, -0.0]) | st.floats(-4.0, 4.0)
    rows = []
    for kind in draw(st.lists(st.sampled_from(["zero", "signed zeros", "one-hot", "weights"]), min_size=2, max_size=6)):
        if kind == "zero":
            rows.append([0.0] * n_blocks)
        elif kind == "one-hot":
            rows.append(np.eye(n_blocks)[draw(st.integers(0, n_blocks - 1))].tolist())
        else:
            entries = st.sampled_from([0.0, -0.0]) if kind == "signed zeros" else weight
            rows.append(draw(st.lists(entries, min_size=n_blocks, max_size=n_blocks)))
    return np.array(rows)


@settings(max_examples=80, deadline=None)
@given(_weight_tables(), st.integers(0, 2**16))
def test_every_row_reads_the_product_over_its_span(table, seed):
    rng = np.random.default_rng(seed)
    n_times, n_blocks = table.shape
    blocks = rng.standard_normal((n_blocks, 8, 2, 3)) + 1j * rng.standard_normal((n_blocks, 8, 2, 3))
    h = Homotopy(CIRCLE8, np.linspace(0.0, 1.0, n_times), np.full(n_times, 1.0 / n_times), blocks, table, -table)
    flat = blocks.view(float).reshape(n_blocks, -1)
    out = np.empty(h.slice_shape, dtype=complex)
    for i, row in enumerate(table):
        nonzero = np.flatnonzero(row)  # a signed zero is zero
        span = slice(nonzero[0], nonzero[-1] + 1) if nonzero.size else slice(0, 0)
        weights, rows = chernforms._row_reads(table, blocks)[i]
        assert weights.tobytes() == row[span].tobytes() and rows.tobytes() == flat[span].tobytes()
        for t, sign in ((0, 1.0), (1, -1.0)):
            got = h._read(t, i, out)
            assert got is out
            assert got.tobytes() == (sign * row[span] @ flat[span]).tobytes()
        got = h._read(0, i, out)
        if not nonzero.size:
            assert got.tobytes() == np.zeros(h.slice_shape, dtype=complex).tobytes()
        elif nonzero.size == 1 and row[nonzero[0]] == 1.0:
            assert got.tobytes() == blocks[nonzero[0]].tobytes()
        else:
            assert np.abs(got - np.tensordot(row, blocks, 1)).max() <= 1e-14 * max(1.0, np.abs(row).sum())


def _derivative_calls(monkeypatch):
    """Record the array rank of every spectral derivative taken."""
    ranks = []
    derivative = fourier.derivative

    def counting(values, axis=0, out=None):
        ranks.append(values.ndim)
        return derivative(values, axis, out)

    monkeypatch.setattr(fourier, "derivative", counting)
    return ranks


def test_cs_exact_takes_no_full_grid_jets_on_odd_slices(monkeypatch):
    h = _inversion_homotopies()["odd_grid_jets"]
    ranks = _derivative_calls(monkeypatch)
    cs_exact(h, k_max=2)
    # slices are (*node_shape, n, n): rank 5 on torus3, rank 4 on its three 2-cycles
    assert ranks.count(5) == 0
    assert ranks.count(4) == 3 * h.n_times * 2


@pytest.mark.parametrize("seed", [6, 7, 8])
def test_grid_jets_of_frame_slices_are_taken_of_their_projections(seed):
    # an 8^3 grid does not resolve x, and the grid jets of a frame are not
    # the jets of any projection: through the frame's own grid jets this
    # residual is 0.13-0.40, through those of p = v v* it is round-off
    dom = make_domain("torus3", (8, 8, 8))
    x = random_unitary_map(np.random.default_rng(seed), dom, size=4)
    h = inversion_homotopy_even(SampledMap(dom, x.values, codomain="unitary", window=PolarizedWindow(2, 2)), t_res=5)
    assert h.spatial_partials is None and h.slices.shape[-2:] == (8, 4)
    assert cs_exact(h, k_max=1)["residuals"][1] <= 1e-14


@pytest.mark.parametrize("name", ["odd_grid_jets", "even_grid_jets"])
def test_cs_exact_computes_only_the_degree_it_integrates(name, monkeypatch):
    from chernlab import chernforms

    h = _inversion_homotopies()[name]
    asked = []
    forms = chernforms._cs_forms

    def recording(H, ks):
        asked.append((H.spatial.dim, list(ks)))
        return forms(H, ks)

    monkeypatch.setattr(chernforms, "_cs_forms", recording)
    cs_exact(h, k_max=2)
    if name == "odd_grid_jets":  # CS_0 on the full grid, CS_2 on the three 2-cycles
        assert asked == [(3, [1])] + [(2, [2])] * 3
    else:  # CS_1 on the three circles, CS_3 on the full grid
        assert asked == [(1, [1])] * 3 + [(3, [2])]
    monkeypatch.undo()
    assert set(cs_forms(h, 2)) == {1, 2}
    single, whole = chernforms._cs_forms(h, [2])[2], cs_forms(h)[2]
    assert single.comps.keys() == whole.comps.keys()
    assert all(np.array_equal(single.comps[idx], whole.comps[idx]) for idx in whole.comps)


def test_cs_exact_takes_each_full_grid_jet_once_on_projection_slices(monkeypatch):
    dom = make_domain("torus3", (8, 8, 8))
    x = random_unitary_map(np.random.default_rng(6), dom, size=4)
    h = inversion_homotopy_even(SampledMap(dom, x.values, codomain="unitary", window=PolarizedWindow(2, 2)), t_res=5)
    assert h.spatial_partials is None
    ranks = _derivative_calls(monkeypatch)
    cs_exact(h, k_max=2)
    # degree 3 reads the whole torus3 once; degree 1 reads its three circles
    assert ranks.count(5) == h.n_times * 3
    assert ranks.count(3) == 3 * h.n_times


CIRCLE8 = make_domain("circle", 8)
LOBATTO5 = lobatto_rule(5, 0.0, 1.0)


def _eye_slices(t_res=5, rows=2, cols=2):
    return np.broadcast_to(np.eye(rows, cols, dtype=complex), (t_res, 8, rows, cols)).copy()


def _at_one_node(slices, value, it=2, node=3):
    """``slices`` with every entry of one node of slice ``it`` set to ``value``."""
    out = slices.copy()
    out[it, node] = value
    return out


def _overflowing(weights, codomain="generic", cols=2, it=2):
    """The five eye slices of :func:`_eye_slices` but slice ``it``, which
    adds ``weights`` of two copies of a finite block that holds 1e308 at node
    3: a weight 2 overflows to inf there, and weights 2 and -2 to inf - inf."""
    big = np.zeros((2, 8, 2, cols))
    big[:, 3] = 1e308
    table = np.eye(5, 7)
    table[it, 5:] = weights
    return Homotopy(CIRCLE8, *LOBATTO5, np.concatenate([_eye_slices(cols=cols), big]), table, 0.0 * table, codomain)


def _circle_map(codomain):
    return constant_map(make_domain("circle", 8), np.diag([1.0, 0.0 if codomain == "projection" else 1.0]), codomain)


CONTRACT_CHECKS = {
    "restrict to a float axis": (
        lambda: stacked_homotopy(CIRCLE8, *LOBATTO5, _eye_slices()).restrict((0.0,)),
        ShapeMismatch,
        r"\(0.0,\) are not distinct axes of a 1-dimensional domain",
    ),
    "slice_map past the last time node": (
        lambda: stacked_homotopy(CIRCLE8, *LOBATTO5, _eye_slices()).slice_map(99),
        ShapeMismatch,
        "slice index 99 of a homotopy with 5 time nodes",
    ),
    "chern_scalar k < 1": (lambda: chern_scalar("odd", 0), DegreeOverflow, "k >= 1"),
    "chern_scalar parity": (lambda: chern_scalar("evn", 1), ShapeMismatch, "parity must be 'odd' or 'even'"),
    "ch_odd tag": (lambda: ch_odd(_circle_map("projection"), 1), ShapeMismatch, "ch_odd needs a unitary-tagged map"),
    "ch_even tag": (lambda: ch_even(_circle_map("unitary"), 1), ShapeMismatch, "ch_even needs a projection-tagged map"),
    "ch_odd k = 0": (lambda: ch_odd(_circle_map("unitary"), 0), DegreeOverflow, "indexed by integers k >= 1, got 0"),
    "ch_odd fractional k": (lambda: ch_odd(_circle_map("unitary"), 1.5), DegreeOverflow, "integers k >= 1, got 1.5"),
    "ch_even k = 0": (lambda: ch_even(_circle_map("projection"), 0), DegreeOverflow, "k = 0 is the virtual dimension"),
    "ch_even degree": (lambda: ch_even(_circle_map("projection"), 1), DegreeOverflow, "degree 2 exceeds domain dimension 1"),
    "ch_total k_max": (lambda: ch_total(_circle_map("unitary"), 0), DegreeOverflow, "k_max must be >= 1"),
    "ch_total tag": (
        lambda: ch_total(_circle_map("generic")),
        ShapeMismatch,
        "ch_total needs a unitary- or projection-tagged map",
    ),
    "homotopy node shape": (
        lambda: stacked_homotopy(CIRCLE8, *LOBATTO5, np.zeros((5, 7, 2, 2))),
        ShapeMismatch,
        "block node shape does not match the spatial grid",
    ),
    "homotopy time count": (
        lambda: stacked_homotopy(CIRCLE8, *lobatto_rule(7, 0.0, 1.0), _eye_slices()),
        ShapeMismatch,
        r"homotopy weight tables must be finite and \(7, 10\), got \[\(5, 10\), \(5, 10\)\]",
    ),
    "homotopy even node count": (
        lambda: stacked_homotopy(CIRCLE8, lobatto_rule(4, 0.0, 1.0)[0], LOBATTO5[1], _eye_slices(4)),
        ShapeMismatch,
        "homotopy quadrature needs one finite real weight per time node: 5 for 4",
    ),
    "homotopy quadrature of the wrong length": (
        lambda: stacked_homotopy(CIRCLE8, LOBATTO5[0], np.full(4, 0.25), _eye_slices()),
        ShapeMismatch,
        "homotopy quadrature needs one finite real weight per time node: 4 for 5",
    ),
    "homotopy NaN quadrature weight": (
        lambda: stacked_homotopy(CIRCLE8, LOBATTO5[0], np.array([0.1, 0.3, np.nan, 0.3, 0.1]), _eye_slices()),
        ShapeMismatch,
        "homotopy quadrature needs one finite real weight per time node",
    ),
    "homotopy complex quadrature": (
        lambda: stacked_homotopy(CIRCLE8, LOBATTO5[0], LOBATTO5[1] + 0.1j, _eye_slices()),
        ShapeMismatch,
        "homotopy quadrature needs one finite real weight per time node: 5 for 5",
    ),
    "homotopy complex time nodes": (
        lambda: stacked_homotopy(CIRCLE8, LOBATTO5[0] + 0.1j, LOBATTO5[1], _eye_slices()),
        ShapeMismatch,
        "homotopy time nodes must be finite and increase",
    ),
    "homotopy one time node": (
        lambda: stacked_homotopy(CIRCLE8, np.zeros(1), np.ones(1), _eye_slices(1)),
        ShapeMismatch,
        "homotopy time nodes must be finite and increase from the first to the last",
    ),
    "homotopy NaN time node": (
        lambda: stacked_homotopy(CIRCLE8, np.array([0.0, 0.25, np.nan, 0.75, 1.0]), LOBATTO5[1], _eye_slices()),
        ShapeMismatch,
        "homotopy time nodes must be finite",
    ),
    "homotopy inf last time node": (
        lambda: stacked_homotopy(CIRCLE8, np.array([0.0, 0.25, 0.5, 0.75, np.inf]), LOBATTO5[1], _eye_slices()),
        ShapeMismatch,
        "homotopy time nodes must be finite",
    ),
    "homotopy uneven times": (
        lambda: stacked_homotopy(CIRCLE8, np.array([0.0, 0.1, 0.6, 0.3, 1.0]), LOBATTO5[1], _eye_slices()),
        ShapeMismatch,
        "homotopy time nodes must be finite and increase",
    ),
    "homotopy time partials": (
        lambda: Homotopy(CIRCLE8, *LOBATTO5, _eye_slices(), np.eye(5), np.eye(4, 5)),
        ShapeMismatch,
        r"homotopy weight tables must be finite and \(5, 5\), got \[\(5, 5\), \(4, 5\)\]",
    ),
    "homotopy spatial table count": (
        lambda: Homotopy(CIRCLE8, *LOBATTO5, _eye_slices(), np.eye(5), 0 * np.eye(5), spatial_weights=(np.eye(5),) * 2),
        ShapeMismatch,
        "2 spatial weight tables for 1 spatial axes",
    ),
    "homotopy spatial table shape": (
        lambda: Homotopy(CIRCLE8, *LOBATTO5, _eye_slices(), np.eye(5), 0 * np.eye(5), spatial_weights=(np.eye(5, 4),)),
        ShapeMismatch,
        r"homotopy weight tables must be finite and \(5, 5\), got \[\(5, 5\), \(5, 5\), \(5, 4\)\]",
    ),
    "homotopy NaN weight": (
        lambda: Homotopy(CIRCLE8, *LOBATTO5, _eye_slices(), np.eye(5), np.full((5, 5), np.nan)),
        ShapeMismatch,
        "homotopy weight tables must be finite",
    ),
    "homotopy NaN block": (
        lambda: Homotopy(CIRCLE8, *LOBATTO5, _at_one_node(_eye_slices(3), np.nan), np.ones((5, 3)), np.zeros((5, 3))),
        ShapeMismatch,
        "homotopy blocks must be finite",
    ),
    "cs_forms k_max = 0": (
        lambda: cs_forms(stacked_homotopy(CIRCLE8, *LOBATTO5, _eye_slices()), 0),
        DegreeOverflow,
        "k_max must be >= 1, got 0",
    ),
    "cs_exact k_max = 0": (
        lambda: cs_exact(stacked_homotopy(CIRCLE8, *LOBATTO5, _eye_slices()), k_max=0),
        DegreeOverflow,
        "k_max must be >= 1, got 0",
    ),
    "cs_exact k_max = -1": (
        lambda: cs_exact(stacked_homotopy(CIRCLE8, *LOBATTO5, _eye_slices()), k_max=-1),
        DegreeOverflow,
        "k_max must be >= 1, got -1",
    ),
    "cs_exact fractional k_max": (
        lambda: cs_exact(stacked_homotopy(CIRCLE8, *LOBATTO5, _eye_slices()), k_max=2.5),
        DegreeOverflow,
        "k_max must be >= 1, got 2.5",
    ),
    "cs_exact NaN tol": (
        lambda: cs_exact(stacked_homotopy(CIRCLE8, *LOBATTO5, _eye_slices()), tol=np.nan),
        ShapeMismatch,
        "tol must be a positive finite number, got nan",
    ),
    "cs_exact negative tol": (
        lambda: cs_exact(stacked_homotopy(CIRCLE8, *LOBATTO5, _eye_slices()), tol=-1.0),
        ShapeMismatch,
        "tol must be a positive finite number, got -1.0",
    ),
    "cs_forms tag": (
        lambda: cs_forms(stacked_homotopy(CIRCLE8, *LOBATTO5, _eye_slices(), codomain="generic")),
        ShapeMismatch,
        "CS forms need unitary or projection slices",
    ),
    "frame slice with a NaN node": (
        lambda: _overflowing((2.0, -2.0), codomain="projection", cols=1),
        ShapeMismatch,
        r"projection frame slices need V\* V = 1: max node defect nan",
    ),
    "frame slice with an inf node": (
        lambda: _overflowing((2.0, 0.0), codomain="projection", cols=1),
        ShapeMismatch,
        r"projection frame slices need V\* V = 1",
    ),
    "junction with a NaN node": (
        lambda: Homotopy.concatenate(
            _overflowing((2.0, -2.0), it=4), stacked_homotopy(CIRCLE8, *LOBATTO5, _eye_slices())
        ),
        NotALoop,
        "junction slices differ by nan",
    ),
    "homotopy NaN slice": (
        lambda: stacked_homotopy(CIRCLE8, *LOBATTO5, _at_one_node(_eye_slices(), np.nan)),
        ShapeMismatch,
        "homotopy blocks must be finite",
    ),
    "homotopy NaN frame slice": (
        lambda: stacked_homotopy(CIRCLE8, *LOBATTO5, _at_one_node(_eye_slices(cols=1), np.nan), codomain="projection"),
        ShapeMismatch,
        "homotopy blocks must be finite",
    ),
    "homotopy NaN time partial": (
        lambda: stacked_homotopy(CIRCLE8, *LOBATTO5, _eye_slices(), _at_one_node(0.0 * _eye_slices(), np.nan)),
        ShapeMismatch,
        "homotopy blocks must be finite",
    ),
    "homotopy inf spatial partial": (
        lambda: stacked_homotopy(
            CIRCLE8, *LOBATTO5, _eye_slices(), spatial_partials=(_at_one_node(0.0 * _eye_slices(), np.inf),)
        ),
        ShapeMismatch,
        "homotopy blocks must be finite",
    ),
}


@pytest.mark.parametrize("name", CONTRACT_CHECKS)
def test_contract_checks_raise_their_errors(name):
    call, error, fragment = CONTRACT_CHECKS[name]
    assert issubclass(error, ChernLabError)
    with pytest.raises(error, match=fragment), np.errstate(invalid="ignore", over="ignore"):
        call()


def test_homotopy_is_immutable():
    h = stacked_homotopy(CIRCLE8, *LOBATTO5, _eye_slices())
    with pytest.raises(AttributeError, match="a Homotopy is immutable; cannot set 'times'"):
        h.times = h.times[::-1]
    with pytest.raises(ValueError, match="read-only"):
        h.quadrature[0] = 0.0
