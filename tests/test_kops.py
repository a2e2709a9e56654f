import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from chernlab.builders import (
    frame_family_torus,
    loop_zn,
    qwz_band,
    random_band_loop,
    random_projection_map,
    random_unitary_map,
    su2_chart,
)
from chernlab.chernforms import Homotopy, ch_even, ch_odd, cs_exact, cs_forms
from chernlab.errors import AsymmetricWindow, BadPathStart, ChernLabError, ShapeMismatch
from chernlab.geomgrid import SampledMap, differentiate, integrate, make_domain
from chernlab.kops import (
    DEFAULT_T_RES,
    association_permutation,
    blocksum,
    blocksum_map,
    commutation_permutation,
    conjugation_homotopy,
    doubled_window,
    eckmann_hilton_homotopy,
    flip,
    flip_matrix,
    flip_projection,
    flip_projection_map,
    inversion_homotopy_even,
    inversion_homotopy_odd,
    lobatto_rule,
)
from chernlab.numkernel import haar_unitary
from chernlab.stiefel import PolarizedWindow
from homotopy_stacks import stacked_homotopy

RNG = np.random.default_rng(2024)
WIN = PolarizedWindow(2, 2)


def blocksum_with_shuffle(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Blocksum through an explicit isomorphism ``rho`` (rows = (copy1; copy2))."""
    n = a.shape[-1]
    direct = np.zeros((2 * n, 2 * n), dtype=complex)
    direct[:n, :n] = a
    direct[n:, n:] = b
    return rho.conj().T @ direct @ rho


def _adj(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2).conj()


def projection_homotopy(h: Homotopy) -> Homotopy:
    """The square homotopy of the projections ``V V*`` of a homotopy held by
    its frames ``V``: time jet ``W V* + V W*`` from the frame jet ``W``, and
    spatial jets ``d V V* + V d V*``."""

    def jet(d: np.ndarray) -> np.ndarray:
        a = d @ _adj(h.slices)
        return a + _adj(a)

    return stacked_homotopy(
        h.spatial,
        h.times,
        h.quadrature,
        h.slices @ _adj(h.slices),
        codomain="projection",
        window=h.window,
        time_partials=jet(h.time_partials),
        spatial_partials=None if h.spatial_partials is None else tuple(jet(d) for d in h.spatial_partials),
    )


def standard_shuffle_matrix(n: int) -> np.ndarray:
    """The interleave of ``blocksum`` as an explicit ``2n x 2n`` 0/1 matrix:
    copy-1 coordinate k reads slot 2k, copy-2 coordinate k reads slot 2k + 1."""
    rho = np.zeros((2 * n, 2 * n), dtype=complex)
    k = np.arange(n)
    rho[k, 2 * k] = 1.0
    rho[n + k, 2 * k + 1] = 1.0
    return rho


def blocksum_homotopy(h: Homotopy, g: Homotopy) -> Homotopy:
    win = None
    if h.window is not None and g.window is not None and h.window == g.window:
        win = doubled_window(h.window)
    sp = None
    if h.spatial_partials is not None and g.spatial_partials is not None:
        sp = tuple(blocksum(a, b) for a, b in zip(h.spatial_partials, g.spatial_partials))
    return stacked_homotopy(
        h.spatial,
        h.times,
        h.quadrature,
        blocksum(h.slices, g.slices),
        blocksum(h.time_partials, g.time_partials),
        codomain=h.codomain,
        window=win,
        spatial_partials=sp,
    )


# ------------------------------------ dense per-slice rotation reference
#
# The rotation homotopies as matrix products at every slice: the construction
# the closed forms in ``kops`` replace, kept to check them against.


def dense_rotation(gen: np.ndarray, t: float) -> np.ndarray:
    """``C_t = exp(t J)`` for a generator with ``J^3 = -J``: ``1 + sin t J + (1 - cos t) J^2``."""
    return np.eye(gen.shape[0]) + np.sin(t) * gen + (1.0 - np.cos(t)) * (gen @ gen)


def pair_rotation_generator(dim_small: int) -> np.ndarray:
    """``J`` with ``dC_t/dt = J C_t`` for the copy-mixing rotation."""
    j = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    return np.kron(np.eye(dim_small, dtype=complex), j)


def grading_rotation_generator(window: PolarizedWindow) -> np.ndarray:
    """``J`` pairing ``e_{2a+1}`` with ``e_{-2a-2}`` in the doubled window."""
    big = doubled_window(window)
    out = np.zeros((big.dim, big.dim), dtype=complex)
    for a in range(window.n_plus):
        p2 = big.index_of(2 * a + 1)
        m1 = big.index_of(-2 * a - 2)
        out[p2, m1] = -1.0
        out[m1, p2] = 1.0
    return out


def grading_rotation(window: PolarizedWindow, t: float) -> np.ndarray:
    return dense_rotation(grading_rotation_generator(window), t)


def dense_rotation_homotopy(a: SampledMap, b: SampledMap, t_res: int):
    """Slices ``(a (+) 1) C_t (1 (+) b) C_t*``, time jets and spatial jets."""
    n = a.cols
    eye = np.broadcast_to(np.eye(n, dtype=complex), a.values.shape)
    left = blocksum(a.values, eye)
    right = blocksum(eye, b.values)
    d_left = d_right = ()
    if a.partials is not None and b.partials is not None:
        zero = np.zeros_like(a.values)
        d_left = [blocksum(d, zero) for d in a.partials]
        d_right = [blocksum(zero, d) for d in b.partials]
    times = lobatto_rule(t_res, 0.0, np.pi / 2.0)[0]
    gen = pair_rotation_generator(n)
    slices = np.empty((times.size, *left.shape), dtype=complex)
    partials = np.empty_like(slices)
    spatial = tuple(np.empty_like(slices) for _ in d_left)
    for i, t in enumerate(times):
        ct = dense_rotation(gen, float(t))
        inner = ct @ right @ ct.conj().T
        slices[i] = left @ inner
        partials[i] = left @ (gen @ inner - inner @ gen)
        for out, dl, dr in zip(spatial, d_left, d_right):
            out[i] = dl @ inner + left @ (ct @ dr @ ct.conj().T)
    return slices, partials, spatial


def dense_inversion_even(x: SampledMap, t_res: int):
    """Slices ``M_t pi_+ M_t*`` with ``M_t = C_t* (x (+) flip x) C_t``, time and spatial jets."""
    win = x.window
    gen = grading_rotation_generator(win)
    summed = blocksum(x.values, flip(x.values, win))
    d_summed = [blocksum(d, flip(d, win)) for d in x.partials or ()]
    pi_plus = doubled_window(win).pi_plus
    times = lobatto_rule(t_res, 0.0, np.pi / 2.0)[0]
    slices = np.empty((times.size, *summed.shape), dtype=complex)
    partials = np.empty_like(slices)
    spatial = tuple(np.empty_like(slices) for _ in d_summed)
    for i, t in enumerate(times):
        ct = dense_rotation(gen, float(t))
        m_t = ct.conj().T @ summed @ ct
        m_dot = ct.conj().T @ (summed @ gen - gen @ summed) @ ct
        m_adj = np.swapaxes(m_t, -1, -2).conj()
        slices[i] = m_t @ pi_plus @ m_adj
        partials[i] = m_dot @ pi_plus @ m_adj + m_t @ pi_plus @ np.swapaxes(m_dot, -1, -2).conj()
        for out, ds in zip(spatial, d_summed):
            a = ct.conj().T @ ds @ ct @ pi_plus @ m_adj
            out[i] = a + np.swapaxes(a, -1, -2).conj()
    return slices, partials, spatial


# ---------------------------------------------------------------- blocksum


def test_blocksum_identity():
    out = blocksum(np.eye(3), np.eye(3))
    assert np.array_equal(out, np.eye(6))


def test_blocksum_interleaves_diagonals():
    x = np.diag([1.0, 2.0]).astype(complex)
    y = np.diag([3.0, 4.0]).astype(complex)
    out = blocksum(x, y)
    assert np.allclose(np.diagonal(out), [1.0, 3.0, 2.0, 4.0])


def test_blocksum_preserves_unitary_and_projection():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        u, v = haar_unitary(rng, 8), haar_unitary(rng, 8)
        s = blocksum(u, v)
        assert np.abs(s.conj().T @ s - np.eye(16)).max() < 1e-12
        p = u[:, :3] @ u[:, :3].conj().T
        q = v[:, :5] @ v[:, :5].conj().T
        sp = blocksum(p, q)
        assert np.abs(sp @ sp - sp).max() < 1e-12
        assert np.abs(sp - sp.conj().T).max() < 1e-12


def test_blocksum_shape_guard():
    with pytest.raises(ShapeMismatch):
        blocksum(np.eye(2), np.eye(3))


def test_blocksum_matches_explicit_shuffle():
    a = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    b = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    rho = standard_shuffle_matrix(4)
    assert np.abs(blocksum(a, b) - blocksum_with_shuffle(rho, a, b)).max() < 1e-14


def test_alternative_shuffles_differ_by_conjugation():
    a = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    b = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    rho = standard_shuffle_matrix(4)
    perm = np.random.default_rng(5).permutation(8)
    pmat = np.zeros((8, 8), dtype=complex)
    pmat[np.arange(8), perm] = 1.0
    rho_alt = rho @ pmat
    lhs = blocksum_with_shuffle(rho_alt, a, b)
    conj = pmat.conj().T  # rho_alt* X rho_alt = P* (rho* X rho) P
    rhs = conj @ blocksum_with_shuffle(rho, a, b) @ pmat
    assert np.abs(lhs - rhs).max() < 1e-13


# ---------------------------------------------------------------- flip


def test_flip_negates_grading():
    eps = WIN.epsilon
    assert np.array_equal(flip(eps, WIN), -eps)


def test_flip_is_involution():
    x = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    assert np.array_equal(flip(flip(x, WIN), WIN), x)


def test_flip_matrix_properties():
    u = flip_matrix(WIN)
    assert np.array_equal(u @ u, np.eye(4))
    assert np.abs(u @ WIN.epsilon @ u + WIN.epsilon).max() == 0.0


def test_flip_rejects_asymmetric_window():
    with pytest.raises(AsymmetricWindow):
        flip(np.eye(5), PolarizedWindow(2, 3))


def test_flip_group_homomorphism():
    f = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    g = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    assert np.abs(flip(f @ g, WIN) - flip(f, WIN) @ flip(g, WIN)).max() < 1e-12


# ------------------------------------------------- commutativity/associativity


def _is_permutation(p):
    return np.isin(p, (0.0, 1.0)).all() and np.array_equal(p @ p.T, np.eye(len(p)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_commutation_permutation_exact(n):
    a = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
    b = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
    p = commutation_permutation(n)
    assert _is_permutation(p)
    assert np.array_equal(blocksum(b, a), p @ blocksum(a, b) @ p.conj().T)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_association_permutation_exact(n):
    mats = [RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)) for _ in range(3)]
    f, g, h = mats

    def pad_high(x):  # stabilize with identity on the upper modes
        out = np.eye(2 * n, dtype=complex)
        out[:n, :n] = x
        return out

    lhs = blocksum(blocksum(f, g), pad_high(h))
    rhs = blocksum(pad_high(f), blocksum(g, h))
    p = association_permutation(n)
    assert _is_permutation(p)
    assert np.array_equal(lhs, p @ rhs @ p.conj().T)
    # the padding strand maps onto itself in order
    pad_rows, pad_cols = np.arange(2 * n + 1, 4 * n, 2), np.arange(2 * n, 4 * n, 2)
    assert np.array_equal(p[pad_rows, pad_cols], np.ones(n))


# ---------------------------------------------------------------- additivity


def test_ch_additivity_under_blocksum_odd():
    dom = make_domain("circle", 64)
    rng = np.random.default_rng(1)
    f = random_unitary_map(rng, dom, size=2)
    g = random_unitary_map(rng, dom, size=2)
    lhs = ch_odd(blocksum_map(f, g), 1)
    rhs = ch_odd(f, 1) + ch_odd(g, 1)
    assert (lhs - rhs).sup_norm() < 1e-12


def test_ch_additivity_under_blocksum_even():
    dom = make_domain("torus2", (12, 12))
    rng = np.random.default_rng(2)
    p = random_projection_map(rng, dom, WIN)
    q = random_projection_map(rng, dom, WIN)
    lhs = ch_even(blocksum_map(p, q), 1)
    rhs = ch_even(p, 1) + ch_even(q, 1)
    assert (lhs - rhs).sup_norm() < 1e-12


def test_cs_additivity_under_blocksum():
    dom = make_domain("circle", 64)
    rng = np.random.default_rng(3)
    f = random_unitary_map(rng, dom, size=2)
    g = random_unitary_map(rng, dom, size=2)
    hf = inversion_homotopy_odd(f, t_res=17)
    hg = inversion_homotopy_odd(g, t_res=17)
    lhs = cs_forms(blocksum_homotopy(hf, hg), 1)[1]
    rhs = cs_forms(hf, 1)[1] + cs_forms(hg, 1)[1]
    assert (lhs - rhs).sup_norm() < 1e-10


def test_cs2_additivity_under_blocksum_on_torus():
    # 12^2 does not resolve these maps, so both sides must use the exact jets
    dom = make_domain("torus2", (12, 12))
    rng = np.random.default_rng(3)
    f = random_unitary_map(rng, dom, size=2)
    g = random_unitary_map(rng, dom, size=2)
    hf = inversion_homotopy_odd(f, t_res=17)
    hg = inversion_homotopy_odd(g, t_res=17)
    lhs = cs_forms(blocksum_homotopy(hf, hg), 2)[2]
    rhs = cs_forms(hf, 2)[2] + cs_forms(hg, 2)[2]
    assert (lhs - rhs).sup_norm() < 1e-12


# ---------------------------------------------------------------- sign rules


def test_even_flip_negates_chern_form():
    dom = make_domain("torus2", (12, 12))
    p = random_projection_map(np.random.default_rng(4), dom, WIN)
    lhs = ch_even(flip_projection_map(p), 1)
    rhs = ch_even(p, 1)
    assert (lhs + rhs).sup_norm() < 1e-12


def test_odd_adjoint_negates_chern_form():
    dom = make_domain("circle", 128)
    f = random_unitary_map(np.random.default_rng(5), dom, size=2)
    lhs = ch_odd(f.adjoint(), 1)
    rhs = ch_odd(f, 1)
    assert (lhs + rhs).sup_norm() < 1e-12


def test_cs_adjoint_negates():
    dom = make_domain("circle", 64)
    f = random_unitary_map(np.random.default_rng(6), dom, size=2)
    h = inversion_homotopy_odd(f, t_res=17)
    lhs = cs_forms(h.adjoint(), 1)[1]
    rhs = cs_forms(h, 1)[1]
    assert (lhs + rhs).sup_norm() < 1e-10


def test_cs_flip_negates():
    dom = make_domain("circle", 64)
    x = random_unitary_map(np.random.default_rng(7), dom, size=4, window=WIN)
    h = inversion_homotopy_even(x, t_res=17)
    v, dv = h.slices, h.time_partials  # the frames and their time jets
    flipped = stacked_homotopy(
        h.spatial,
        h.times,
        h.quadrature,
        np.stack([
            flip(np.eye(h.slices.shape[-2]) - h.slice_map(i).values, h.window) for i in range(h.n_times)
        ]),
        flip(-(dv @ _adj(v) + v @ _adj(dv)), h.window),
        codomain="projection",
        window=h.window,
    )
    lhs = cs_forms(flipped, 1)[1]
    rhs = cs_forms(h, 1)[1]
    assert (lhs + rhs).sup_norm() < 1e-6


# ---------------------------------------------------------------- homotopies


def test_conjugation_constant_path_is_constant():
    f = loop_zn(n=1, res=64)
    h = conjugation_homotopy(f, lambda t: np.eye(1), lambda t: np.zeros((1, 1)))
    assert np.abs(h.slices - h.slices[0]).max() < 1e-14


def test_conjugation_rejects_bad_start():
    f = loop_zn(n=1, res=64)
    with pytest.raises(BadPathStart):
        conjugation_homotopy(f, lambda t: 2 * np.eye(1), lambda t: np.zeros((1, 1)))


def test_conjugation_cs0_vanishes_pointwise():
    dom = make_domain("circle", 64)
    f = random_unitary_map(np.random.default_rng(8), dom, size=3)
    k = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
    k = 0.4 * (k - k.conj().T)
    h = conjugation_homotopy(
        f,
        lambda t: expm(t * k),
        path_derivative=lambda t: k @ expm(t * k),
    )
    cs0 = cs_forms(h, 1)[1]
    assert cs0.sup_norm() < 1e-9


def test_shuffles_differ_by_conjugation_on_maps():
    # two blocksums with different shuffles are conjugate by a fixed unitary
    a = haar_unitary(np.random.default_rng(9), 3)
    b = haar_unitary(np.random.default_rng(10), 3)
    rho = standard_shuffle_matrix(3)
    perm = np.random.default_rng(11).permutation(6)
    pmat = np.zeros((6, 6), dtype=complex)
    pmat[np.arange(6), perm] = 1.0
    rho_alt = rho @ pmat
    lhs = blocksum_with_shuffle(rho_alt, a, b)
    rhs = blocksum_with_shuffle(rho, a, b)
    conj = pmat.conj().T
    assert np.abs(lhs - conj @ rhs @ pmat).max() < 1e-13


def test_inversion_odd_endpoints():
    dom = make_domain("circle", 64)
    f = random_unitary_map(np.random.default_rng(12), dom, size=2)
    h = inversion_homotopy_odd(f, t_res=17)
    start = blocksum(f.values, f.adjoint().values)
    assert np.abs(h.slices[0] - start).max() < 1e-12
    assert np.abs(h.slices[-1] - np.eye(4)).max() < 1e-12


def test_inversion_odd_cs0_vanishes():
    dom = make_domain("circle", 64)
    f = random_unitary_map(np.random.default_rng(13), dom, size=2)
    h = inversion_homotopy_odd(f, t_res=33)
    assert cs_forms(h, 1)[1].sup_norm() < 1e-9


def test_inversion_odd_cs2_cycle_residuals_on_torus():
    dom = make_domain("torus2", (12, 12))
    f = random_unitary_map(np.random.default_rng(14), dom, size=2)
    h = inversion_homotopy_odd(f, t_res=17)
    rep = cs_exact(h, k_max=2)
    assert rep["verdict"] is True
    assert all(r < 1e-6 for r in rep["residuals"].values())


def test_inversion_even_endpoint_is_basepoint():
    dom = make_domain("circle", 64)
    x = random_unitary_map(np.random.default_rng(15), dom, size=4, window=WIN)
    h = inversion_homotopy_even(x, t_res=17)
    big = doubled_window(WIN)
    assert np.abs(h.slice_map(h.n_times - 1).values - big.pi_plus).max() < 1e-12
    # t = 0 slice projects onto the blocksummed image
    summed = blocksum(x.values, flip(x.values, WIN))
    p0 = summed @ big.pi_plus @ np.swapaxes(summed, -1, -2).conj()
    assert np.abs(h.slice_map(0).values - p0).max() < 1e-12


def test_inversion_even_gauge_independence():
    dom = make_domain("circle", 64)
    rng = np.random.default_rng(16)
    x = random_unitary_map(rng, dom, size=4, window=WIN)
    vplus, vminus = haar_unitary(rng, 2), haar_unitary(rng, 2)
    gauge = np.zeros((4, 4), dtype=complex)
    gauge[:2, :2] = vminus  # negative modes sit first in window ordering
    gauge[2:, 2:] = vplus
    from chernlab.geomgrid import SampledMap

    y = SampledMap(dom, x.values @ gauge, codomain="unitary", window=WIN)
    hx = projection_homotopy(inversion_homotopy_even(x, t_res=9))
    hy = projection_homotopy(inversion_homotopy_even(y, t_res=9))
    assert np.abs(hx.slices - hy.slices).max() < 1e-10


def test_inversion_even_cs_residuals():
    dom = make_domain("circle", 64)
    x = random_unitary_map(np.random.default_rng(17), dom, size=4, window=WIN)
    h = inversion_homotopy_even(x, t_res=17)
    rep = cs_exact(h, k_max=1)
    assert rep["verdict"] is True


def test_grading_rotation_matches_displayed_blocks():
    # the conjugated operator at generic t reproduces the four-strand pattern
    rng = np.random.default_rng(18)
    x = haar_unitary(rng, 4)
    win = WIN
    big = doubled_window(win)
    summed = blocksum(x, flip(x, win))
    t = 0.7
    ct = grading_rotation(win, t)
    m = ct.conj().T @ summed @ ct
    c, s = np.cos(t), np.sin(t)
    nm = win.n_minus

    def blk(rows, cols):
        return x[np.ix_(rows, cols)]

    pos = list(range(nm, 2 * nm))
    neg = list(range(nm))[::-1]  # ascending i for e_{-i-1}
    xpp, xmp = blk(pos, pos), blk(pos, neg)
    xpm, xmm = blk(neg, pos), blk(neg, neg)
    idx_p1 = [big.index_of(2 * a) for a in range(nm)]
    idx_p2 = [big.index_of(2 * a + 1) for a in range(nm)]
    idx_m1 = [big.index_of(-2 * a - 2) for a in range(nm)]
    assert np.abs(m[np.ix_(idx_p1, idx_p2)] - s * xmp).max() < 1e-12
    assert np.abs(m[np.ix_(idx_p1, idx_m1)] - c * xmp).max() < 1e-12
    assert np.abs(m[np.ix_(idx_p2, idx_p2)] - xmm).max() < 1e-12
    assert np.abs(m[np.ix_(idx_p2, idx_p1)] - s * xpm).max() < 1e-12
    assert np.abs(m[np.ix_(idx_m1, idx_m1)] - xmm).max() < 1e-12


def test_eckmann_hilton_endpoints():
    dom = make_domain("circle", 64)
    rng = np.random.default_rng(19)
    a = random_unitary_map(rng, dom, size=2)
    b = random_unitary_map(rng, dom, size=2)
    h = eckmann_hilton_homotopy(a, b, t_res=9)
    assert np.abs(h.slices[0] - blocksum(a.values, b.values)).max() < 1e-12
    prod = a.values @ b.values
    eye = np.broadcast_to(np.eye(2), prod.shape)
    assert np.abs(h.slices[-1] - blocksum(prod, eye)).max() < 1e-12


def test_eckmann_hilton_identity_operand():
    dom = make_domain("circle", 64)
    a = random_unitary_map(np.random.default_rng(20), dom, size=2)
    b = SampledMap(dom, np.broadcast_to(np.eye(2), (64, 2, 2)), codomain="unitary")
    h = eckmann_hilton_homotopy(a, b, t_res=9)
    assert np.abs(h.slices - h.slices[0]).max() < 1e-12


def test_eckmann_hilton_needs_unitary_operands():
    # projection operands made a projection-tagged homotopy whose slices are
    # not projections: the first pair's has an idempotency defect of 0.21 at t = pi/4
    dom = make_domain("circle", 16)
    rng = np.random.default_rng(22)
    p = random_projection_map(rng, dom, WIN)
    q = random_projection_map(rng, dom, WIN)
    u = random_unitary_map(rng, dom, size=WIN.dim)
    for a, b in ((p, q), (u, p), (p, u), (u, SampledMap(dom, u.values))):
        with pytest.raises(ShapeMismatch, match="Eckmann-Hilton homotopy needs unitary maps"):
            eckmann_hilton_homotopy(a, b, t_res=9)


def test_eckmann_hilton_unitary_slices():
    dom = make_domain("circle", 64)
    rng = np.random.default_rng(21)
    a = random_unitary_map(rng, dom, size=2)
    b = random_unitary_map(rng, dom, size=2)
    h = eckmann_hilton_homotopy(a, b, t_res=9)
    v = h.slices
    eye = np.eye(4)
    assert np.abs(np.swapaxes(v, -1, -2).conj() @ v - eye).max() < 1e-12


def _phase(dom, p: int, axis: int) -> SampledMap:
    """``e^{i p k}`` of the coordinate ``k`` along ``axis``, with its exact partials."""
    v = np.exp(1j * p * np.meshgrid(*[ax.coords for ax in dom.axes], indexing="ij")[axis])[..., None, None]
    partials = tuple(1j * p * v if a == axis else np.zeros_like(v) for a in range(dom.dim))
    return SampledMap(dom, v, codomain="unitary", partials=partials)


@pytest.mark.parametrize("p, q", [(1, 1), (2, 3)])
def test_eckmann_hilton_cs2_meets_its_period(p, q):
    # the U(1) Polyakov-Wiegmann period: the rotation from e^{ipk_1} (+)
    # e^{iqk_2} to their product (+) 1 has int_{T^2} CS_2 = pq/2, with no
    # error in space, since the integrand is exact there: what is left is the t rule
    dom = make_domain("torus2", (8, 8))
    for t_res, bound in ((9, 1e-13), (DEFAULT_T_RES, 1e-14)):
        h = eckmann_hilton_homotopy(_phase(dom, p, 0), _phase(dom, q, 1), t_res=t_res)
        assert abs(integrate(cs_forms(h, 2)[2]) - p * q / 2) < bound


@pytest.mark.parametrize("n", [3, 4, 9, 13, 33, 65])
def test_lobatto_rule_is_exact_to_degree_2n_minus_3(n):
    t, w = lobatto_rule(n, 0.0, np.pi / 2.0)
    assert t[0] == 0.0 and t[-1] == np.pi / 2.0 and (np.diff(t) > 0.0).all()
    for d in range(2 * n - 2):
        exact = (np.pi / 2.0) ** (d + 1) / (d + 1)
        assert abs(w @ t**d - exact) <= 1e-13 * exact


def test_lobatto_rule_on_three_nodes_is_simpson():
    t, w = lobatto_rule(3, 0.0, 1.0)
    assert np.array_equal(t, [0.0, 0.5, 1.0])
    assert np.abs(w - [1 / 6, 2 / 3, 1 / 6]).max() < 1e-15


# ------------------------------------- closed forms against the dense products


def _leaves(seed: int, with_partials: bool, window: PolarizedWindow = WIN):
    dom = make_domain("torus2", (8, 8))
    rng = np.random.default_rng(seed)
    a, b = random_unitary_map(rng, dom, size=2), random_unitary_map(rng, dom, size=2)
    x = random_unitary_map(rng, dom, size=window.dim, window=window)
    if with_partials:
        return a, b, x
    return tuple(SampledMap(dom, f.values, codomain="unitary", window=f.window) for f in (a, b, x))


ROTATION_BUILDERS = {
    "inversion_odd": lambda a, b, x, t_res: (
        inversion_homotopy_odd(a, t_res),
        dense_rotation_homotopy(a, a.adjoint(), t_res),
    ),
    "eckmann_hilton": lambda a, b, x, t_res: (
        eckmann_hilton_homotopy(a, b, t_res),
        dense_rotation_homotopy(a, b, t_res),
    ),
    "inversion_even": lambda a, b, x, t_res: (  # read through the projections of its frames
        projection_homotopy(inversion_homotopy_even(x, t_res)),
        dense_inversion_even(x, t_res),
    ),
}


def _assert_matches_the_dense_products(name, t_res, with_partials, window=WIN):
    h, (slices, partials, spatial) = ROTATION_BUILDERS[name](*_leaves(40, with_partials, window), t_res)
    assert np.abs(h.slices - slices).max() < 1e-13
    assert np.abs(h.time_partials - partials).max() < 1e-13
    if with_partials:
        assert len(h.spatial_partials) == len(spatial) == 2
        for got, want in zip(h.spatial_partials, spatial):
            assert np.abs(got - want).max() < 1e-13
    else:
        assert h.spatial_partials is None and spatial == ()


@pytest.mark.parametrize("with_partials", [True, False], ids=["partials", "no_partials"])
@pytest.mark.parametrize("t_res", [3, 5, 17])
@pytest.mark.parametrize("name", ROTATION_BUILDERS)
def test_closed_form_matches_the_dense_products(name, t_res, with_partials):
    _assert_matches_the_dense_products(name, t_res, with_partials)


@pytest.mark.parametrize("with_partials", [True, False], ids=["partials", "no_partials"])
@pytest.mark.parametrize("half", [1, 3])
def test_even_inversion_matches_the_dense_products_on_other_windows(half, with_partials):
    _assert_matches_the_dense_products("inversion_even", 5, with_partials, PolarizedWindow(half, half))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([1, 2, 3]))
def test_even_inversion_c2_and_sc_blocks_vanish_exactly(seed, half):
    # with S = x (+) flip x and C_t = 1 + sJ + uJ^2, the c^2 block (B_5 - B_3)
    # and the sc block (-B_4) of C_t^T S C_t Pi_+ are exactly zero, on S and
    # on every d_i S, which is why inversion_homotopy_even holds three blocks
    win = PolarizedWindow(half, half)
    x = random_unitary_map(np.random.default_rng(seed), make_domain("torus2", (8, 8)), size=2 * half, window=win)
    gen = grading_rotation_generator(win).real
    square, plus = gen @ gen, np.s_[..., doubled_window(win).n_minus :]
    for v in (x.values, *(x.partials or ())):
        s = blocksum(v, flip(v, win))
        assert not (square @ s @ gen - gen @ s @ square)[plus].any()  # B_4
        assert not (square @ s @ square + gen @ s @ gen)[plus].any()  # B_5 - B_3


def test_every_rotation_builder_sums_its_blocks_through_one_helper(monkeypatch):
    # each hands the one constructor one store: a group of three blocks for
    # the slices and one more group per spatial axis of torus2
    calls = []

    def counting(domain, times, quadrature, blocks, *rest):
        calls.append(len(blocks))
        return Homotopy(domain, times, quadrature, blocks, *rest)

    monkeypatch.setattr("chernlab.kops.Homotopy", counting)
    a, b, x = _leaves(40, True)
    inversion_homotopy_odd(a, 5)
    eckmann_hilton_homotopy(a, b, 5)
    inversion_homotopy_even(x, 5)
    assert calls == [9, 9, 9]


def _haar_leaf(rng, size: int, window=None) -> SampledMap:
    values = np.stack([haar_unitary(rng, size) for _ in range(8)])
    return SampledMap(make_domain("circle", 8), values, codomain="unitary", window=window)


T_RES = st.integers(3, 33)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**16), T_RES)
def test_odd_rotation_slices_are_unitary_and_end_at_the_basepoint(seed, t_res):
    rng = np.random.default_rng(seed)
    a, b = _haar_leaf(rng, 2), _haar_leaf(rng, 2)
    eye = np.eye(4)
    product = blocksum(a.values @ b.values, np.broadcast_to(np.eye(2), a.values.shape))
    for h, end in ((inversion_homotopy_odd(a, t_res), eye), (eckmann_hilton_homotopy(a, b, t_res), product)):
        v = h.slices
        assert np.abs(np.swapaxes(v, -1, -2).conj() @ v - eye).max() < 1e-12
        assert np.abs(v[-1] - end).max() < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**16), T_RES)
def test_even_inversion_slices_are_projections_and_end_at_the_basepoint(seed, t_res):
    v = inversion_homotopy_even(_haar_leaf(np.random.default_rng(seed), 4, WIN), t_res).slices
    assert v.shape[-2:] == (8, 4) and np.abs(_adj(v) @ v - np.eye(4)).max() < 1e-12
    p = v @ _adj(v)
    assert np.abs(p - np.swapaxes(p, -1, -2).conj()).max() < 1e-12
    assert np.abs(p @ p - p).max() < 1e-12
    assert np.abs(p[-1] - doubled_window(WIN).pi_plus).max() < 1e-12


# ------------------------------------------------------- exact spatial jets


def _jet_gap(f):
    """Largest gap between the carried partials and grid derivatives of f."""
    plain = SampledMap(f.domain, f.values, codomain=f.codomain, window=f.window)
    return max(
        float(np.abs(a - b).max())
        for a, b in zip(differentiate(f), differentiate(plain))
    )


def test_differentiate_returns_exact_partials():
    f = random_unitary_map(np.random.default_rng(14), make_domain("torus2", (12, 12)))
    assert differentiate(f) is f.partials


def test_random_unitary_partials_match_resolved_grid_derivative():
    f = random_unitary_map(np.random.default_rng(14), make_domain("torus2", (64, 64)))
    assert _jet_gap(f) < 1e-10


@pytest.mark.parametrize(
    "make",
    [
        lambda: su2_chart(64),
        lambda: random_band_loop(np.random.default_rng(7), rank=3, res=256),
        lambda: random_band_loop(np.random.default_rng(8), rank=2, winding=[2, -1], trig_degree=3, res=256),
        lambda: frame_family_torus(np.random.default_rng(0), res=64, rows=3, cols=2),
        lambda: frame_family_torus(np.random.default_rng(1), res=96, rows=3, cols=1, trig_degree=2),
        lambda: qwz_band(1.5, res=96),
        lambda: random_projection_map(np.random.default_rng(31), make_domain("torus2", (80, 80)), WIN),
    ],
    ids=["su2", "band", "band_wound", "frame", "frame_degree2", "qwz", "projection"],
)
def test_builder_partials_match_resolved_grid_derivative(make):
    assert _jet_gap(make()) < 1e-10


def test_su2_chart_is_the_pauli_exponential():
    # exp(i a.sigma) = cos|a| + i sin|a| (a/|a|).sigma at every node
    res, a1, a2, a3 = 16, 0.4, 0.4, 0.3
    f = su2_chart(res, a1, a2, a3)
    t1, t2 = np.meshgrid(*[ax.coords for ax in f.domain.axes], indexing="ij")
    a = np.stack([a1 * np.sin(t1), a2 * np.sin(t2), a3 * np.cos(t1) * np.cos(t2)])
    r = np.linalg.norm(a, axis=0)
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    sigma = np.einsum("pxy,pij->xyij", a / r, pauli)  # |a| > 0 at every node
    expected = np.cos(r)[..., None, None] * np.eye(2) + 1j * np.sin(r)[..., None, None] * sigma
    assert np.abs(f.values - expected).max() < 1e-14


def test_band_loop_and_frame_family_match_per_node_expm():
    # the per-node loops the batched builders replaced, with the draws replayed
    rng = np.random.default_rng(11)
    gamma = random_band_loop(np.random.default_rng(11), rank=3, winding=[1, -2, 0], res=32)
    u0, u1 = haar_unitary(rng, 3), haar_unitary(rng, 3)
    coeffs = [0.2 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) for _ in range(2)]
    for i, th in enumerate(gamma.domain.axes[0].coords):
        ph = [c * np.exp(1j * q * th) for q, c in enumerate(coeffs, start=1)]
        h = sum(p + p.conj().T for p in ph)
        mono = np.diag(np.exp(1j * np.array([1, -2, 0]) * th))
        assert np.abs(gamma.values[i] - u0 @ expm(1j * h) @ mono @ u1).max() < 1e-13

    rng = np.random.default_rng(12)
    w = frame_family_torus(np.random.default_rng(12), res=16, rows=3, cols=2, trig_degree=2)
    gens = []
    for _ in range(4):
        g = 0.4 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        gens.append(g - g.conj().T)
    t1, t2 = (ax.coords for ax in w.domain.axes)
    for i, j in np.ndindex(16, 16):
        k = sum(np.sin(q * t1[i]) * gens[2 * q - 2] + np.cos(q * t2[j]) * gens[2 * q - 1] for q in (1, 2))
        assert np.abs(w.values[i, j] - expm(k)[:, :2]).max() < 1e-13


def test_random_unitary_partials_differ_from_aliased_grid_derivative():
    # the 12x12 map of the torus CS2 inversion test is not resolved, so its
    # grid derivative is far from the exact partials that test runs on
    f = random_unitary_map(np.random.default_rng(14), make_domain("torus2", (12, 12)))
    assert _jet_gap(f) > 0.5


def test_random_unitary_scalar_partials_are_chain_rule():
    # size 1: exp(iH) with scalar H, so d_i exp(iH) = i d_iH exp(iH); this is
    # the equal-eigenvalue (derivative) branch of the divided differences
    amp, degree = 0.3, 2
    dom = make_domain("torus2", (16, 12))
    f = random_unitary_map(np.random.default_rng(5), dom, size=1, trig_degree=degree, amp=amp)
    rng = np.random.default_rng(5)  # replay the builder's draws: (axis, q), then the base
    coeffs = {
        (axis, q): amp * complex(rng.standard_normal() + 1j * rng.standard_normal())
        for axis in range(2)
        for q in range(1, degree + 1)
    }
    coords = np.meshgrid(*[ax.coords for ax in dom.axes], indexing="ij")
    for axis in range(2):
        dh = sum(
            2.0 * np.real(1j * q * c * np.exp(1j * q * coords[axis]))
            for (ax, q), c in coeffs.items()
            if ax == axis
        )
        expected = 1j * dh * f.values[..., 0, 0]
        assert np.abs(f.partials[axis][..., 0, 0] - expected).max() < 1e-13


def test_adjoint_carries_partials():
    f = random_unitary_map(np.random.default_rng(3), make_domain("torus2", (64, 64)))
    g = f.adjoint()
    for d, dg in zip(f.partials, g.partials):
        assert np.array_equal(dg, np.swapaxes(d, -1, -2).conj())
    assert _jet_gap(g) < 1e-10


def test_blocksum_map_carries_partials():
    dom = make_domain("torus2", (64, 64))
    rng = np.random.default_rng(30)
    f = random_unitary_map(rng, dom, size=2)
    g = random_unitary_map(rng, dom, size=2)
    s = blocksum_map(f, g)
    for d, df, dg in zip(s.partials, f.partials, g.partials):
        assert np.array_equal(d, blocksum(df, dg))
    assert _jet_gap(s) < 1e-10
    plain = SampledMap(dom, g.values, codomain="unitary")
    assert blocksum_map(f, plain).partials is None


def test_flip_projection_map_carries_partials():
    p = random_projection_map(np.random.default_rng(31), make_domain("torus2", (80, 80)), WIN)
    assert _jet_gap(flip_projection_map(p)) < 1e-10


def test_rotation_homotopies_carry_exact_spatial_partials():
    # d_i of every slice against the grid derivative on a grid that resolves
    # the slices (the products a b need more nodes than a and b alone); the
    # conjugation homotopy carries its map's partials the same way
    dom = make_domain("torus2", (80, 80))
    rng = np.random.default_rng(32)
    a = random_unitary_map(rng, dom, size=2)
    b = random_unitary_map(rng, dom, size=2)
    x = random_unitary_map(rng, dom, size=4, window=WIN)
    k = 0.4 * haar_unitary(rng, 2)
    k = k - k.conj().T
    homotopies = (
        inversion_homotopy_odd(a, t_res=5),
        eckmann_hilton_homotopy(a, b, t_res=5),
        inversion_homotopy_even(x, t_res=5),
        conjugation_homotopy(a, lambda t: expm(t * k), lambda t: k @ expm(t * k), t_res=5),
    )
    for h in homotopies:
        assert len(h.spatial_partials) == 2
        for i in range(h.n_times):
            assert _jet_gap(h.slice_map(i)) < 1e-10


def _twisted_frames(h: Homotopy, seed: int = 3) -> Homotopy:
    """The frame homotopy ``A_t V_t`` for a constant-in-space unitary path
    ``A_t = exp(t X)``, with exact frame jets; its CS forms do not vanish
    pointwise, unlike those of the even inversion itself."""
    rng = np.random.default_rng(seed)
    n = h.slices.shape[-2]
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gen = 0.5 * (g - g.conj().T)
    a = np.stack([expm(t * gen) for t in h.times]).reshape(h.n_times, *[1] * h.spatial.dim, n, n)
    return stacked_homotopy(
        h.spatial,
        h.times,
        h.quadrature,
        a @ h.slices,
        codomain="projection",
        window=h.window,
        time_partials=gen @ a @ h.slices + a @ h.time_partials,
        spatial_partials=None if h.spatial_partials is None else tuple(a @ d for d in h.spatial_partials),
    )


EQUIVALENCE_VIEWS = {
    "whole": lambda h: h,
    "restrict": lambda h: h.restrict((0, 2)),
    "reversed": lambda h: h.reversed(),
}


@pytest.mark.parametrize("view", EQUIVALENCE_VIEWS)
@pytest.mark.parametrize("with_partials", [True, False], ids=["partials", "no_partials"])
def test_frame_homotopy_has_the_cs_forms_of_its_projections(with_partials, view):
    dom = make_domain("torus3", (8, 8, 8))
    x = random_unitary_map(np.random.default_rng(6), dom, size=4, window=WIN)
    if not with_partials:
        x = SampledMap(dom, x.values, codomain="unitary", window=WIN)
    inversion = inversion_homotopy_even(x, t_res=5)
    assert inversion.slices.shape[-2:] == (8, 4) and (inversion.spatial_partials is not None) == with_partials
    # the inversion's own forms are round-off with exact jets, so they are compared to 1e-14 absolute
    for h, twisted in ((_twisted_frames(inversion), True), (inversion, False)):
        held = cs_forms(EQUIVALENCE_VIEWS[view](h))
        square = cs_forms(EQUIVALENCE_VIEWS[view](projection_homotopy(h)))
        assert held.keys() == square.keys() == ({1} if view == "restrict" else {1, 2})
        for k, form in held.items():
            assert form.comps.keys() == square[k].comps.keys()
            scale = max(np.abs(c).max() for c in square[k].comps.values())
            if twisted:
                assert scale > 0.1
            for idx, comp in form.comps.items():
                assert np.abs(comp - square[k].comps[idx]).max() <= 1e-14 * (scale if twisted else 1.0)


def test_even_inversion_cs3_vanishes_with_exact_jets():
    # 8^3 does not resolve x: with grid jets the CS_3 cycle residual is 6.1e-3
    dom = make_domain("torus3", (8, 8, 8))
    x = random_unitary_map(np.random.default_rng(0), dom, size=4, window=WIN)
    rep = cs_exact(inversion_homotopy_even(x, t_res=9), k_max=2)
    assert rep["residuals"][3] < 1e-12
    plain = SampledMap(dom, x.values, codomain="unitary", window=WIN)
    assert cs_exact(inversion_homotopy_even(plain, t_res=9), k_max=2)["residuals"][3] > 1e-3


def test_homotopy_operations_carry_spatial_partials():
    dom = make_domain("torus2", (12, 12))
    h = inversion_homotopy_odd(random_unitary_map(np.random.default_rng(33), dom), t_res=5)
    rev = h.reversed()
    adj = h.adjoint()
    loop = Homotopy.concatenate(h, rev)
    for axis, d in enumerate(h.spatial_partials):
        assert np.array_equal(rev.spatial_partials[axis], d[::-1])
        assert np.array_equal(adj.spatial_partials[axis], np.swapaxes(d, -1, -2).conj())
        assert np.array_equal(loop.spatial_partials[axis], np.concatenate([d, d[::-1]]))
    assert np.array_equal(adj.slice_map(2).partials[1], adj.spatial_partials[1][2])
    plain = stacked_homotopy(h.spatial, h.times, h.quadrature, h.slices, h.time_partials, codomain="unitary")
    assert Homotopy.concatenate(h, plain.reversed()).spatial_partials is None


def test_homotopy_spatial_partials_of_wrong_count_rejected():
    dom = make_domain("torus2", (8, 8))
    slices = np.zeros((3, 8, 8, 2, 2))
    with pytest.raises(ShapeMismatch, match="3 spatial weight tables for 2 spatial axes"):
        stacked_homotopy(dom, *lobatto_rule(3, 0.0, 1.0), slices, np.zeros_like(slices), spatial_partials=(slices,) * 3)


def test_homotopy_spatial_partials_of_wrong_shape_rejected():
    dom = make_domain("torus2", (8, 8))
    slices = np.zeros((3, 8, 8, 2, 2))
    eye = np.eye(3)
    with pytest.raises(ShapeMismatch, match=r"\(3, 3\), got \[\(3, 3\), \(3, 3\), \(3, 3\), \(3, 2\)\]"):
        Homotopy(dom, *lobatto_rule(3, 0.0, 1.0), slices, eye, 0.0 * eye, spatial_weights=(eye, eye[:, :2]))


@pytest.mark.parametrize("exact_jets", [True, False])
def test_inversion_homotopy_odd_does_not_revalidate_its_map(exact_jets, monkeypatch):
    f = random_unitary_map(np.random.default_rng(0), make_domain("torus2", (8, 8)))
    if not exact_jets:
        f = SampledMap(f.domain, f.values, codomain="unitary")
    calls = []
    validate = SampledMap._validate_tag

    def counting(self, *args, **kwargs):
        calls.append(self)
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(SampledMap, "_validate_tag", counting)
    h = inversion_homotopy_odd(f, t_res=5)
    assert not calls
    assert (h.spatial_partials is not None) == exact_jets


def test_inversion_homotopy_takes_its_arrays_without_a_copy():
    # the homotopy keeps its three blocks, whatever its time nodes; a copy of
    # them on entry to Homotopy would double the traced peak
    f = random_unitary_map(np.random.default_rng(0), make_domain("torus3", (8, 8, 8)))
    f = SampledMap(f.domain, f.values, codomain="unitary")
    tracemalloc.start()
    try:
        h = inversion_homotopy_odd(f, t_res=17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.blocks.shape[0] == 3 and h.spatial_weights is None and not h.blocks.flags.writeable
    assert peak < 1.3 * h.blocks.nbytes


def test_inversion_homotopy_keeps_spatial_partials_without_a_copy():
    # the spatial blocks are written into the one store; copies of them on
    # entry to Homotopy would raise the peak to 1.9x
    f = random_unitary_map(np.random.default_rng(0), make_domain("torus3", (8, 8, 8)))
    tracemalloc.start()
    try:
        h = inversion_homotopy_odd(f, t_res=17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.blocks.shape[0] == 3 * (1 + h.spatial.dim) and not h.blocks.flags.writeable
    assert peak < 1.3 * h.blocks.nbytes


def test_the_adjoint_store_is_written_once():
    # the conjugate transpose is written straight into a C-contiguous store;
    # a strided conjugate made contiguous by a second copy doubles the peak
    f = random_unitary_map(np.random.default_rng(0), make_domain("torus3", (8, 8, 8)))
    h = inversion_homotopy_odd(f, t_res=5)
    tracemalloc.start()
    try:
        adj = h.adjoint()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert adj.blocks.flags.c_contiguous and not adj.blocks.flags.writeable
    assert adj.blocks.tobytes() == np.swapaxes(h.blocks, -1, -2).conj().tobytes()
    assert peak < 1.25 * h.blocks.nbytes


def test_even_inversion_homotopy_takes_its_arrays_without_a_copy():
    # the three blocks (0.79 MB) are formed in place from S Pi_+, S J Pi_+,
    # S J^2 Pi_+ and one scratch array, S freed first: 1.98 MB at the peak;
    # a copy on entry to Homotopy would add 0.79 MB
    x = random_unitary_map(np.random.default_rng(0), make_domain("torus3", (8, 8, 8)), size=4, window=WIN)
    x = SampledMap(x.domain, x.values, codomain="unitary", window=WIN)
    tracemalloc.start()
    try:
        h = inversion_homotopy_even(x, t_res=17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.blocks.shape[0] == 3 and h.blocks.nbytes == 786432 and not h.blocks.flags.writeable
    assert peak < 2.2e6


def test_cs_exact_of_an_odd_inversion_allocates_a_third_of_its_stacks():
    # the benchmark's leaf: its 17 slices and time jets at 16^3 take 35.7 MB
    # stacked, and neither the homotopy nor a pass of cs_exact forms them
    dom = make_domain("torus3", (16, 16, 16))
    f = random_unitary_map(np.random.default_rng(0), dom, size=2, amp=0.3, trig_degree=2)
    f = SampledMap(dom, f.values, codomain="unitary")
    tracemalloc.start()
    try:
        h = inversion_homotopy_odd(f, t_res=17)
        cs_exact(h, k_max=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stacked = 2 * h.n_times * np.prod(h.slice_shape) * 16
    assert 35.6e6 < stacked < 35.7e6
    assert peak < stacked / 3


def _formed(h: Homotopy) -> tuple:
    """The stacks of ``h``: slices, time jets and spatial jets."""
    return h.slices, h.time_partials, h.spatial_partials


def _slice_by_slice(h: Homotopy) -> tuple:
    """The slices, time jets and spatial jets of ``h`` evaluated one time node
    at a time from its blocks, as the passes of ``cs_forms`` read them."""
    out = np.empty(h.slice_shape, dtype=complex)

    def rows(table):
        return np.stack([h._read(table, i, out).copy() for i in range(h.n_times)])

    slices, jets, *spatial = (rows(table) for table in range(len(h._reads)))
    return slices, jets, spatial


BLOCK_BUILDERS = {
    "inversion_odd": lambda a, b, x, t_res: inversion_homotopy_odd(a, t_res),
    "eckmann_hilton": lambda a, b, x, t_res: eckmann_hilton_homotopy(a, b, t_res),
    "inversion_even": lambda a, b, x, t_res: inversion_homotopy_even(x, t_res),
}


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from(list(BLOCK_BUILDERS)), st.sampled_from([3, 5, 9]))
def test_derived_homotopies_are_the_operations_on_the_formed_stacks(seed, name, t_res):
    h = BLOCK_BUILDERS[name](*_leaves(seed, True), t_res)
    s, tp, sp = _formed(h)
    frames = h._frames

    def adj(x):
        return x if frames else _adj(x)

    expected = {
        "restrict": (h.restrict((1,)), s[:, 0], tp[:, 0], [sp[1][:, 0]]),
        "reversed": (h.reversed(), s[::-1], -tp[::-1], [d[::-1] for d in sp]),
        "adjoint": (h.adjoint(), adj(s), adj(tp), [adj(d) for d in sp]),
        "concatenate": (
            Homotopy.concatenate(h, h.reversed()),
            np.concatenate([s, s[::-1]]),
            np.concatenate([tp, -tp[::-1]]),
            [np.concatenate([d, d[::-1]]) for d in sp],
        ),
    }
    for derived, *stacks in expected.values():
        for got, want in zip(_slice_by_slice(derived), stacks):
            for x, y in zip(got if isinstance(got, list) else [got], want if isinstance(want, list) else [want]):
                assert x.shape == y.shape and np.abs(x - y).max() <= 1e-14


@pytest.mark.parametrize("name", list(BLOCK_BUILDERS))
def test_reversed_shares_the_blocks_of_its_operand(name):
    h = BLOCK_BUILDERS[name](*_leaves(40, True), 5)
    stacked = stacked_homotopy(h.spatial, h.times, h.quadrature, h.slices, h.time_partials, h.codomain, window=h.window)
    for x in (h, stacked):
        rev = x.reversed()
        assert rev.blocks is x.blocks
        assert all(np.array_equal(a, b[::-1]) for a, b in zip(rev.spatial_weights or (), x.spatial_weights or ()))
        assert np.array_equal(rev.time_weights, -x.time_weights[::-1])
        assert np.array_equal(rev.quadrature, x.quadrature[::-1])


@pytest.mark.parametrize("name", list(BLOCK_BUILDERS))
def test_a_rotation_homotopy_with_exact_partials_holds_one_store(name):
    h = BLOCK_BUILDERS[name](*_leaves(40, True), 5)
    group = 3
    n_blocks = group * (1 + h.spatial.dim)
    assert h.blocks.shape[0] == n_blocks and h.blocks.flags.c_contiguous and not h.blocks.flags.writeable
    tables = (h.weights, h.time_weights, *h.spatial_weights)
    assert all(w.shape == (h.n_times, n_blocks) and not w.flags.writeable for w in tables)
    # the jet along axis a reads group a + 1 by the weights of the slices, and no other block
    for a, w in enumerate(h.spatial_weights, 1):
        own = np.s_[group * a : group * (a + 1)]
        assert np.array_equal(w[:, own], h.weights[:, :group]) and not np.delete(w, own, axis=1).any()
    assert h.reversed().blocks is h.blocks


def _circle_map(codomain="unitary", size=2, res=8, window=None):
    """A constant map on a ``res``-node circle: the identity, or the
    projection ``pi_plus`` of ``window`` when it is projection-tagged."""
    m = window.pi_plus if window is not None else np.eye(size, dtype=complex)
    return SampledMap(make_domain("circle", res), np.broadcast_to(m, (res, *m.shape)), codomain=codomain, window=window)


def _unitary_on(window):
    """The identity on a 4 x 4 window, or with no window when it is None."""
    return SampledMap(make_domain("circle", 8), np.broadcast_to(np.eye(4), (8, 4, 4)), codomain="unitary", window=window)


@pytest.mark.parametrize(
    "windows",
    [(None, None), ((2, 2), None), (None, (2, 2)), ((2, 2), (2, 2)), ((1, 3), (1, 3)), ((2, 2), (1, 3))],
)
def test_eckmann_hilton_starts_on_the_window_of_the_blocksum(windows):
    a, b = (_unitary_on(None if w is None else PolarizedWindow(*w)) for w in windows)
    try:
        expected = blocksum_map(a, b).window
    except ShapeMismatch as e:
        with pytest.raises(ShapeMismatch, match=str(e)):
            eckmann_hilton_homotopy(a, b, t_res=3)
        return
    assert eckmann_hilton_homotopy(a, b, t_res=3).window == expected


CONTRACT_CHECKS = {
    "blocksum_map domains": (
        lambda: blocksum_map(_circle_map(), _circle_map(res=16)),
        ShapeMismatch,
        "blocksum of maps needs a shared domain",
    ),
    "blocksum_map tags": (
        lambda: blocksum_map(_circle_map(), _circle_map("generic")),
        ShapeMismatch,
        "blocksum of maps needs matching codomain tags",
    ),
    "blocksum_map windows": (
        lambda: blocksum_map(
            _circle_map("projection", window=PolarizedWindow(1, 1)), _circle_map("projection", window=PolarizedWindow(2, 0))
        ),
        ShapeMismatch,
        "blocksum of maps needs matching windows",
    ),
    "flip_matrix asymmetric": (lambda: flip_matrix(PolarizedWindow(1, 3)), AsymmetricWindow, "n_plus == n_minus"),
    "flip size": (lambda: flip(np.eye(3), WIN), ShapeMismatch, "operator does not match the window"),
    "flip_projection asymmetric": (
        lambda: flip_projection(np.eye(4), PolarizedWindow(1, 3)),
        AsymmetricWindow,
        "n_plus == n_minus",
    ),
    "flip_projection_map tag": (
        lambda: flip_projection_map(_unitary_on(WIN)),
        ShapeMismatch,
        "flip of a projection map needs a projection-tagged map, got 'unitary'",
    ),
    "flip_projection_map window": (
        lambda: flip_projection_map(_circle_map("projection")),
        AsymmetricWindow,
        "flip of a projection map needs a window",
    ),
    "odd inversion tag": (
        lambda: inversion_homotopy_odd(_circle_map("projection", window=WIN)),
        ShapeMismatch,
        "odd inversion homotopy needs a unitary map",
    ),
    "odd inversion even t_res": (
        lambda: inversion_homotopy_odd(_circle_map(), t_res=2),
        ShapeMismatch,
        "a Lobatto rule needs an integer n >= 3 nodes, got 2",
    ),
    "even inversion window": (
        lambda: inversion_homotopy_even(_circle_map("projection")),
        AsymmetricWindow,
        "even inversion needs a windowed map",
    ),
    "even inversion one node": (
        lambda: inversion_homotopy_even(_circle_map("projection", window=WIN), t_res=1),
        ShapeMismatch,
        "a Lobatto rule needs an integer n >= 3 nodes, got 1",
    ),
    "rotation times below three": (
        lambda: lobatto_rule(-1, 0.0, np.pi / 2.0),
        ShapeMismatch,
        "a Lobatto rule needs an integer n >= 3 nodes, got -1",
    ),
    "Eckmann-Hilton windows": (
        lambda: eckmann_hilton_homotopy(_unitary_on(PolarizedWindow(2, 2)), _unitary_on(PolarizedWindow(1, 3))),
        ShapeMismatch,
        "blocksum of maps needs matching windows",
    ),
    "conjugation path of a wrong shape": (
        lambda: conjugation_homotopy(_circle_map(), lambda t: np.eye(3), lambda t: np.zeros((2, 2))),
        ShapeMismatch,
        "conjugation needs a square map and 2 x 2 path values",
    ),
    "conjugation path derivative of a wrong shape": (
        lambda: conjugation_homotopy(_circle_map(), lambda t: np.eye(2), lambda t: np.zeros((3, 3))),
        ShapeMismatch,
        "conjugation needs a square map and 2 x 2 path values",
    ),
    "conjugation path derivative of a wrong shape at one time": (
        lambda: conjugation_homotopy(_circle_map(), lambda t: np.eye(2), lambda t: np.zeros((2, 2) if t < 0.5 else (2,))),
        ShapeMismatch,
        "conjugation needs a square map and 2 x 2 path values",
    ),
    "conjugation of a non-square map": (
        lambda: conjugation_homotopy(
            SampledMap(make_domain("circle", 8), np.ones((8, 2, 1), dtype=complex)), lambda t: np.eye(2), lambda t: np.zeros((2, 2))
        ),
        ShapeMismatch,
        "conjugation needs a square map",
    ),
    "Eckmann-Hilton sizes": (
        lambda: eckmann_hilton_homotopy(_circle_map(), _circle_map(size=3)),
        ShapeMismatch,
        "operands must share a grid and size",
    ),
    "conjugation path with a NaN start": (
        lambda: conjugation_homotopy(_circle_map(), lambda t: np.full((2, 2), np.nan), lambda t: np.zeros((2, 2))),
        BadPathStart,
        "conjugation path must start at the identity",
    ),
    "conjugation with no time nodes": (
        lambda: conjugation_homotopy(_circle_map(), lambda t: np.eye(2), lambda t: np.zeros((2, 2)), t_res=0),
        ShapeMismatch,
        "a Lobatto rule needs an integer n >= 3 nodes, got 0",
    ),
    "conjugation with a NaN time node": (
        lambda: conjugation_homotopy(_circle_map(), lambda t: np.eye(2), lambda t: np.zeros((2, 2)), t_res=np.nan),
        ShapeMismatch,
        "a Lobatto rule needs an integer n >= 3 nodes, got nan",
    ),
    "rotation times of a float count": (
        lambda: lobatto_rule(5.0, 0.0, np.pi / 2.0),
        ShapeMismatch,
        "a Lobatto rule needs an integer n >= 3 nodes, got 5.0",
    ),
    "rotation times of a fractional count": (
        lambda: lobatto_rule(5.5, 0.0, np.pi / 2.0),
        ShapeMismatch,
        "a Lobatto rule needs an integer n >= 3 nodes, got 5.5",
    ),
    "odd inversion float t_res": (
        lambda: inversion_homotopy_odd(_circle_map(), t_res=5.0),
        ShapeMismatch,
        "a Lobatto rule needs an integer n >= 3 nodes, got 5.0",
    ),
    "Lobatto rule of reversed ends": (
        lambda: lobatto_rule(3, 1.0, 0.0),
        ShapeMismatch,
        "a Lobatto rule needs finite ends a < b, got a = 1.0, b = 0.0",
    ),
    "Lobatto rule of a NaN end": (
        lambda: lobatto_rule(3, 0.0, np.nan),
        ShapeMismatch,
        "a Lobatto rule needs finite ends a < b, got a = 0.0, b = nan",
    ),
    "Lobatto rule of an infinite end": (
        lambda: lobatto_rule(3, -np.inf, 0.0),
        ShapeMismatch,
        "a Lobatto rule needs finite ends a < b, got a = -inf, b = 0.0",
    ),
    "Lobatto rule of equal ends": (
        lambda: lobatto_rule(3, 0.5, 0.5),
        ShapeMismatch,
        "a Lobatto rule needs finite ends a < b, got a = 0.5, b = 0.5",
    ),
}


@pytest.mark.parametrize("name", CONTRACT_CHECKS)
def test_contract_checks_raise_their_errors(name):
    call, error, fragment = CONTRACT_CHECKS[name]
    assert issubclass(error, ChernLabError)
    with pytest.raises(error, match=fragment):
        call()
