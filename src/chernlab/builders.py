"""Named analytic map families used by the CLI and the verification suites.

Reproducible fixtures instead of an expression parser: every builder is a
pure function of its parameters (plus, for the randomized ones, a random
generator), so runs are reproducible from the report alone.

The exponential families (``su2_chart``, ``random_band_loop``,
``random_unitary_map`` and ``frame_family_torus``) stack their hermitian
generator ``H`` and its partials over all nodes and make one
``_exp_i_hermitian`` call, so they carry exact spatial partials.
``qwz_band`` differentiates its closed form and ``random_projection_map``
carries the partials of its unitary by the product rule.  The closed forms
``loop_zn``, ``trig_loop`` and ``bloch_circle`` carry none: their jets are
taken on the grid.
"""

from __future__ import annotations

import numpy as np

from .errors import NotALoop, ShapeMismatch, SingularInput
from .geomgrid import DomainGrid, SampledMap, make_domain
from .numkernel import haar_unitary
from .stiefel import PolarizedWindow

__all__ = [
    "loop_zn",
    "trig_loop",
    "bloch_circle",
    "qwz_band",
    "su2_chart",
    "random_band_loop",
    "random_unitary_map",
    "random_projection_map",
    "frame_family_torus",
]

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _trig_hermitian(coords, coeffs: dict, base: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """``H = base + sum (c e^{i q x_axis} + h.c.)`` over ``coeffs[(axis, q)] = c``,
    stacked over the nodes of ``coords`` (one coordinate array per axis), and
    its partial ``d_axis H`` on every axis."""
    h = np.zeros((*coords[0].shape, *base.shape), dtype=complex)
    h[...] = base
    dh = [np.zeros_like(h) for _ in coords]
    for (axis, q), cq in coeffs.items():
        phase = np.exp(1j * q * coords[axis])[..., None, None]
        h = h + phase * cq + np.conj(phase) * cq.conj().T
        dh[axis] = dh[axis] + 1j * q * (phase * cq - np.conj(phase) * cq.conj().T)
    return h, dh


def _exp_i_hermitian(h: np.ndarray, dh) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """``exp(iH)`` and its exact derivatives along each ``dH`` in ``dh``.

    One batched ``eigh`` ``H = V diag(lam) V*`` gives the exponential and,
    through the Daleckii-Krein formula (Higham, *Functions of Matrices*, 2008,
    ch. 3), each derivative ``V (F o (V* dH V)) V*``.  The divided differences
    ``F_jk = (e^{i lam_j} - e^{i lam_k}) / (lam_j - lam_k)`` are evaluated as
    ``i e^{i(lam_j + lam_k)/2} sinc((lam_j - lam_k)/2)``, which is also right
    for equal eigenvalues, where it is the derivative ``i e^{i lam}``.  This
    is the package's one matrix exponential.

    All partials come from 4 stacked products, whatever their number: a
    shared left factor takes the blocks side by side, ``V* [dH_1 | dH_2 |
    ..]`` and ``V [..]``, a shared right factor takes them stacked by rows,
    ``[..] V`` and ``[..] V*``.  On the small leaves of the sampled maps one
    such product costs little more than one of its blocks.
    """
    lam, v = np.linalg.eigh(h)
    vh = np.swapaxes(v, -1, -2).conj()
    values = (v * np.exp(1j * lam)[..., None, :]) @ vh
    *lead, n, _ = h.shape
    m = len(dh)
    if not m:
        return values, ()
    mean = 0.5 * (lam[..., :, None] + lam[..., None, :])
    gap = 0.5 * (lam[..., :, None] - lam[..., None, :])
    divided = 1j * np.exp(1j * mean) * np.sinc(gap / np.pi)

    def rows(x):  # [x_1 | .. | x_m] -> [x_1; ..; x_m]
        return x.reshape(*lead, n, m, n).swapaxes(-3, -2).reshape(*lead, m * n, n)

    def cols(x):  # [x_1; ..; x_m] -> [x_1 | .. | x_m]
        return x.reshape(*lead, m, n, n).swapaxes(-3, -2).reshape(*lead, n, m * n)

    x = rows(vh @ np.concatenate(dh, axis=-1)) @ v  # V* dH_a V
    x = (divided[..., None, :, :] * x.reshape(*lead, m, n, n)).reshape(*lead, m * n, n)
    x = rows(v @ cols(x)) @ vh
    return values, tuple(np.ascontiguousarray(np.moveaxis(x.reshape(*lead, m, n, n), -3, 0)))


def loop_zn(n: int = 1, res: int = 256, pad: int = 1) -> SampledMap:
    """The monomial loop ``theta -> diag(e^{i n theta}, 1, ..)`` on U(pad);
    ShapeMismatch unless ``n`` is an integer (any other jumps at ``2 pi``)
    and ``pad`` an integer of at least 1."""
    if not (isinstance(n, (int, np.integer)) and isinstance(pad, (int, np.integer)) and pad >= 1):
        raise ShapeMismatch(f"loop_zn needs an integer n and an integer pad >= 1, got n = {n!r}, pad = {pad!r}")
    dom = make_domain("circle", res)
    theta = dom.axes[0].coords
    values = np.tile(np.eye(pad, dtype=complex), (res, 1, 1))
    values[:, 0, 0] = np.exp(1j * n * theta)
    return SampledMap(dom, values, codomain="unitary")


def trig_loop(res: int = 256, winding: int = 1, amp: float = 0.3) -> SampledMap:
    """Smooth non-polynomial loop ``exp(i w theta + i amp sin theta)``.

    The Fourier coefficients decay like Bessel functions of ``amp``, so a
    declared bandwidth of a couple dozen modes holds to machine precision.
    NotALoop unless ``winding`` is an integer: any other jumps at ``2 pi``.
    """
    if not isinstance(winding, (int, np.integer)):
        raise NotALoop(f"trig_loop needs an integer winding, got {winding!r}")
    dom = make_domain("circle", res)
    theta = dom.axes[0].coords
    values = np.exp(1j * (winding * theta + amp * np.sin(theta)))[:, None, None]
    return SampledMap(dom, values, codomain="unitary")


def bloch_circle(colatitude: float = np.pi / 2.0, res: int = 256) -> SampledMap:
    """Rank-1 projection loop along a colatitude circle of the 2-sphere."""
    dom = make_domain("circle", res)
    phi = dom.axes[0].coords
    c, s = np.cos(colatitude / 2.0), np.sin(colatitude / 2.0)
    v = np.stack([np.full(res, c, dtype=complex), s * np.exp(1j * phi)], axis=-1)
    proj = v[:, :, None] @ v[:, None, :].conj()
    return SampledMap(dom, proj, codomain="projection")


def qwz_band(m: float = 1.0, res: int = 32) -> SampledMap:
    """Lower band of the Qi-Wu-Zhang Chern insulator on the Brillouin torus.

    ``P(k) = (1 - d^ . sigma) / 2`` with ``d = (sin k1, sin k2, m + cos k1 +
    cos k2)`` (Qi, Wu and Zhang, PRB 74, 085308, 2006), with exact partials
    ``d_i P = -(d_i d^) . sigma / 2``.  The band is the tautological line
    pulled back by ``-d^``, so ``int ch_1 = deg d^``: -1 for ``0 < m < 2``,
    +1 for ``-2 < m < 0`` and 0 for ``|m| > 2``.  SingularInput at
    ``m in {-2, 0, 2}``, where the gap closes.
    """
    if m in (-2.0, 0.0, 2.0):
        raise SingularInput(f"the QWZ gap closes at m = {m}")
    dom = make_domain("torus2", (res, res))
    k1, k2 = np.meshgrid(*[ax.coords for ax in dom.axes], indexing="ij")
    zero = np.zeros_like(k1)
    d = np.stack([np.sin(k1), np.sin(k2), m + np.cos(k1) + np.cos(k2)], axis=-1)
    dd = (
        np.stack([np.cos(k1), zero, -np.sin(k1)], axis=-1),
        np.stack([zero, np.cos(k2), -np.sin(k2)], axis=-1),
    )
    norm = np.linalg.norm(d, axis=-1, keepdims=True)
    unit = d / norm

    def sigma(v):
        return np.einsum("...p,pij->...ij", v, np.array(_PAULI))

    values = 0.5 * (np.eye(2) - sigma(unit))
    partials = tuple(
        -0.5 * sigma((di - unit * np.sum(unit * di, axis=-1, keepdims=True)) / norm) for di in dd
    )
    return SampledMap(dom, values, codomain="projection", partials=partials)


def su2_chart(res: int = 24, a1: float = 0.4, a2: float = 0.4, a3: float = 0.3) -> SampledMap:
    """Smooth U(2)-valued torus map built from a Pauli-vector exponential,
    with exact spatial partials."""
    dom = make_domain("torus2", (res, res))
    t1 = dom.axes[0].coords[:, None]
    t2 = dom.axes[1].coords[None, :]

    def pauli(x, y, z):
        return sum(np.multiply.outer(c, s) for c, s in zip((x, y, z), _PAULI))

    h = pauli(a1 * np.sin(t1), a2 * np.sin(t2), a3 * np.cos(t1) * np.cos(t2))
    dh = (
        pauli(a1 * np.cos(t1), 0.0, -a3 * np.sin(t1) * np.cos(t2)),
        pauli(0.0, a2 * np.cos(t2), -a3 * np.cos(t1) * np.sin(t2)),
    )
    values, partials = _exp_i_hermitian(h, dh)
    return SampledMap(dom, values, codomain="unitary", partials=partials)


def random_band_loop(
    rng: np.random.Generator,
    rank: int = 1,
    winding=None,
    trig_degree: int = 2,
    amp: float = 0.2,
    res: int = 256,
) -> SampledMap:
    """Seeded smooth unitary loop with controlled winding and band decay.

    ``gamma = U0 exp(i H(theta)) diag(e^{i n_j theta}) U1`` with ``H`` a
    hermitian trigonometric polynomial; the determinant winds by
    ``sum(n_j)`` and the Fourier band decays superexponentially in ``amp``.
    The loop carries its exact derivative.  ``winding`` is one integer
    ``n_1`` (the other strands do not wind) or the ``rank`` integers
    ``n_j``: ShapeMismatch for another count, and NotALoop for a
    non-integer, whose strand jumps at ``2 pi``.
    """
    dom = make_domain("circle", res)
    theta = dom.axes[0].coords
    if winding is None:
        winding = [int(rng.integers(-2, 3)) for _ in range(rank)]
    elif isinstance(winding, (int, np.integer)):
        winding = [winding] + [0] * (rank - 1)
    n = np.asarray(winding)
    if n.dtype.kind not in "iu":
        raise NotALoop(f"random_band_loop needs integer windings, got {winding!r}")
    if n.shape != (rank,):
        raise ShapeMismatch(f"random_band_loop needs one winding or {rank}, got {winding!r}")
    u0 = haar_unitary(rng, rank)
    u1 = haar_unitary(rng, rank)
    coeffs = {
        (0, q): amp * (rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank)))
        for q in range(1, trig_degree + 1)
    }
    h, dh = _trig_hermitian([theta], coeffs, np.zeros((rank, rank), dtype=complex))
    e, (de,) = _exp_i_hermitian(h, dh)
    mono = np.exp(1j * np.multiply.outer(theta, n))[:, None, :]  # diag(e^{i n theta}), as columns
    values = u0 @ (e * mono) @ u1
    partial = u0 @ ((de + 1j * n * e) * mono) @ u1
    return SampledMap(dom, values, codomain="unitary", partials=(partial,))


def random_unitary_map(
    rng: np.random.Generator,
    domain: DomainGrid,
    size: int = 2,
    trig_degree: int = 2,
    amp: float = 0.3,
    window: PolarizedWindow | None = None,
) -> SampledMap:
    """Seeded smooth unitary map ``exp(i H(x))`` on any sample domain.

    ``H`` is a hermitian trigonometric polynomial of degree ``trig_degree``
    in each coordinate.  The map carries exact spatial partials
    ``d_i exp(iH)``, so its jets do not depend on how well the grid resolves
    it.  ShapeMismatch unless ``size`` is an integer of at least 1 and
    ``trig_degree`` a non-negative integer.
    """
    if not all(isinstance(k, (int, np.integer)) and k >= low for k, low in ((size, 1), (trig_degree, 0))):
        got = f"size = {size!r}, trig_degree = {trig_degree!r}"
        raise ShapeMismatch(f"random_unitary_map needs an integer size >= 1 and trig_degree >= 0, got {got}")
    coeffs = {}
    for axis in range(domain.dim):
        for q in range(1, trig_degree + 1):
            coeffs[(axis, q)] = amp * (
                rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            )
    base = amp * (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
    base = base + base.conj().T

    coords = np.meshgrid(*[ax.coords for ax in domain.axes], indexing="ij")
    h, dh = _trig_hermitian(coords, coeffs, base)
    values, partials = _exp_i_hermitian(h, dh)
    return SampledMap(domain, values, codomain="unitary", window=window, partials=partials)


def random_projection_map(
    rng: np.random.Generator,
    domain: DomainGrid,
    window: PolarizedWindow,
    trig_degree: int = 2,
    amp: float = 0.3,
) -> SampledMap:
    """Seeded projection family ``X pi_+ X*`` from a random unitary family,
    with exact partials ``a + a*``, ``a = d_i X pi_+ X*``."""
    x = random_unitary_map(rng, domain, size=window.dim, trig_degree=trig_degree, amp=amp)
    pi = window.pi_plus
    xh = np.swapaxes(x.values, -1, -2).conj()
    values = x.values @ pi @ xh
    partials = tuple(a + np.swapaxes(a, -1, -2).conj() for a in (d @ pi @ xh for d in x.partials))
    return SampledMap(domain, values, codomain="projection", window=window, partials=partials)


def frame_family_torus(
    rng: np.random.Generator,
    res: int = 24,
    rows: int = 2,
    cols: int = 1,
    amp: float = 0.4,
    trig_degree: int = 1,
) -> SampledMap:
    """Smooth frame family over the 2-torus: ``exp(K(x)) w0`` with random
    trigonometric generator ``K`` and ``w0`` the first ``cols`` unit vectors.

    ``K`` is skew-hermitian, so ``exp(K) = exp(iH)`` with ``H = -iK`` is
    unitary and every value an orthonormal frame; the family carries its
    exact partials ``d exp(K) w0``.
    """
    dom = make_domain("torus2", (res, res))
    t1 = dom.axes[0].coords[:, None]
    t2 = dom.axes[1].coords[None, :]
    gens = []
    for _ in range(2 * trig_degree):
        g = amp * (rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows)))
        gens.append(g - g.conj().T)
    w0 = np.zeros((rows, cols), dtype=complex)
    w0[:cols, :cols] = np.eye(cols)
    k = np.zeros((res, res, rows, rows), dtype=complex)
    dk = [np.zeros_like(k), np.zeros_like(k)]
    for q in range(1, trig_degree + 1):
        g1, g2 = gens[2 * q - 2], gens[2 * q - 1]
        k += np.multiply.outer(np.sin(q * t1), g1)
        k += np.multiply.outer(np.cos(q * t2), g2)
        dk[0] += np.multiply.outer(q * np.cos(q * t1), g1)
        dk[1] -= np.multiply.outer(q * np.sin(q * t2), g2)
    e, de = _exp_i_hermitian(-1j * k, [-1j * d for d in dk])
    return SampledMap(dom, e @ w0, codomain="frame", partials=tuple(d @ w0 for d in de))
