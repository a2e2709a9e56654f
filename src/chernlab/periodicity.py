"""Geometric periodicity maps at truncation.

Odd to even: a unitary loop ``gamma`` of band ``b`` sends ``H_+`` to the
subspace ``W = gamma H_+ = V (+) z^b H_+`` of the Grassmannian model, where
``V`` is the range of one finite ``2bn x 2bn`` block of Fourier
coefficients; the virtual dimension of ``W`` is minus the winding of
``det gamma``.  Square finite sections of ``T_gamma`` are never used for
index extraction (they are index-blind); the independent cross-check is the
winding number of the determinant by phase continuation.

Even to odd: a loop of projections is parallel-transported with the
horizontal-lift equation ``w' = pi' w`` (Kato's adiabatic transport), reading
``pi`` and ``pi'`` from one resample of the loop onto a uniform grid of twice
as many nodes as steps.  The equation is linear, so an RK4 step followed by
re-projection is a fixed matrix.  The step matrices are built and chained
on their real forms ``R`` (:func:`numkernel._real_form`), a ring
homomorphism whose stacked products numpy runs several times faster than
complex ones, in blocks of steps whose real step matrices fit a fixed byte
budget: a block builds its step matrices in one batched pass and chains
them by a pairwise prefix product from the last frame of the block before.
The endpoint fiber coordinate, unitarized through the polar factor, is the
holonomy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier
from .chernforms import _range_frame, ch_odd
from .errors import (
    BandwidthViolation,
    LostRank,
    NotALoop,
    ShapeMismatch,
    SingularInput,
)
from .geomgrid import SampledMap, integrate
from .numkernel import RANK_THRESHOLD_REL, _real_form, polar_unitary
from .stiefel import PolarizedWindow, SubspaceSpec, virtual_dimension

__all__ = [
    "HolonomyResult",
    "bott_subspace",
    "kato_transport",
    "bott_consistency",
    "det_winding",
]

DEFAULT_TRANSPORT_STEPS = 4096
TRANSPORT_BLOCK_BYTES = 1 << 17  # the real step matrices of one block of transport steps
BAND_TOL = 1e-10  # a Fourier block at or above this norm is inside the band


def bott_subspace(gamma: SampledMap, B: int | None = None) -> tuple[SubspaceSpec, dict]:
    """The subspace ``W = gamma H_+`` of the Grassmannian model, exactly.

    With ``b`` the measured band of the loop, the largest ``|m|`` with
    ``||c_m|| >= BAND_TOL`` and at least 1 (``b <= B``), ``W`` contains
    ``z^b H_+`` (``gamma*`` has band ``b`` too) and lies in ``z^{-b} H_+``, so
    ``W = V (+) z^b H_+`` with ``V`` the range of the ``2bn x 2bn`` block
    ``[c_{i-j}]``, output modes ``i in [-b, b)``, input modes ``j in [0, 2b)``
    (Pressley-Segal, *Loop Groups*, ch. 7).  The spec is one orthonormal
    basis on the window of modes ``[-2b, 2b)`` (of ``n``-blocks): ``V`` on the
    rows of modes ``[-b, b)`` next to identity columns on the rows of modes
    ``[b, 2b)``, which are ``z^b H_+`` inside the window; its virtual
    dimension is ``dim V - bn``.

    The block is the compression of the isometry ``gamma`` onto ``W``'s finite
    part, so its singular values are 1 or 0.  ``V`` keeps the left singular
    vectors whose singular value exceeds ``RANK_THRESHOLD_REL`` times
    ``||T_gamma|| = 1`` (an absolute threshold: the block of ``z^n``,
    ``n > 0``, is pure round-off).  The
    diagnostics hold the largest coefficient norm outside ``B``
    (``band_leak``), the circle ``resolution``, the ``band`` ``b`` and
    ``rank_gap``: the smallest kept and the largest dropped singular value.

    Raises
    ------
    BandwidthViolation
        If the declared band ``B`` is not an integer of at least 1, a
        Fourier coefficient beyond it has norm >= ``BAND_TOL``, or the
        circle resolution is below ``4B``.
    """
    if gamma.codomain != "unitary" or gamma.domain.kind != "circle":
        raise ShapeMismatch("bott_subspace needs a unitary-tagged circle loop")
    if B is not None and not (isinstance(B, (int, np.integer)) and B >= 1):
        raise BandwidthViolation(f"the declared band B must be an integer >= 1, got {B!r}")
    res = gamma.domain.axes[0].n
    coeffs = fourier.coefficients(gamma.values)
    m, norms = np.abs(fourier.orders(res)), np.linalg.norm(coeffs, axis=(1, 2))  # |m| and ||c_m||
    b = max(1, int(m[norms >= BAND_TOL].max(initial=0)))
    B = b if B is None else B
    if res < 4 * B:
        raise BandwidthViolation(f"circle resolution {res} < 4B = {4 * B}")
    leak = float(norms[m > B].max(initial=0.0))
    if leak >= BAND_TOL:
        raise BandwidthViolation(f"Fourier content outside declared band B = {B}: max norm {leak:.3e}")
    n = gamma.cols
    banded = np.where((m <= b)[:, None, None], coeffs, 0.0)
    # orders i - j lie in (-3b, b), and res >= 4b (b <= B, or b = 1 and res >= 8):
    # modulo res none aliases into the band
    diff = np.arange(-b, b)[:, None] - np.arange(2 * b)[None, :]
    block = banded[diff % res].transpose(0, 2, 1, 3).reshape(2 * b * n, 2 * b * n)
    try:
        u, s, _ = np.linalg.svd(block)
    except np.linalg.LinAlgError:
        # LAPACK's divide-and-conquer SVD fails to converge on a few of these
        # 1-or-0 spectra (3 of 4,000 rank-4 `random_band_loop` blocksums); the adjoint has the
        # same singular values, and its right singular vectors are ``u``
        _, s, vh = np.linalg.svd(block.conj().T)
        u = vh.conj().T
    keep = s > RANK_THRESHOLD_REL
    k = int(keep.sum())
    basis = np.zeros((4 * b * n, k + b * n), dtype=complex)
    basis[b * n : 3 * b * n, :k] = u[:, keep]
    basis[3 * b * n :, k:] = np.eye(b * n)
    spec = SubspaceSpec(PolarizedWindow(2 * b * n, 2 * b * n), basis)
    diagnostics = {
        "band_leak": leak,
        "resolution": res,
        "band": b,
        "rank_gap": [float(s[keep].min(initial=np.inf)), float(s[~keep].max(initial=0.0))],
    }
    return spec, diagnostics


def det_winding(gamma: SampledMap) -> int:
    """Winding number of ``det(gamma)``: the sum of the principal phases of
    the steps ``det gamma(theta_k+1) / det gamma(theta_k)`` around the loop,
    closed by the first determinant, is a whole number of turns up to
    round-off.  SingularInput when a determinant is not finite, or when
    its modulus is not above 1e-12 of its Hadamard bound ``prod_j |gamma
    e_j|``, the product of the column norms of its node, where its phase
    means nothing.  The ratio is 1 at every node of a unitary loop, at any
    scale, and round-off at every node of a singular one, whose largest
    determinant is round-off too."""
    if gamma.domain.kind != "circle":
        raise ShapeMismatch("winding needs a circle-sampled loop")
    if gamma.rows != gamma.cols:
        raise ShapeMismatch(f"winding needs square loop values, got {gamma.rows} x {gamma.cols}")
    dets = np.linalg.det(gamma.values)
    bad = np.flatnonzero(~np.isfinite(dets))
    if bad.size:
        raise SingularInput(f"winding needs a finite determinant at every node, not at node {bad[0]}")
    bound = np.prod(np.linalg.norm(gamma.values, axis=-2), axis=-1)  # |det| <= bound, node by node
    small = np.flatnonzero(np.abs(dets) <= 1e-12 * bound)
    if small.size:
        raise SingularInput(f"winding needs a nonzero determinant at every node, not at node {small[0]}")
    return int(np.round(np.angle(np.roll(dets, -1) / dets).sum() / (2.0 * np.pi)))


@dataclass(frozen=True)
class HolonomyResult:
    """Endpoint fiber coordinate of a horizontal lift, plus diagnostics."""

    Q: np.ndarray
    U: np.ndarray
    diagnostics: dict


def _prefix_products(m: np.ndarray) -> np.ndarray:
    """``c[i] = m[i] @ .. @ m[0]`` for a stack ``m`` of square matrices of
    any dtype (the transport passes real ``R`` stacks).

    Adjacent factors are multiplied in pairs, the half-length stack of pairs
    is reduced recursively (its prefixes are the odd slots of ``c``), and the
    even slots take one more factor each: O(len(m)) products in about
    ``2 log2 len(m)`` batched calls, in an order fixed by the length alone.
    """
    if len(m) == 1:
        return m.copy()
    pairs = m[1::2] @ m[: len(m) - 1 : 2]
    half = _prefix_products(pairs)
    del pairs
    c = np.empty_like(m)
    c[0] = m[0]
    c[1::2] = half
    np.matmul(m[2::2], half[: (len(m) - 1) // 2], out=c[2::2])
    return c


def _real_nodes(grid: np.ndarray, first: int, count: int, every: int) -> np.ndarray:
    """``R`` of the ``count`` nodes ``first, first + every, ..`` of the
    complex stage grid ``grid``; node ``len(grid)`` is node 0 (the circle closes)."""
    view = grid[first::every][:count]
    if len(view) < count:
        view = np.concatenate([view, grid[:1]])
    return _real_form(view)


def _transport_once(p: np.ndarray, dp: np.ndarray, w0: np.ndarray, stride: int) -> tuple[np.ndarray, dict]:
    """RK4 with re-projection over the stage grid ``p``, ``dp`` of ``2S`` nodes.

    Step ``i`` reads nodes ``2i``, ``2i + 1`` and ``2i + 2``, each times
    ``stride`` and wrapped at ``2S``, so the run takes ``S / stride`` steps.
    The lift equation is linear, so step ``i`` is the matrix
    ``M_i = pi_b G_i`` with ``G_i`` the RK4 propagator of ``pi'``, and the
    frames are ``w_i = M_{i-1} .. M_0 w0``.  All of it runs on real forms
    ``R`` (:func:`numkernel._real_form`), the frames as ``R(w_i)``, in
    blocks of consecutive steps whose real step matrices fit
    ``TRANSPORT_BLOCK_BYTES``; the partition is fixed by ``n`` and the step
    count.  A block takes ``R`` of its strided views of the complex grid,
    builds its step matrices at once, and its frames are its prefix
    products times its start frame, the last frame of the block before:
    ``R(M) R(w) = R(Mw)``.  Only the end frame and the tracking defect are
    read back as complex, as the even rows of the complex view.
    """
    s = 2 * stride
    steps = p.shape[0] // s
    h = 2.0 * np.pi / steps
    side = 2 * p.shape[-1]
    eye = np.eye(side)
    block = max(1, TRANSPORT_BLOCK_BYTES // (side * side * 8))
    w = _real_form(w0)
    track_defect = 0.0
    for i0 in range(0, steps, block):
        nb, first = min(block, steps - i0), s * i0
        nodes = _real_nodes(dp, first, 2 * nb + 1, stride)  # pi' at the block's stage nodes
        da, dm, db = nodes[:-1:2], nodes[1::2], nodes[2::2]
        # per step: x the stage argument, k the stage, g the sum k1 + 2 k2 + 2 k3 + k4
        x = da * (0.5 * h)
        x += eye  # 1 + h/2 k1, k1 = da
        k = dm @ x  # k2
        g = k * 2.0
        g += da
        np.multiply(k, 0.5 * h, out=x)
        x += eye
        np.matmul(dm, x, out=k)  # k3
        g += k
        g += k
        np.multiply(k, h, out=x)
        x += eye
        np.matmul(db, x, out=k)  # k4
        g += k
        del k, nodes, da, dm, db
        g *= h / 6.0
        g += eye  # G_i = 1 + h/6 (k1 + 2 k2 + 2 k3 + k4)
        np.matmul(_real_nodes(p, first + s, nb, s), g, out=x)  # M_i = pi_b G_i
        np.subtract(x, g, out=g)  # (pi_b - 1) G_i: what each RK4 step moves off the image
        c = _prefix_products(x)
        del x
        # every prefix times the same start frame: one product on the stacked rows of c, not one per step
        frames = np.concatenate([w[None], (c.reshape(-1, side) @ w).reshape(nb, *w.shape)])
        del c
        track_defect = max(track_defect, float(np.abs((g @ frames[:-1]).view(complex)[..., ::2, :]).max()))
        w = frames[-1]
    w_end = w.view(complex)[::2]
    sv = np.linalg.svd(w_end, compute_uv=False)
    if sv[-1] < 1e-6:
        raise LostRank(f"transported frame degenerated: min singular value {sv[-1]:.3e}")
    gram_drift = float(np.linalg.norm(w_end.conj().T @ w_end - np.eye(w_end.shape[1])))
    return w_end, {"tracking_defect": track_defect, "gram_drift": gram_drift}


def kato_transport(loop: SampledMap) -> HolonomyResult:
    """Holonomy of a projection loop by horizontal-lift integration.

    The lift solves ``w' = pi' w`` (equivalent to vanishing connection along
    the lift while ``pi w = w``) by ``DEFAULT_TRANSPORT_STEPS`` RK4 steps with
    per-step re-projection.  Every stage reads ``pi`` and ``pi'`` from one
    :func:`fourier.resample` of the loop onto twice as many nodes as steps,
    which also gives the exact derivative there; a loop of more samples
    than that grid raises BadResolution.  Since the equation is linear, step
    ``i`` is the matrix ``M_i = pi(t_{i+1}) G_i``, ``G_i`` the RK4 propagator;
    the ``M_i`` are built a block of steps at a time as their real ``2n x 2n``
    forms ``R(M_i)`` (:func:`_transport_once`) and their prefix products give
    every intermediate frame, so ``tracking_defect`` is the exact largest
    ``|pi G_i w_i - G_i w_i|`` over the steps.  The start frame ``w0`` is an
    orthonormal eigenbasis of the first sample's image, so the endpoint
    ``w(1) = w0 Q`` gives ``Q = w0* w(1)``, and ``U`` is the unitary polar
    factor of ``Q``.  The transport is repeated at half the steps on the same
    grid and flagged (``step_halving_ok``) if ``Q`` moves by 1e-6 or more.
    """
    if not isinstance(loop, SampledMap) or loop.domain.kind != "circle" or loop.codomain != "projection":
        raise NotALoop("need a projection-tagged circle map")
    steps = DEFAULT_TRANSPORT_STEPS
    p, dp = fourier.resample(loop.values, 2 * steps)
    w0 = _range_frame(loop.values[0])
    if w0.shape[1] == 0:
        raise LostRank("initial projection has rank zero")
    w_end, diag = _transport_once(p, dp, w0, 1)
    q = w0.conj().T @ w_end
    w_half, _ = _transport_once(p, dp, w0, 2)
    delta = float(np.abs(q - w0.conj().T @ w_half).max())
    diag.update(steps=steps, step_halving_delta=delta, step_halving_ok=bool(delta < 1e-6))
    return HolonomyResult(Q=q, U=polar_unitary(q), diagnostics=diag)


def bott_consistency(gamma: SampledMap, M: int | None = None, B: int | None = None) -> dict:
    """Three routes to the loop's integer class, and whether they agree
    (route (a) within 1e-6 of that integer, with an imaginary part below 1e-6).

    (a) minus the integral of the degree-1 Chern component, (b) the winding
    of the determinant by phase continuation, (c) minus the virtual dimension
    of ``W = gamma H_+`` from :func:`bott_subspace`, with ``B`` the declared
    band (by default the measured band ``b``).  ``M`` sizes no array: it is
    the half-width of a mode window the caller declares, and a window with
    ``M <= 2b`` cannot hold ``W``'s finite part and raises
    ``BandwidthViolation``, as does an ``M`` that is not an integer.
    """
    if M is not None and not isinstance(M, (int, np.integer)):
        raise BandwidthViolation(f"the window half-width M must be an integer, got {M!r}")
    ch1 = integrate(ch_odd(gamma, 1))
    route_a = -ch1.real
    route_b = det_winding(gamma)
    spec, diagnostics = bott_subspace(gamma, B)
    b = diagnostics["band"]
    if M is not None and M <= 2 * b:
        raise BandwidthViolation(f"window M = {M} too small for the measured band: M <= 2b = {2 * b}")
    route_c = -virtual_dimension(spec)
    nearest = int(np.round(route_a))
    verdict = (
        abs(route_a - nearest) < 1e-6
        and route_b == nearest
        and route_c == nearest
        and abs(ch1.imag) < 1e-6
    )
    return {
        "ch1_integral": [ch1.real, ch1.imag],
        "ch1_route": route_a,
        "det_winding": route_b,
        "virtual_dimension": int(-route_c),
        "verdict": bool(verdict),
        "diagnostics": diagnostics,
    }
