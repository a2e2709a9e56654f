"""The shuffle isomorphism, blocksum, flip, adjoint inversion, and the
canonical homotopies that drive the group laws.

The shuffle interleaves two copies of the mode basis: source mode ``m`` of
the first operand lands on mode ``2m``, of the second on ``2m + 1``.  On a
polarized window this same rule automatically respects the grading (mode sign
is preserved), so one index map serves both the plain and graded cases, and a
blocksum of window operators lives on the doubled window.  The flip is the
mode swap ``e_i -> e_{-i-1}``, which on a symmetric window is plain index
reversal.

The canonical rotation homotopies are closed forms: each slice, time jet
and spatial jet is a sum of t-independent blocks of the leaf with
trigonometric weights in ``t``.  A homotopy holds one store of blocks and
one weight table per jet (:class:`Homotopy`), never a stack over its time
nodes, and forms each slice or jet when it is read, by one product over
the blocks.  The odd ones hold three full-size blocks, with weights in
``cos 2t`` and ``sin 2t``, the even one three half-width blocks of its frames,
and each holds as many more per spatial axis when its leaf carries exact
partials.  Every builder writes its blocks into one preallocated store,
which the homotopy takes without a copy.

Every homotopy built here takes its time nodes and its ``t`` quadrature from
one rule, the ``t_res``-node Gauss-Lobatto rule of :func:`lobatto_rule`
(on ``[0, pi/2]`` for the rotations, on ``[0, 1]`` for a conjugation path),
and hands both to :class:`Homotopy`, which builds no rule of its own.  Both
ends are nodes, so the first and last slices are the ends of the homotopy,
and the rule is exact on polynomials of degree ``2 t_res - 3``: on the
Eckmann-Hilton homotopy of ``e^{ipk_1}`` and ``e^{iqk_2}`` the integral of
``CS_2`` meets its period ``pq/2`` within 2e-14 at 9 nodes and 1e-15 at 13.
"""

from __future__ import annotations

import numpy as np

from .chernforms import Homotopy
from .errors import AsymmetricWindow, BadPathStart, ShapeMismatch
from .geomgrid import SampledMap
from .stiefel import PolarizedWindow

__all__ = [
    "blocksum",
    "blocksum_map",
    "flip_matrix",
    "flip",
    "flip_projection",
    "flip_projection_map",
    "commutation_permutation",
    "association_permutation",
    "conjugation_homotopy",
    "inversion_homotopy_odd",
    "inversion_homotopy_even",
    "eckmann_hilton_homotopy",
    "lobatto_rule",
    "doubled_window",
]

DEFAULT_T_RES = 13


def doubled_window(window: PolarizedWindow) -> PolarizedWindow:
    return PolarizedWindow(2 * window.n_minus, 2 * window.n_plus)


def blocksum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Interleaved direct sum; the result is twice the size of each operand.

    For window operators the same interleave respects the grading and the
    result lives on the doubled window.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.shape[-1] != a.shape[-2]:
        raise ShapeMismatch(f"blocksum needs equal square operands, got {a.shape} and {b.shape}")
    n = a.shape[-1]
    out = np.zeros((*a.shape[:-2], 2 * n, 2 * n), dtype=complex)
    out[..., 0::2, 0::2] = a
    out[..., 1::2, 1::2] = b
    return out


def blocksum_map(f: SampledMap, g: SampledMap) -> SampledMap:
    """``f (+) g`` nodewise; exact partials carry over when both operands have them."""
    if f.domain != g.domain:
        raise ShapeMismatch("blocksum of maps needs a shared domain")
    if f.codomain != g.codomain:
        raise ShapeMismatch("blocksum of maps needs matching codomain tags")
    win = _summed_window(f, g)
    partials = None
    if f.partials is not None and g.partials is not None:
        partials = tuple(blocksum(a, b) for a, b in zip(f.partials, g.partials))
    return SampledMap(
        f.domain, blocksum(f.values, g.values), codomain=f.codomain, window=win, partials=partials
    )


def _summed_window(f: SampledMap, g: SampledMap) -> PolarizedWindow | None:
    """The window of ``f (+) g``: the doubled window when both operands
    carry the same one, None when either carries none, and ShapeMismatch
    when they differ."""
    if f.window is None or g.window is None:
        return None
    if f.window != g.window:
        raise ShapeMismatch("blocksum of maps needs matching windows")
    return doubled_window(f.window)


def flip_matrix(window: PolarizedWindow) -> np.ndarray:
    """The polarization swap ``e_i -> e_{-i-1}`` as a matrix (anti-diagonal)."""
    if window.n_minus != window.n_plus:
        raise AsymmetricWindow("flip needs n_plus == n_minus")
    return np.eye(window.dim, dtype=complex)[::-1]


def flip(x: np.ndarray, window: PolarizedWindow) -> np.ndarray:
    """Conjugation ``U x U`` by the polarization swap (pure index reversal)."""
    if window.n_minus != window.n_plus:
        raise AsymmetricWindow("flip needs n_plus == n_minus")
    x = np.asarray(x, dtype=complex)
    if x.shape[-1] != window.dim or x.shape[-2] != window.dim:
        raise ShapeMismatch("operator does not match the window")
    return x[..., ::-1, ::-1]


def flip_projection(p: np.ndarray, window: PolarizedWindow) -> np.ndarray:
    """Subspace-level flip ``W -> U(W_perp)``: complement, then swap."""
    eye = np.eye(window.dim, dtype=complex)
    return flip(eye - np.asarray(p, dtype=complex), window)


def flip_projection_map(p: SampledMap) -> SampledMap:
    """Nodewise :func:`flip_projection` of a projection-tagged map; exact
    partials carry over, negated and flipped."""
    if p.codomain != "projection":
        raise ShapeMismatch(f"flip of a projection map needs a projection-tagged map, got {p.codomain!r}")
    if p.window is None:
        raise AsymmetricWindow("flip of a projection map needs a window")
    partials = None
    if p.partials is not None:
        partials = tuple(flip(-d, p.window) for d in p.partials)
    return SampledMap(
        p.domain,
        flip_projection(p.values, p.window),
        codomain="projection",
        window=p.window,
        partials=partials,
    )


def _relabelling(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """The permutation ``P`` with ``after = P before P*`` for two sums of the
    same diagonal label operands: row ``r`` of ``P`` picks the slot of
    ``before`` that holds the label of slot ``r`` of ``after``."""
    old, new = (np.diagonal(x).real.astype(int) for x in (before, after))
    p = np.zeros((new.size, new.size), dtype=complex)
    p[np.arange(new.size), np.argsort(old)[new]] = 1.0
    return p


def commutation_permutation(dim_small: int) -> np.ndarray:
    """Permutation ``P`` with ``g (+) f = P (f (+) g) P*`` (swap the copies),
    read off :func:`blocksum` of label operands.

    On a window the same swap acts within each sign separately, so it also
    serves the graded case.
    """
    f, g = np.diag(np.arange(dim_small)), np.diag(np.arange(dim_small, 2 * dim_small))
    return _relabelling(blocksum(f, g), blocksum(g, f))


def association_permutation(dim_small: int) -> np.ndarray:
    """Permutation ``P`` with ``(f+g)+h = P (f+(g+h)) P*`` for the interleave,
    read off :func:`blocksum` of label operands.

    A triple sum fills three of the four interleaved strands; the fourth is
    the stabilization that pads ``h`` in ``(f+g)+h`` and ``f`` in
    ``f+(g+h)``, and ``P`` maps it onto itself in order.
    """
    f, g, h, pad = np.arange(4 * dim_small).reshape(4, dim_small)
    d = np.diag
    return _relabelling(
        blocksum(d(np.concatenate([f, pad])), blocksum(d(g), d(h))),
        blocksum(blocksum(d(f), d(g)), d(np.concatenate([h, pad]))),
    )


# ---------------------------------------------------------------------------
# canonical homotopies


def lobatto_rule(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``n``-node Gauss-Lobatto rule on ``[a, b]``: its nodes, both ends
    among them, and its weights, exact on polynomials of degree ``2n - 3``.

    The interior nodes are the zeros of ``P'_{n-1}``, the eigenvalues of
    its symmetric tridiagonal Jacobi matrix (Golub-Welsch, *Math. Comp.* 23,
    1969), and the weights on ``[-1, 1]`` are ``2 / (n (n-1) P_{n-1}(x)^2)``,
    with ``P_{n-1}`` taken by the three-term recurrence ``(k+1) P_{k+1} =
    (2k+1) x P_k - k P_{k-1}``.  On 3 nodes it is Simpson's rule.
    ShapeMismatch unless ``n`` is an integer of at least 3 and ``a < b``
    are finite.
    """
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise ShapeMismatch(f"a Lobatto rule needs an integer n >= 3 nodes, got {n}")
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ShapeMismatch(f"a Lobatto rule needs finite ends a < b, got a = {a}, b = {b}")
    k = np.arange(1, n - 2)
    off = np.sqrt(k * (k + 2) / ((2 * k + 1) * (2 * k + 3)))  # eigvalsh reads the lower triangle
    x = np.concatenate([[-1.0], np.linalg.eigvalsh(np.diag(off, -1)), [1.0]])
    before, legendre = np.ones_like(x), x  # P_0 and P_1
    for k in range(1, n - 1):
        before, legendre = legendre, ((2 * k + 1) * x * legendre - k * before) / (k + 1)
    w = (b - a) / (n * (n - 1) * legendre**2)  # the weights on [-1, 1] times (b - a)/2
    return a + 0.5 * (b - a) * (x + 1.0), w


def conjugation_homotopy(f: SampledMap, path, path_derivative, t_res: int = DEFAULT_T_RES) -> Homotopy:
    """Slices ``A_t f A_t*`` for a unitary path with ``A_0 = I``.

    ``path`` maps a time to the unitary ``A_t``, and ``path_derivative`` to
    its derivative, from which the time jets ``dA f A* + A f dA*`` are
    exact.  Each is called once at each of the ``t_res`` nodes of
    :func:`lobatto_rule` on ``[0, 1]``; ShapeMismatch unless ``f`` is
    square and both return ``n x n`` matrices for its ``n`` rows, and
    BadPathStart if ``A_0`` is not the identity within 1e-10.  Spatial jets
    ``A_t d_i f A_t*`` are exact when ``f`` carries exact partials.
    """
    times, quadrature = lobatto_rule(t_res, 0.0, 1.0)
    n = f.rows

    def stacked(fn) -> np.ndarray:
        """``fn`` at every time node, shaped to broadcast against the nodes of ``f``."""
        out = [np.asarray(fn(float(t)), dtype=complex) for t in times]
        if f.cols != n or any(x.shape != (n, n) for x in out):
            raise ShapeMismatch(f"conjugation needs a square map and {n} x {n} path values")
        return np.array(out).reshape(len(out), *(1,) * f.domain.dim, n, n)

    a, da = stacked(path), stacked(path_derivative)
    if not np.abs(a[0] - np.eye(n)).max() < 1e-10:
        raise BadPathStart("conjugation path must start at the identity")
    a_adj, da_adj = (np.swapaxes(x, -1, -2).conj() for x in (a, da))
    partials = f.partials or ()
    store = np.empty(((2 + len(partials)) * t_res, *f.values.shape), dtype=complex)
    slices, jets, *spatial = np.split(store, 2 + len(partials))
    af = a @ f.values
    np.matmul(af, a_adj, out=slices)
    np.add(da @ f.values @ a_adj, af @ da_adj, out=jets)
    for d, out in zip(partials, spatial):
        np.matmul(a @ d, a_adj, out=out)
    tables = [np.eye(t_res, len(store), j * t_res) for j in range(2 + len(partials))]
    return Homotopy(f.domain, times, quadrature, store, *tables[:2], f.codomain, f.window, tuple(tables[2:]) or None)


def _group_tables(groups: int, weights: np.ndarray, time_weights: np.ndarray) -> tuple:
    """The weight, time and spatial tables of a store of ``groups`` equal
    groups of blocks, those of the slices first and then one per spatial
    axis, each group read by the rows of ``weights`` (``time_weights`` for
    the time jet of the first): ``kron(e_j, weights)`` for group ``j``."""
    onehot = np.eye(groups)
    spatial = tuple(np.kron(e, weights) for e in onehot[1:]) or None
    return np.kron(onehot[0], weights), np.kron(onehot[0], time_weights), spatial


def _rotation_blocks(diag0, diag1, half_x: np.ndarray, half_y: np.ndarray, out: np.ndarray) -> None:
    """Write the blocks ``(diag0 + x/2) (+) (diag1 + y/2)``, ``(-x/2) (+)
    (y/2)`` and ``[[0, x/2], [y/2, 0]]`` in the interleave of
    :func:`blocksum` into the zeroed ``out``, from ``half_x = x/2`` and
    ``half_y = y/2``, which it overwrites.  Every block is copied in from
    them: a ufunc that writes into a strided view of the blocks buffers an
    operand of their size."""
    b0, b1, b2 = out
    b2[..., 0::2, 1::2] = half_x
    b1[..., 1::2, 1::2] = b2[..., 1::2, 0::2] = half_y
    b1[..., 0::2, 0::2] = np.negative(half_x, out=half_x)
    b0[..., 0::2, 0::2] = np.subtract(diag0, half_x, out=half_x)  # diag0 + x/2, exactly
    b0[..., 1::2, 1::2] = np.add(half_y, diag1, out=half_y)


def _rotation_homotopy(
    a: SampledMap, y: np.ndarray, y_partials: tuple[np.ndarray, ...] | None, t_res: int, window
) -> Homotopy:
    """Slices ``(a (+) 1) C_t (1 (+) b) C_t*`` over ``t in [0, pi/2]``, with
    ``C_t`` the rotation by ``t`` of the two copies into each other, from
    ``y = b - 1``, which it overwrites, and the partials of ``b``.

    With ``c = cos t``, ``s = sin t`` and ``x = ay = ab - a`` the slice is
    ``[[a + s^2 x, cs x], [cs y, 1 + c^2 y]]`` in the interleave of
    :func:`blocksum`.  Since ``s^2 = (1 - cos 2t)/2``, ``c^2 = (1 + cos 2t)/2``
    and ``cs = sin 2t / 2``, that is the three blocks of
    :func:`_rotation_blocks` with weights ``(1, cos 2t, sin 2t)``, and
    time-jet weights ``(0, -2 sin 2t, 2 cos 2t)``.  Along an axis, with
    ``d x = d a y + a d b``, the jet is ``[[d a + s^2 d x, cs d x],
    [cs d b, c^2 d b]]``, the same three blocks of ``d a``, ``0``, ``d x``
    and ``d b``; it is exact when ``a`` carries partials and ``y_partials``
    are given.  ``ab`` is not assumed to be 1.
    """
    times, quadrature = lobatto_rule(t_res, 0.0, np.pi / 2.0)
    c2, s2 = np.cos(2 * times), np.sin(2 * times)
    weights = np.stack([np.ones_like(times), c2, s2], axis=1)
    time_weights = np.stack([0.0 * times, -2.0 * s2, 2.0 * c2], axis=1)
    pairs = () if a.partials is None or y_partials is None else tuple(zip(a.partials, y_partials))
    n = a.cols
    store = np.zeros((3 * (1 + len(pairs)), *a.values.shape[:-2], 2 * n, 2 * n), dtype=complex)
    x = a.values @ y
    for k, (da, db) in enumerate(pairs, 1):
        _rotation_blocks(da, 0.0, 0.5 * (da @ y + a.values @ db), 0.5 * db, store[3 * k : 3 * k + 3])
    x *= 0.5
    y *= 0.5
    # a float identity would be cast through a buffer the size of y
    _rotation_blocks(a.values, np.eye(n, dtype=complex), x, y, store[:3])
    w, tw, sw = _group_tables(1 + len(pairs), weights, time_weights)
    return Homotopy(a.domain, times, quadrature, store, w, tw, "unitary", window, sw)


def inversion_homotopy_odd(f: SampledMap, t_res: int = DEFAULT_T_RES) -> Homotopy:
    """Rotation homotopy from ``f (+) f*`` to the identity.

    The slices of :func:`_rotation_homotopy` with ``a = f`` and ``b = f*``:
    ``[[f + s^2 (ff* - f), cs (ff* - f)], [cs (f* - 1), 1 + c^2 (f* - 1)]]``
    over ``t in [0, pi/2]``, with exact time jets.  Spatial jets are exact
    when ``f`` carries exact partials (as :func:`random_unitary_map` maps do).
    ``f*`` and its partials are taken from the arrays of ``f``, which its tag
    already validated.
    """
    if f.codomain != "unitary":
        raise ShapeMismatch("odd inversion homotopy needs a unitary map")
    def adjoint(v: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(np.swapaxes(v, -1, -2).conj())

    partials = None if f.partials is None else tuple(adjoint(d) for d in f.partials)
    y = adjoint(f.values)
    y -= np.eye(f.cols)
    return _rotation_homotopy(f, y, partials, t_res, _summed_window(f, f))


def eckmann_hilton_homotopy(a: SampledMap, b: SampledMap, t_res: int = DEFAULT_T_RES) -> Homotopy:
    """Rotation homotopy from ``a (+) b`` to ``ab (+) 1``.

    Same closed form as :func:`inversion_homotopy_odd` with ``b`` in place
    of ``f*``; spatial jets are exact when both operands carry partials.
    Both operands must be unitary-tagged, and the window is that of
    :func:`blocksum_map`.
    """
    if a.codomain != "unitary" or b.codomain != "unitary":
        raise ShapeMismatch(f"Eckmann-Hilton homotopy needs unitary maps, got {a.codomain} and {b.codomain}")
    if a.domain != b.domain or a.values.shape != b.values.shape:
        raise ShapeMismatch("operands must share a grid and size")
    return _rotation_homotopy(a, b.values - np.eye(b.cols), b.partials, t_res, _summed_window(a, b))


def inversion_homotopy_even(x: SampledMap, t_res: int = DEFAULT_T_RES) -> Homotopy:
    """Projection homotopy from ``(x (+) flip x)(H_plus)`` to the basepoint,
    held by its frames.

    With ``S = x (+) flip x`` on the doubled window, the slices are the
    frames ``V_t = C_t^T S C_t Pi_+`` of the projections ``pi_t = V_t V_t*``,
    which are never formed: the homotopy holds half the columns of ``pi_t``
    (see :class:`Homotopy`).  ``C_t = 1 + sJ + uJ^2``, with ``s = sin t``
    and ``u = 1 - cos t``, is the grading rotation: its real antisymmetric
    generator ``J`` (``J^3 = -J``) pairs the second positive strand with the
    first negative one through ``e_{2a+1} <-> e_{-2a-2}``, so ``C_{pi/2}`` is
    grading-preserving and the last slice is a frame of exactly the
    basepoint projection.  Since ``C_t^T = 1 - sJ + uJ^2``, ``V_t`` is the
    sum over the six t-independent half-width blocks ``B_0 = S Pi_+``,
    ``B_1 = (SJ - JS) Pi_+``, ``B_2 = (SJ^2 + J^2 S) Pi_+``, ``B_3 = -JSJ
    Pi_+``, ``B_4 = (J^2 SJ - JSJ^2) Pi_+`` and ``B_5 = J^2 SJ^2 Pi_+`` with
    the weights ``(1, s, u, s^2, su, u^2)``, that is, with ``c = cos t``,
    of ``B_0 + B_2 + B_3 + B_5``, ``B_1 + B_4``, ``-B_2 - 2 B_5``, ``B_5 -
    B_3`` and ``-B_4`` with the weights ``(1, s, c, c^2, sc)``.

    The last two vanish.  Write ``P_a = e_{2a+1}`` and ``Q_a = e_{-2a-2}``
    for the strands that ``J`` pairs and ``S_JJ`` for ``S`` on them.  The
    flip reverses the window, so ``S_{P_a P_b} = S_{Q_a Q_b}``, and the
    interleave of :func:`blocksum` puts ``P`` in the second operand and
    ``Q`` in the first, so ``S_{PQ} = S_{QP} = 0``: ``S_JJ`` commutes with
    ``J``.  Then ``B_4 = [J, S_JJ] Pi_+ = 0`` and ``B_5 - B_3 = (S_JJ + J
    S_JJ J) Pi_+ = 0``, since ``J^2 = -1`` on the paired strands, and the
    same holds for every ``d_i S``.  ``J`` has entries 0 and +-1, so both
    are exactly zero in floating point as well.  The homotopy holds the
    three blocks ``B_0 + B_2 + B_3 + B_5``, ``B_1`` and ``-B_2 - 2 B_5``
    with the weights ``(1, s, c)``, and its exact time jet is the same sum
    with ``(0, c, -s)``.  Spatial jets are exact when ``x`` carries exact
    partials: ``d_i V_t`` is the sum with ``S`` replaced by ``d_i S``.
    """
    if x.window is None:
        raise AsymmetricWindow("even inversion needs a windowed map")
    win, big = x.window, doubled_window(x.window)
    a = np.arange(win.n_plus)
    p, q = big.n_minus + 2 * a + 1, big.n_minus - 2 * a - 2  # modes 2a + 1 and -2a - 2
    gen = np.zeros((big.dim, big.dim))
    gen[q, p], gen[p, q] = 1.0, -1.0  # J e_p = e_q, J e_q = -e_p
    square = gen @ gen

    def blocks(leaf: np.ndarray, out: np.ndarray) -> None:
        """Write the three blocks of ``S = leaf (+) flip leaf`` into ``out``,
        from ``S Pi_+``, ``S J Pi_+`` and ``S J^2 Pi_+``; ``S`` is freed
        before the one scratch array is made."""
        summed = blocksum(leaf, flip(leaf, win))
        s0, s1, s2 = summed[..., big.n_minus :], summed @ gen[:, big.n_minus :], summed @ square[:, big.n_minus :]
        one, sin, cos = out
        np.subtract(s1, np.matmul(gen, s0, out=sin), out=sin)  # B_1
        np.matmul(square, s0, out=cos)  # B_2 - S J^2 Pi_+
        np.add(s0, s2, out=one)
        del summed, s0
        one += cos
        scratch = np.matmul(square, s2)  # B_5
        one += scratch
        cos += s2
        cos += scratch
        cos += scratch
        np.negative(cos, out=cos)  # -B_2 - 2 B_5
        one -= np.matmul(gen, s1, out=scratch)  # B_0 + B_2 + B_3 + B_5

    times, quadrature = lobatto_rule(t_res, 0.0, np.pi / 2.0)
    c, s = np.cos(times), np.sin(times)
    weights = np.stack([np.ones_like(times), s, c], axis=1)
    time_weights = np.stack([0.0 * times, c, -s], axis=1)
    leaves = (x.values, *(x.partials or ()))
    store = np.empty((3 * len(leaves), *x.domain.node_shape, big.dim, big.n_plus), dtype=complex)
    for leaf, out in zip(leaves, np.split(store, len(leaves))):
        blocks(leaf, out)
    w, tw, sw = _group_tables(len(leaves), weights, time_weights)
    return Homotopy(x.domain, times, quadrature, store, w, tw, "projection", big, sw)
