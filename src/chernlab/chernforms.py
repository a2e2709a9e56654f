"""Pullbacks of the universal Chern character forms and their transgressions.

The odd family is built from traces of odd powers of the logarithmic
derivative ``omega = f^{-1} df`` of a unitary map; the even family from traces
of powers of the curvature-type 2-form ``Omega(u, v) = p [d_u p, d_v p]`` of a
projection map.  A homotopy contributes the fiber-``t`` integral of the
contraction of its pulled-back form, which lowers the degree by one.

A projection ``p = V V*`` of rank ``r`` is a point of a Grassmannian, and its
curvature is taken in an orthonormal frame ``V`` of its range as the ``r x r``
form ``F_ab = G_a* G_b - G_b* G_a`` of the slot jets ``G_a = (d_a p) V``,
whose traces are those of ``Omega`` (Narasimhan-Ramanan, *Amer. J. Math.*
83, 1961; Pressley-Segal, *Loop Groups*, ch. 7).  Every product is real, on
the real forms ``R`` of :func:`numkernel._real_form` (:class:`_FrameCurvature`):
``tr F_ab = 2i Im tr(G_a* G_b)`` is an elementwise pairing, and the degree-3
integrand ``sum +-tr(F_0i F_jk)`` is the one real pairing ``2 <Z, G_0>`` of
``Z = G_1 F_23 + G_2 F_31 + G_3 F_12`` on the float views; these are all that
an even form of degree at most 3 needs.  A homotopy may hold the frames in
place of the projections (:class:`Homotopy`); a projection map gets a frame
at every node from one batched ``eigh``.

Component conventions (fixed once, tests depend on them): a form is a dict
``{I: array}`` over strictly increasing axis multi-indices ``I`` (``()`` for
a 0-form), and :func:`chern_scalar` normalizes these components:

* power of a 1-form:  ``tr(a^m)(v_1..v_m) = sum_s sgn(s) tr[a(v_s1)..a(v_sm)]``
  with no ``1/m!``;
* power of a 2-form:  the same alternating sum over ``2k`` slots with a
  ``1/2^k`` prefactor, pairing consecutive slots (each unordered pair is
  counted once).

No form is wedged by a general product: each trace is written out in the
kernel of its family.  Unitary maps go through :class:`_UnitaryPairs`, whose
right logarithmic derivatives ``beta_a = d_a f f*`` have the traces of
``omega``: ``tr(omega^3)`` is ``3 tr(beta_0 [beta_1, beta_2])`` by
cyclicity, and the unitary CS integrand is its pairs ``tr(beta_t [beta_i,
beta_j])``.  Projections go through :class:`_FrameCurvature`.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from . import fourier
from .errors import DegreeOverflow, NotALoop, ShapeMismatch
from .geomgrid import (
    DomainGrid,
    GradedForm,
    SampledMap,
    _check_codomain,
    _check_frames,
    _check_window,
    _freeze,
    differentiate,
    generating_cycles,
    integrate,
    sub_grid,
)
from .numkernel import _real_widening

__all__ = [
    "chern_scalar",
    "ch_odd",
    "ch_even",
    "ch_total",
    "Homotopy",
    "cs_forms",
    "cs_exact",
]

DEFAULT_K_MAX = 3


def chern_scalar(parity: str, k: int) -> complex:
    """Normalization of the degree-(2k-1) odd / degree-2k even component."""
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise DegreeOverflow(f"components are indexed by integers k >= 1, got {k!r}")
    if parity == "odd":
        return (1j / (2 * np.pi)) ** k * (-1.0) ** (k - 1) * math.factorial(k - 1) / math.factorial(2 * k - 1)
    if parity == "even":
        return (1j / (2 * np.pi)) ** k / math.factorial(k)
    raise ShapeMismatch(f"parity must be 'odd' or 'even', got {parity!r}")


def _adjoint(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The conjugate transpose of a stack of matrices, written once into the
    C-contiguous ``out`` (a new array when None)."""
    t = np.swapaxes(x, -1, -2)
    return np.conjugate(t, out=np.empty_like(t, order="C") if out is None else out)


def _range_frame(p: np.ndarray) -> np.ndarray:
    """An orthonormal frame of the range of every projection value, from one
    batched ``eigh``: the eigenvectors of the eigenvalues above 1/2.

    Raises ShapeMismatch when the rank is not the same at every node.
    """
    w, v = np.linalg.eigh(p)
    ranks = np.count_nonzero(w > 0.5, axis=-1)
    r = int(ranks.flat[0])
    if np.any(ranks != r):
        raise ShapeMismatch(f"projection values of ranks {np.unique(ranks).tolist()} on one domain")
    return np.ascontiguousarray(v[..., v.shape[-1] - r :])


class _FrameCurvature:
    """The curvature of projections ``P = V V*`` read in an orthonormal
    frame ``V`` of their range (``V* V = 1``, ``r`` columns), by real
    products on contiguous per-slot buffers allocated at the first
    :meth:`frame` and refilled by every later one of the same frame shape.

    Slot ``a > 0`` holds ``R(G_a)`` (:func:`numkernel._real_form`) of the
    slot jet ``G_a = (d_a P) V``, written by a product with the widened
    frame ``W`` below.  Slot 0 is only ever paired from the left (``tr
    F_0b`` and :meth:`volume`, where it is the contracted ``t``), so it
    holds ``G_0.view(float)`` alone, in a buffer of its own.  The curvature
    pair of slots ``a, b`` is ``F_ab = G_a* G_b - G_b* G_a = V* [d_a P, d_b
    P] V``, since the jets of ``P`` are Hermitian: ``r x r`` and
    anti-Hermitian, with the traces of ``P [d_a P, d_b P] P``, since ``V* V
    = 1``.  A change of frame ``V -> V g`` sends every ``F_ab`` to ``g* F_ab
    g``, so a frame chosen node by node serves (Pressley-Segal, *Loop
    Groups*, ch. 7).  No complex product is taken:

    - :meth:`frame` forms ``W = [R(V) | R(iV)]``, ``2n x 4r``, as the free
      reshape of one product ``V.view(float) @ [1 | R(i) | R(i) | -1]``
      (``n x 8r``; row ``l`` holds rows ``2l`` and ``2l + 1`` of ``W``),
      by :func:`numkernel._real_widening`, which also widens the ``f*`` of
      unitary values (:class:`_UnitaryPairs`).
    - A jet ``d`` of ``P`` gives ``R(G)`` as the free ``2n x 2r`` reshape of
      ``d.view(float) @ W``: row ``l`` of that ``n x 4r`` product holds rows
      ``2l`` and ``2l + 1`` of ``R(G)``, ``G[l]`` and ``i G[l]``.  Slot 0
      takes ``G_0.view(float) = d.view(float) @ R(V)``.
    - A jet ``x`` of the frame gives ``G = (x V* + V x*) V = x + V (x* V)``:
      ``R(x* V)`` is the same reshape of ``x*.view(float) @ W``, ``V (x*
      V)`` is ``V.view(float) @ R(x* V)``, written into the even rows of the
      slot, and the odd rows are ``i G``.
    - :meth:`curvature`: ``R(F_ab) = K - K^T`` with ``K = R(G_a)^T R(G_b)``,
      one real product with a transposed operand, for ``a, b > 0``.
    - :meth:`trace`: ``tr F_ab = 2i Im tr(G_a* G_b)``, an elementwise
      pairing of the even rows of slot ``a`` with the odd rows of slot
      ``b``, and no product.
    - :meth:`volume`: the degree-3 integrand ``sum +-tr(F_0i F_jk)`` over
      three spatial slots as one real pairing.

    On 12^3 nodes of 8 x 4 frames and four slots these buffers take about
    15 MB.
    """

    def __init__(self, n_slots: int):
        self.n_slots = n_slots
        self.frame_shape: tuple[int, ...] = ()

    def _allocate(self, frame_shape: tuple[int, ...]) -> None:
        """Buffers for frames of ``frame_shape``, ``(*nodes, n, r)``; that of
        :meth:`projection` waits for its first call."""
        *nodes, n, r = self.frame_shape = frame_shape
        self._wide = np.empty((*nodes, 2 * n, 4 * r))
        self._real = self._wide[..., : 2 * r]
        self._projection = None
        self._head = np.empty((*nodes, n, 2 * r))
        self._slots = np.empty((self.n_slots - 1, *nodes, 2 * n, 2 * r))
        self._rows = self._slots.reshape(self.n_slots - 1, *nodes, n, 4 * r)
        self._jet_adj = np.empty((*nodes, r, n), dtype=complex)
        self._small = np.empty((*nodes, 2 * r, 2 * r))
        self._pair = np.empty((*nodes, 2 * r, 2 * r))
        self._curvature = np.empty((*nodes, 2 * r, 2 * r))

    def frame(self, v: np.ndarray) -> None:
        """Take ``v`` as the frame of the next :meth:`fill` and form ``W``."""
        if v.shape != self.frame_shape:
            self._allocate(v.shape)
        self._v = v
        _real_widening(v, self._wide)

    def projection(self) -> np.ndarray:
        """``P = V V*`` of the frame, as ``V.view(float) @ R(V)^T``."""
        if self._projection is None:
            self._projection = np.empty((*self.frame_shape[:-1], self.frame_shape[-2]), dtype=complex)
        np.matmul(self._v.view(float), np.swapaxes(self._real, -1, -2), out=self._projection.view(float))
        return self._projection

    def fill(self, frame_jets: Iterable[np.ndarray], projection_jets: Iterable[np.ndarray]) -> None:
        """Every slot: the ``frame_jets`` (jets of ``V``), then the
        ``projection_jets`` (jets of ``V V*``), each consumed before the next
        is taken."""
        r = self.frame_shape[-1]
        small = self._small.reshape(*self.frame_shape[:-2], r, 4 * r)
        slots = itertools.chain(((x, True) for x in frame_jets), ((d, False) for d in projection_jets))
        for a, (x, of_frame) in zip(range(self.n_slots), slots, strict=True):
            rows = self._rows[a - 1] if a else None
            g = self._head if rows is None else rows[..., : 2 * r]  # G.view(float)
            if of_frame:  # G = x + V (x* V)
                np.conjugate(np.swapaxes(x, -1, -2), out=self._jet_adj)
                np.matmul(self._jet_adj.view(float), self._wide, out=small)
                np.matmul(self._v.view(float), self._small, out=g)
                g += x.view(float)
                if a:
                    np.multiply(g.view(complex), 1j, out=rows[..., 2 * r :].view(complex))
            elif a:  # G = d V
                np.matmul(x.view(float), self._wide, out=rows)
            else:
                np.matmul(x.view(float), self._real, out=g)

    def trace(self, a: int, b: int) -> np.ndarray:
        """``tr F_ab = 2i Im tr(G_a* G_b)``, ``b > 0``: ``-2i`` times the real
        pairing of ``G_a.view(float)`` with ``(i G_b).view(float)``."""
        r = self.frame_shape[-1]
        left = self._rows[a - 1][..., : 2 * r] if a else self._head
        return -2j * np.einsum("...ij,...ij->...", left, self._rows[b - 1][..., 2 * r :])

    def curvature(self, a: int, b: int) -> np.ndarray:
        """``R(F_ab)``, ``a, b > 0``, a new array; ``F_ab`` is its
        ``.view(complex)[..., ::2, :]``."""
        k = np.matmul(np.swapaxes(self._slots[a - 1], -1, -2), self._slots[b - 1])
        return k - np.swapaxes(k, -1, -2)

    def volume(self) -> np.ndarray:
        """``tr(F_01 F_23) - tr(F_02 F_13) + tr(F_03 F_12)`` of four slots.

        With ``tr(F_0i M) = 2 Re tr(G_0* G_i M)`` for anti-Hermitian ``M``,
        it is ``2 <Z.view(float), G_0.view(float)>`` with ``Z = G_1 F_23 +
        G_2 F_31 + G_3 F_12``, the sum of ``sgn(s) G_s1 G_s2* G_s3`` over
        the permutations ``s`` of the three spatial slots.  Each term of the
        pairing is taken as ``-<R(F_jk), G_0.view(float)^T G_i.view(float)>``
        of two contiguous ``2r x 2r`` blocks, ``R(F_jk)`` being
        antisymmetric.
        """
        *nodes, _, r = self.frame_shape
        flat = (*nodes, 4 * r * r)
        out = np.zeros(nodes)
        for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            np.matmul(np.swapaxes(self._slots[j - 1], -1, -2), self._slots[k - 1], out=self._pair)
            np.subtract(self._pair, np.swapaxes(self._pair, -1, -2), out=self._curvature)
            np.matmul(np.swapaxes(self._head, -1, -2), self._rows[i - 1][..., : 2 * r], out=self._pair)
            out -= np.vecdot(self._curvature.reshape(flat), self._pair.reshape(flat))
        return 2.0 * out


class _UnitaryPairs:
    """The pairs ``tr(beta_0 [beta_i, beta_j])`` of the right logarithmic
    derivatives ``beta_a = d_a f f* = f alpha_a f^{-1}`` of unitary values
    ``f`` along ``n_jets`` directions, by two real products on buffers
    allocated once and refilled by every :meth:`pair`.  ``beta_a`` has the
    traces of ``alpha_a = f^{-1} d_a f``, so these are the pairs of
    ``tr(alpha_0 ^ omega ^ omega)``.

    - The caller writes the jets into :attr:`jets`, the ``n``-row blocks of
      one stack ``J = [d_0 f; d_1 f; ..]``.
    - :meth:`pair` writes ``f*`` once, C-contiguous (:func:`_adjoint`),
      and widens it to ``[R(f*) | R(if*)]`` (:func:`numkernel._real_widening`,
      as :meth:`_FrameCurvature.frame` widens its frames).
    - The real product ``J.view(float) @ [R(f*) | R(if*)]`` writes
      ``R(beta)`` of every jet, row ``l`` of its ``n x 4n`` blocks holding
      ``beta[l]`` and ``i beta[l]``.
    - A second, ``[beta_1; ..].view(float) @ R(beta_0)``, gives every
      ``X_i = beta_i beta_0``, ``R(beta_0)`` being the first ``2n`` rows of
      ``R(beta)``, read in place.
    - Each pair ``i < j`` of the directions after the first is written as
      ``tr(beta_i X_j) - tr(beta_j X_i)``, two ``einsum`` pairings, into a
      buffer of its own (:attr:`pairs`, keyed from 0 for ``d_1 f``).

    numpy multiplies a stack of small complex matrices by one ``zgemm``
    call per matrix, and the real products of the float views are faster:
    on the 4 x 4 slices of the odd inversion homotopies they cut a
    ``cs_exact`` pass by about a fifth.  The unitary CS pass fills ``J``
    with ``[df/dt; d_1 f; ..]`` at every slice (:class:`_SliceWorkspace`),
    and :func:`ch_odd` with ``[d_0 f; d_1 f; d_2 f]`` once.
    """

    def __init__(self, shape: tuple[int, ...], n_jets: int):
        *nodes, _, n = shape
        stack = np.empty((*nodes, n_jets * n, n), dtype=complex)
        self.inverse, widened = np.empty(shape, dtype=complex), np.empty((*nodes, 2 * n, 4 * n))
        # R(beta) of [beta_0; beta_1; ..], whose row l of n x 4n holds beta[l] and i beta[l]
        real_beta = np.empty((*nodes, 2 * n_jets * n, 2 * n))
        rows = real_beta.reshape(*nodes, n_jets * n, 4 * n)
        beta, heads = rows[..., : 2 * n].view(complex), np.empty((*nodes, (n_jets - 1) * n, n), dtype=complex)
        # the float operands and outputs of the two products, and the n-row blocks as views:
        # jets [d_0 f, d_1 f, ..], beta [beta_0, beta_1, ..], heads [X_1, ..]
        self.products = (
            (stack.view(float), widened, rows),
            (rows[..., n:, : 2 * n], real_beta[..., : 2 * n, :], heads.view(float)),
        )
        self.jets = np.split(stack, n_jets, axis=-2)
        self.betas = np.split(beta[..., n:, :], n_jets - 1, axis=-2)
        self.xs = np.split(heads, n_jets - 1, axis=-2)
        self.minus = np.empty(nodes, dtype=complex)
        self.pairs = {ij: np.empty(nodes, dtype=complex) for ij in itertools.combinations(range(n_jets - 1), 2)}

    def pair(self, f: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
        """Every pair of :attr:`pairs` for the values ``f`` and the jets in
        :attr:`jets`, in its buffer."""
        (jets, widened, rows), (beta_x, real_beta_0, heads) = self.products
        _real_widening(_adjoint(f, self.inverse), widened)
        np.matmul(jets, widened, out=rows)  # R(beta) = J [R(f*) | R(if*)]
        np.matmul(beta_x, real_beta_0, out=heads)  # X = [beta_1; ..] R(beta_0)
        for (i, j), out in self.pairs.items():
            np.einsum("...ij,...ji->...", self.betas[i], self.xs[j], out=out)
            out -= np.einsum("...ij,...ji->...", self.betas[j], self.xs[i], out=self.minus)
        return self.pairs


def ch_odd(f: SampledMap, k: int) -> GradedForm:
    """Degree-(2k-1) odd Chern component of a unitary-tagged map.

    ``ch_1`` is ``c tr(f* d_i f)`` on each axis, one ``np.vecdot`` of the
    flattened values and jet (it conjugates the first with no copy).  The
    degree ``2k - 1`` is at most the domain dimension 3, so the only other
    component is ``ch_3`` on torus3: ``sum_s sgn(s) tr(beta_s1 beta_s2
    beta_s3) = 3 tr(beta_0 [beta_1, beta_2])``, the one pair of
    :class:`_UnitaryPairs` filled with ``[d_0 f; d_1 f; d_2 f]``."""
    if f.codomain != "unitary":
        raise ShapeMismatch("ch_odd needs a unitary-tagged map")
    c, deg = chern_scalar("odd", k), 2 * k - 1  # DegreeOverflow unless k is an integer >= 1
    if deg > f.domain.dim:
        raise DegreeOverflow(f"degree {deg} exceeds domain dimension {f.domain.dim}")
    partials = differentiate(f)
    if k == 1:
        flat = f.values.reshape(*f.domain.node_shape, -1)
        comps = {(i,): np.vecdot(flat, p.reshape(flat.shape)) for i, p in enumerate(partials)}
    else:
        kernel = _UnitaryPairs(f.values.shape, len(partials))
        for row, p in zip(kernel.jets, partials, strict=True):
            row[...] = p
        comps = {(0, 1, 2): 3.0 * kernel.pair(f.values)[0, 1]}
    return GradedForm(f.domain, deg, {idx: c * a for idx, a in comps.items()})


def ch_even(p: SampledMap, k: int) -> GradedForm:
    """Degree-2k even Chern component of a projection-tagged map (k >= 1),
    read in a frame of the range at every node (:class:`_FrameCurvature`).
    Degree ``2k`` is at most the domain dimension 3, so ``k = 1`` and the
    component is ``tr F``, an elementwise pairing of the real slot forms of
    the projection jets."""
    if p.codomain != "projection":
        raise ShapeMismatch("ch_even needs a projection-tagged map")
    if k < 1:
        raise DegreeOverflow("k = 0 is the virtual dimension, not a sampled form")
    deg = 2 * k
    if deg > p.domain.dim:
        raise DegreeOverflow(f"degree {deg} exceeds domain dimension {p.domain.dim}")
    partials = differentiate(p)
    kernel = _FrameCurvature(len(partials))
    kernel.frame(_range_frame(p.values))
    kernel.fill((), partials)
    comps = {ab: kernel.trace(*ab) for ab in itertools.combinations(range(len(partials)), 2)}
    c = chern_scalar("even", k)
    return GradedForm(p.domain, deg, {idx: c * a for idx, a in comps.items()})


def _check_k_max(k_max) -> None:
    """DegreeOverflow unless ``k_max`` is an integer of at least 1."""
    if not (isinstance(k_max, (int, np.integer)) and k_max >= 1):
        raise DegreeOverflow(f"k_max must be >= 1, got {k_max!r}")


def ch_total(f: SampledMap, k_max: int = DEFAULT_K_MAX) -> list[GradedForm]:
    """All positive-degree components up to the dimension cutoff."""
    _check_k_max(k_max)
    out: list[GradedForm] = []
    for k in range(1, k_max + 1):
        if f.codomain == "unitary":
            if 2 * k - 1 > f.domain.dim:
                break
            out.append(ch_odd(f, k))
        elif f.codomain == "projection":
            if 2 * k > f.domain.dim:
                break
            out.append(ch_even(f, k))
        else:
            raise ShapeMismatch("ch_total needs a unitary- or projection-tagged map")
    return out


# ---------------------------------------------------------------------------
# homotopies


def _row_reads(table: np.ndarray, blocks: np.ndarray) -> tuple:
    """How each row of ``table`` reads ``blocks``, settled once per table:
    its weights over the span of blocks from its first nonzero weight to its
    last, and the float rows of that span.  A zero row, signed zeros
    included, has an empty span."""
    flat = blocks.view(float).reshape(len(blocks), -1)
    reads = []
    for row, values in zip(table, table.tolist()):
        nonzero = [k for k, x in enumerate(values) if x]
        span = slice(nonzero[0], nonzero[-1] + 1) if nonzero else slice(0, 0)
        reads.append((row[span], flat[span]))
    return tuple(reads)


def _block_diagonal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(np.add(a.shape, b.shape))
    out[: len(a), : a.shape[1]], out[len(a) :, a.shape[1] :] = a, b
    return out


class Homotopy:
    """A time-indexed family of sampled maps over one spatial grid, held by
    one store of t-independent blocks and one real weight table per jet.

    ``blocks`` is one contiguous array ``(n_blocks, *node_shape, rows,
    cols)``, and every table is ``(n_times, n_blocks)``.  Slice ``i`` is
    ``weights[i] @ blocks``, its exact time jet ``d(slice)/dt`` is
    ``time_weights[i] @ blocks`` and its exact jet along spatial axis ``a``
    is ``spatial_weights[a][i] @ blocks``, each sum over the leading block
    axis; ``spatial_weights`` is None when the spatial jets are not known.
    A slice or jet is formed only when it is read, one at a time
    (:meth:`_read`), by one real product of its weights with the blocks of
    its span, from its first nonzero weight to its last; the span of every
    row is settled once, in the constructor (:func:`_row_reads`), and never
    searched for at a read.  The rotation homotopies of :mod:`kops` hold
    three blocks per jet however many time nodes they have;
    :func:`kops.conjugation_homotopy` holds its slices and jets node by
    node, as chunks of its store read by one-hot tables.

    There is one constructor, and every check is made in it:
    ShapeMismatch unless the blocks are finite, ``spatial_weights`` has one
    table per spatial axis and every table is finite and of its shape.  The
    homotopy takes ownership of the store (it is not copied when already
    contiguous complex) and makes it and every table read-only.

    A homotopy builds no rule in ``t``: the code that builds it hands in
    its ``times``, finite nodes that increase from the first to the last,
    and its :attr:`quadrature`, one finite real weight per time node, by which
    :func:`cs_forms` integrates in ``t``; ShapeMismatch names either when
    it is not so.  The nodes need only not decrease, since
    :meth:`concatenate` repeats its junction node.  The builders of
    :mod:`kops` all take both from one Gauss-Lobatto rule
    (:func:`kops.lobatto_rule`).  A ``window``, as on
    :class:`SampledMap`, must span the rows of the slices, and only
    homotopies on one window concatenate.

    :attr:`slices`, :attr:`time_partials` (:meth:`time_derivative`) and
    :attr:`spatial_partials` form their whole stacks on every read and keep
    none of them; :func:`cs_forms` never reads them.  The derived homotopies
    change tables or the store, never stacks, and are built by the
    constructor, so every check runs on them too: :meth:`restrict`
    restricts the store and keeps the tables of its axes, :meth:`reversed`
    flips every table and the quadrature and negates the time table,
    sharing the store, :meth:`adjoint` takes the adjoint of the store (all
    weights are real), and :meth:`concatenate` joins the stores and the
    quadratures and puts every table block-diagonal.

    A projection-tagged homotopy holds either square projections or, when
    its slices have fewer columns than rows, orthonormal frames ``V`` of
    the projections ``V V*`` (``V* V = 1`` at every node within 1e-8, or
    ShapeMismatch; the slices are checked one at a time).  Then every jet is
    a jet of the frame, and the homotopy is read through its projections:
    :meth:`slice_map` returns ``V V*`` with the jets ``d V V* + V d V*``,
    :meth:`adjoint` is the homotopy itself, and :meth:`concatenate` compares
    projections at the junction.  A frame and its jets take ``r/n`` of the
    memory of the projection.
    """

    def __init__(
        self,
        spatial: DomainGrid,
        times: np.ndarray,
        quadrature: np.ndarray,
        blocks: np.ndarray,
        weights: np.ndarray,
        time_weights: np.ndarray,
        codomain: str = "generic",
        window: object | None = None,
        spatial_weights: tuple[np.ndarray, ...] | None = None,
    ):
        _check_codomain(codomain)
        t, q = np.asarray(times), np.asarray(quadrature)  # cast to float once found real
        b = np.ascontiguousarray(blocks, dtype=complex)
        if b.shape[1 : 1 + len(spatial.node_shape)] != spatial.node_shape:
            raise ShapeMismatch("block node shape does not match the spatial grid")
        _check_window(window, b.shape[-2])
        # a concatenation repeats its junction node, so the nodes need only not decrease
        rising = t.dtype.kind in "iuf" and t.ndim == 1 and t.size > 1
        rising = rising and np.isfinite(t).all() and np.diff(t).min() >= 0.0
        if not (rising and t[-1] > t[0]):
            raise ShapeMismatch("homotopy time nodes must be finite and increase from the first to the last")
        if q.shape != t.shape or q.dtype.kind not in "iuf" or not np.isfinite(q).all():
            raise ShapeMismatch(f"homotopy quadrature needs one finite real weight per time node: {q.size} for {t.size}")
        if spatial_weights is not None and len(spatial_weights) != spatial.dim:
            raise ShapeMismatch(f"{len(spatial_weights)} spatial weight tables for {spatial.dim} spatial axes")
        tables = [np.asarray(w, dtype=float) for w in (weights, time_weights, *(spatial_weights or ()))]
        if any(w.shape != (t.size, len(b)) or not np.isfinite(w).all() for w in tables):
            got = [w.shape for w in tables]
            raise ShapeMismatch(f"homotopy weight tables must be finite and ({t.size}, {len(b)}), got {got}")
        if not np.isfinite(b).all():  # a boolean temporary of 1/16 of the store
            raise ShapeMismatch("homotopy blocks must be finite")
        weights, time_weights, *spatial_tables = tables = [_freeze(w) for w in tables]
        vars(self).update(
            spatial=spatial,
            times=_freeze(np.array(t, dtype=float)),
            quadrature=_freeze(np.array(q, dtype=float)),
            blocks=_freeze(b),
            weights=weights,
            time_weights=time_weights,
            codomain=codomain,
            window=window,
            spatial_weights=None if spatial_weights is None else tuple(spatial_tables),
            _reads=[_row_reads(w, b) for w in tables],
        )
        if codomain == "projection" and self.slice_shape[-1] != self.slice_shape[-2]:
            out = np.empty(self.slice_shape, dtype=complex)
            _check_frames((self._read(0, i, out) for i in range(self.n_times)), "projection frame slices")

    def __setattr__(self, name, value):
        raise AttributeError(f"a Homotopy is immutable; cannot set {name!r}")

    @property
    def n_times(self) -> int:
        return int(self.times.size)

    @property
    def slice_shape(self) -> tuple[int, ...]:
        """``(*node_shape, rows, cols)`` of one slice."""
        return self.blocks.shape[1:]

    @property
    def _frames(self) -> bool:
        """Whether the slices are frames of projections (see the class docstring)."""
        return self.codomain == "projection" and self.slice_shape[-1] < self.slice_shape[-2]

    def _read(self, table: int, i: int, out: np.ndarray) -> np.ndarray:
        """Row ``i`` of table ``table`` (0 the slices, 1 the time jets, ``2 +
        a`` the exact jets along spatial axis ``a``), ``sum_k row[k]
        blocks[k]``, written into the contiguous ``out`` by one real product
        over the span of the row (:func:`_row_reads`), which writes zeros
        when the span is empty.  Every read of a slice or jet goes through
        here, so a slice evaluated alone has the bits of its row of a stack."""
        weights, rows = self._reads[table][i]
        np.matmul(weights, rows, out=out.view(float).reshape(-1))
        return out

    def _stack(self, table: int) -> np.ndarray:
        """The rows of table ``table`` (as in :meth:`_read`) over every time node, read-only."""
        out = np.empty((self.n_times, *self.slice_shape), dtype=complex)
        for i, x in enumerate(out):
            self._read(table, i, x)
        return _freeze(out)

    @property
    def slices(self) -> np.ndarray:
        """Every slice, ``(n_times, *node_shape, rows, cols)``, formed on each read."""
        return self._stack(0)

    def time_derivative(self) -> np.ndarray:
        """d(slice)/dt at every time node, formed on each call."""
        return self._stack(1)

    @property
    def time_partials(self) -> np.ndarray:
        return self.time_derivative()

    @property
    def spatial_partials(self) -> tuple[np.ndarray, ...] | None:
        """The exact spatial jets of every slice, formed on each read, or None."""
        return None if self.spatial_weights is None else tuple(self._stack(2 + a) for a in range(self.spatial.dim))

    def _value(self, v: np.ndarray) -> np.ndarray:
        """The map value of a slice ``v``: ``V V*`` for a frame ``V``."""
        return v @ _adjoint(v) if self._frames else v

    def slice_map(self, i: int) -> SampledMap:
        """Slice ``i`` (negative counts from the last) as a validated map;
        ShapeMismatch unless ``i`` is an integer index of a time node."""
        if not (isinstance(i, (int, np.integer)) and -self.n_times <= i < self.n_times):
            raise ShapeMismatch(f"slice index {i!r} of a homotopy with {self.n_times} time nodes")
        v = self._read(0, i, np.empty(self.slice_shape, dtype=complex))
        partials = None
        if self.spatial_weights is not None:
            partials = tuple(self._read(2 + a, i, np.empty_like(v)) for a in range(self.spatial.dim))
            if self._frames:
                partials = tuple(a + _adjoint(a) for a in (d @ _adjoint(v) for d in partials))
        return SampledMap(self.spatial, self._value(v), codomain=self.codomain, window=self.window, partials=partials)

    def _derived(self, **fields) -> "Homotopy":
        """This homotopy with ``fields`` replaced, built by the constructor."""
        own = {name: x for name, x in vars(self).items() if name != "_reads"}
        return Homotopy(**{**own, **fields})

    def restrict(self, axes: Sequence[int]) -> "Homotopy":
        """The homotopy on the sub-grid spanned by the spatial ``axes``, every
        other spatial axis pinned at node 0 (the pin of
        :func:`geomgrid.cycle_integral`)."""
        sub, pin = sub_grid(self.spatial, axes)
        sw = None if self.spatial_weights is None else tuple(self.spatial_weights[a] for a in sorted(axes))
        return self._derived(spatial=sub, blocks=self.blocks[(slice(None), *pin)], spatial_weights=sw)

    def reversed(self) -> "Homotopy":
        t, sw = self.times, self.spatial_weights
        return self._derived(
            times=t[-1] - t[::-1] + t[0],
            weights=self.weights[::-1],
            time_weights=-self.time_weights[::-1],
            spatial_weights=None if sw is None else tuple(w[::-1] for w in sw),
            quadrature=self.quadrature[::-1],
        )

    def adjoint(self) -> "Homotopy":
        if self._frames:  # projections are self-adjoint
            return self
        return self._derived(blocks=_adjoint(self.blocks))

    @staticmethod
    def concatenate(first: "Homotopy", second: "Homotopy") -> "Homotopy":
        """``first`` then ``second``, each keeping its tables and quadrature;
        NotALoop unless the junction slices agree within 1e-10."""

        def kind(h: Homotopy) -> tuple:
            return h.spatial, h.codomain, h.window, h.slice_shape

        if kind(first) != kind(second):
            raise ShapeMismatch("cannot concatenate homotopies on different grids, tags, windows or slice shapes")
        last = first._read(0, -1, np.empty(first.slice_shape, dtype=complex))
        junction = float(np.abs(first._value(last) - second._value(second._read(0, 0, np.empty_like(last)))).max())
        if not junction < 1e-10:
            raise NotALoop(f"junction slices differ by {junction:.3e}")
        shift = first.times[-1] - second.times[0]
        both = first.spatial_weights is not None and second.spatial_weights is not None
        sw = tuple(map(_block_diagonal, first.spatial_weights, second.spatial_weights)) if both else None
        return first._derived(
            times=np.concatenate([first.times, second.times + shift]),
            blocks=np.concatenate([first.blocks, second.blocks]),
            weights=_block_diagonal(first.weights, second.weights),
            time_weights=_block_diagonal(first.time_weights, second.time_weights),
            spatial_weights=sw,
            quadrature=np.concatenate([first.quadrature, second.quadrature]),
        )


def _cs_degree(codomain: str, k: int) -> int:
    """Form degree of the k-th CS component: ``2k - 2`` for unitary slices,
    ``2k - 1`` for projection slices."""
    if codomain == "unitary":
        return 2 * k - 2
    if codomain == "projection":
        return 2 * k - 1
    raise ShapeMismatch("CS forms need unitary or projection slices")


class _SliceWorkspace:
    """The full-grid arrays of one :func:`cs_forms` pass, allocated once and
    refilled in place at every time slice; the integrands it returns are its
    own buffers or new arrays, which the caller may overwrite.  Each slice
    and its jets are rows of the weight tables of the homotopy over its one
    block store, evaluated into buffers of the workspace
    (:meth:`Homotopy._read`); one spatial jet is held at a time, in the one
    buffer :attr:`jet`.

    Unitary slices (only ``k > 1`` come here) go through
    :class:`_UnitaryPairs`, direction 0 being ``t``: its jets are
    ``[df/dt; d_1 f; ..]``, each spatial jet, grid or exact, written into
    :attr:`jet` and copied into its row block.  The degree ``2k - 2`` of a
    unitary CS form is at most ``dim <= 3``, so ``k = 2``, and the integrand
    ``tr(alpha_t ^ omega ^ omega)`` is the kernel's pairs ``tr(beta_i X_j) -
    tr(beta_j X_i)``, ``X_i = beta_i beta_t``, in the kernel's buffers: the
    widening of ``f*`` and the two real products are all of a slice, on
    views fixed for the whole pass.

    Projection slices go through :class:`_FrameCurvature`, slot 0 being
    ``t``: ``CS_1`` is its traces ``tr F_0i`` and the degree-3 ``CS_2`` its
    :meth:`_FrameCurvature.volume`.  A frame slice ``V`` is its own frame, and
    its time jet and exact spatial jets are jets of ``V``.  Its grid jets are
    taken of ``P = V V*``, formed by the kernel from ``R(V)``
    (:meth:`_FrameCurvature.projection`), and never of ``V``: the grid jets
    of a frame are not those of any projection, and on the even inversion of
    an unresolved 8^3 leaf they raise the degree-1 ``cs_exact`` residual from
    1e-16 to 0.1-0.4.  A square slice ``P`` gets a frame at every node from
    one batched ``eigh``, and all its jets are jets of ``P``.
    """

    def __init__(self, H: Homotopy, ks: Sequence[int]):
        self.H = H
        shape = H.slice_shape
        dim = H.spatial.dim
        self.ks = ks
        self.unitary = H.codomain == "unitary"
        self.value, self.time_jet = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
        # an exact jet has the shape of a slice, a grid jet that of its (n x n) projection
        cols = shape[-1] if H.spatial_weights is not None else shape[-2]
        self.jet = np.empty((*shape[:-1], cols), dtype=complex)
        if self.unitary:
            self.kernel = _UnitaryPairs(shape, dim + 1)
        else:
            self.frames = H._frames
            # slot 0 is t: the (0, i) pairs are iota_t Omega, the others Omega
            self.kernel = _FrameCurvature(dim + 1)

    def _unitary(self, it: int) -> dict[int, dict[tuple[int, ...], np.ndarray]]:
        """The ``CS_2`` integrand ``tr(beta ^ X)`` of unitary slice ``it``,
        in the buffers of :attr:`_UnitaryPairs.pairs`."""
        H, (dt, *spatial) = self.H, self.kernel.jets
        v = H._read(0, it, self.value)
        dt[...] = H._read(1, it, self.time_jet)
        for i, row in enumerate(spatial):
            row[...] = fourier.derivative(v, i, self.jet) if H.spatial_weights is None else H._read(2 + i, it, self.jet)
        # tr(alpha_t ^ omega ^ omega) = tr(beta ^ X), X_i = beta_i beta_t: the
        # (i, j) component is tr(beta_i X_j) - tr(beta_j X_i), the kernel's pair
        return {2: self.kernel.pair(v)}

    def integrands(self, it: int) -> dict[int, dict[tuple[int, ...], np.ndarray]]:
        """Components of the contracted CS integrand of every degree at time
        node ``it``, with the exact spatial jets of the homotopy or grid jets
        when it has none, before the ``t`` quadrature and the normalization."""
        if self.unitary:
            return self._unitary(it)
        H = self.H
        v, dv_dt = H._read(0, it, self.value), H._read(1, it, self.time_jet)
        dim = H.spatial.dim
        exact = None if H.spatial_weights is None else (H._read(2 + a, it, self.jet) for a in range(dim))
        if self.frames:
            self.kernel.frame(v)
            frame_jets, jets = itertools.chain((dv_dt,), exact or ()), ()
            if exact is None:
                p = self.kernel.projection()
                jets = (fourier.derivative(p, i, self.jet) for i in range(dim))
        else:
            self.kernel.frame(_range_frame(v))
            frame_jets = ()
            jets = itertools.chain((dv_dt,), exact or (fourier.derivative(v, i, self.jet) for i in range(dim)))
        self.kernel.fill(frame_jets, jets)
        # slot 0 is t: CS_1 is tr iota_t Omega, CS_2 (degree 3, dim = 3) tr(iota_t Omega ^ Omega)
        out = {}
        if 1 in self.ks:
            out[1] = {(i,): self.kernel.trace(0, i + 1) for i in range(dim)}
        if 2 in self.ks:
            out[2] = {(0, 1, 2): self.kernel.volume()}
        return out


def _unitary_cs_zero(H: Homotopy) -> np.ndarray:
    """``sum_i q_i tr(f_i^{-1} df_i/dt)`` over the time nodes, the ``CS_0``
    integrand of unitary slices integrated in ``t``, from pairings of the
    store: with slices ``W B``, time jets ``W' B`` and quadrature ``q`` it
    is ``sum_kl c_kl tr(B_k* B_l)`` with ``c = W^T diag(q) W'``, taken over
    the nonzero ``c_kl`` only, each one ``np.vecdot`` of the flattened
    blocks, which conjugates the first with no copy (6 pairings of 3 blocks
    on an odd rotation homotopy, whatever its time nodes and spatial jets)."""
    c = H.weights.T @ (H.quadrature[:, None] * H.time_weights)
    flat = H.blocks.reshape(*H.blocks.shape[:-2], -1)
    acc = np.zeros(H.spatial.node_shape, dtype=complex)
    for k, row in enumerate(c):
        for j in np.flatnonzero(row):
            acc += row[j] * np.vecdot(flat[k], flat[j])  # tr(B_k* B_j), conjugating the first
    return acc


def _cs_forms(H: Homotopy, ks: Sequence[int]) -> dict[int, GradedForm]:
    """The components ``ks`` (increasing, within the dimension cutoff) of
    :func:`cs_forms`, and nothing else."""
    acc: dict[int, dict[tuple[int, ...], np.ndarray]] = {k: {} for k in ks}
    if H.codomain == "unitary" and 1 in ks:
        acc[1][()] = _unitary_cs_zero(H)
    looped = [k for k in ks if H.codomain != "unitary" or k > 1]
    if looped:
        ws = _SliceWorkspace(H, looped)
        for it, wt in enumerate(H.quadrature):
            for k, comps in ws.integrands(it).items():
                for idx, val in comps.items():  # in place, rounded as acc + wt * val
                    scaled = np.multiply(wt, val, out=val)
                    acc[k][idx] = np.add(acc[k][idx], scaled, out=acc[k][idx]) if it else scaled.copy()
    out = {}
    for k in ks:
        c = chern_scalar("odd", k) * (2 * k - 1) if H.codomain == "unitary" else chern_scalar("even", k) * k
        out[k] = GradedForm(H.spatial, _cs_degree(H.codomain, k), {idx: c * a for idx, a in acc[k].items()})
    return out


def cs_forms(H: Homotopy, k_max: int = DEFAULT_K_MAX) -> dict[int, GradedForm]:
    """Fiber-``t`` integrals of the contracted pullbacks of the components
    ``k = 1 .. k_max`` up to the dimension cutoff, keyed by ``k``, from one
    pass over the time slices.

    Unitary slices produce degree-(2k-2) forms; projection slices produce
    degree-(2k-1) forms.  The contraction with ``d/dt`` follows from
    cyclicity of the trace, with ``omega`` and ``Omega`` the spatial forms:

    * ``iota_t tr(omega^m) = m tr(alpha_t ^ omega^(m-1))`` for odd ``m = 2k-1``,
      with the 0-form ``alpha_t = f^{-1} df/dt``;
    * ``iota_t tr(Omega^k) = k tr(iota_t Omega ^ Omega^(k-1))``, with the
      1-form ``(iota_t Omega)_i = p [dp/dt, d_i p]``, the ``(t, i)`` pairs of
      the space-time curvature.

    The pass evaluates each slice and its jets, rows of the weight tables
    of ``H`` over its one block store, into a workspace, allocated once per
    call and refilled in place at every slice (:class:`_SliceWorkspace`); no
    stack of slices is formed.  Each
    slice's spatial jets, ``alpha_t`` or ``iota_t Omega`` and curvature
    pairs are built once and shared by every degree.  Projection slices
    (square, or frames ``V`` of ``V V*``, see :class:`Homotopy`) take every
    pair in ``r x r`` as ``F_ab = V* [d_a P, d_b P] V``, which has the
    traces of ``p [d_a p, d_b p]``, from real products of float views with
    ``R(V)`` and ``R(iV)`` (:class:`_FrameCurvature`): the slot jets ``G_a
    = (d_a P) V`` are held as ``R(G_a)``, ``tr F_ab`` is an elementwise
    pairing of them, and the degree-3 integrand is one real pairing of
    ``G_0`` with ``G_1 F_23 + G_2 F_31 + G_3 F_12``; a projection form has
    degree ``2k - 1 <= dim <= 3``, so ``k <= 2`` and these two are all it
    needs.  The jets of square slices are read as Hermitian, as the
    projection homotopies of :mod:`kops` build them.  Unitary slices are
    read through ``beta_a = d_a f f^{-1}``, which has the traces
    of ``alpha_a``, by the kernel :class:`_UnitaryPairs` that
    :func:`ch_odd` also reads: ``df/dt`` and the spatial jets are stacked
    by rows, each copied into its row block, and two real
    products with the widened ``f*`` give every ``beta_a`` and every
    ``beta_i beta_t``, whose pairing ``tr(beta ^ beta beta_t)`` is
    ``tr(alpha_t ^ omega ^ omega)``; a unitary form has degree ``2k - 2 <= dim <= 3``, so ``k <= 2`` and
    nothing more is multiplied.  ``CS_0`` of unitary slices is ``int
    tr(f^{-1} df/dt) dt``, which is bilinear in the slice and its time jet,
    so it is taken from pairings of the blocks (:func:`_unitary_cs_zero`)
    and no slice is evaluated for it; the curvature pairs of projection
    slices are formed only when ``k_max > 1``.  Quadrature in ``t`` is the
    ``quadrature`` that the builder of ``H`` handed in, accumulated in place
    with the rounding of ``acc + q_i * value``.  DegreeOverflow
    unless ``k_max`` is an integer of at least 1.
    """
    _check_k_max(k_max)
    return _cs_forms(H, [k for k in range(1, k_max + 1) if _cs_degree(H.codomain, k) <= H.spatial.dim])


def cs_exact(H: Homotopy, k_max: int = DEFAULT_K_MAX, tol: float = 1e-6) -> dict:
    """Exactness verdict for every CS component up to the dimension cutoff.

    The residuals are those of :func:`geomgrid.exactness_residual` of the
    full-grid forms.  A cycle integral of ``CS(H)`` is the integral of ``CS``
    of ``H`` restricted to the cycle, since transgression forms are natural
    under pullback, so each positive degree is computed only on the
    sub-grids of its generating cycles; degree 0 (``CS_0`` of unitary
    slices, which needs no spatial jets) is its sup norm on the full grid.
    Each pass computes only the degree it integrates.  DegreeOverflow
    unless ``k_max`` is an integer of at least 1, and ShapeMismatch unless
    ``tol`` is a positive finite number, so no verdict is given on nothing.
    """
    _check_k_max(k_max)
    if not (isinstance(tol, (int, float, np.integer, np.floating)) and 0.0 < tol < math.inf):
        raise ShapeMismatch(f"tol must be a positive finite number, got {tol!r}")
    dim = H.spatial.dim
    residuals: dict[int, float] = {}
    for k in range(1, k_max + 1):
        deg = _cs_degree(H.codomain, k)
        if deg > dim:
            break
        if deg == 0:
            residuals[deg] = _cs_forms(H, [1])[1].sup_norm()
            continue
        residuals[deg] = max(
            abs(integrate(_cs_forms(H if len(c) == dim else H.restrict(c), [k])[k]))
            for c in generating_cycles(H.spatial, deg)
        )
    verdict = all(r < tol for r in residuals.values())
    return {"residuals": residuals, "verdict": verdict, "tolerance": tol}
