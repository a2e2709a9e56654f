"""Pullbacks of the universal Chern character forms and their transgressions.

The odd family is built from traces of odd powers of the logarithmic
derivative ``omega = f^{-1} df`` of a unitary map; the even family from traces
of powers of the curvature-type 2-form ``Omega(u, v) = p [d_u p, d_v p]`` of a
projection map.  A homotopy contributes the fiber-``t`` integral of the
contraction of its pulled-back form, which lowers the degree by one.

Wedge conventions (fixed once, tests depend on them): a matrix-valued form
is a dict ``{I: array (..., n, n)}`` over strictly increasing axis
multi-indices ``I`` (``()`` for a 0-form), and the wedge is the shuffle
product ``(a ^ b)_K = sum sgn(I, J) a_I b_J`` over disjoint ``I u J = K``,
``sgn(I, J)`` being the sign of the shuffle that sorts ``I + J``.  Hence

* power of a 1-form:  ``tr(a^m)(v_1..v_m) = sum_s sgn(s) tr[a(v_s1)..a(v_sm)]``
  with no ``1/m!``;
* power of a 2-form:  the same alternating sum over ``2k`` slots with a
  ``1/2^k`` prefactor, pairing consecutive slots (the shuffle sum counts
  each unordered pair once).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .errors import DegreeOverflow, NotALoop, ShapeMismatch
from .geomgrid import (
    DomainGrid,
    GradedForm,
    SampledMap,
    _check_codomain,
    _check_partials,
    _check_window,
    _diff_along,
    _diff_interval,
    _freeze,
    _simpson_weights,
    differentiate,
    generating_cycles,
    integrate,
    sub_grid,
)

__all__ = [
    "chern_scalar",
    "trace_wedge",
    "ch_odd",
    "ch_even",
    "ch_total",
    "Homotopy",
    "cs_forms",
    "cs_form",
    "cs_exact",
]

DEFAULT_K_MAX = 3


def chern_scalar(parity: str, k: int) -> complex:
    """Normalization of the degree-(2k-1) odd / degree-2k even component."""
    if k < 1:
        raise DegreeOverflow("components are indexed by k >= 1")
    if parity == "odd":
        return (1j / (2 * np.pi)) ** k * (-1.0) ** (k - 1) * math.factorial(k - 1) / math.factorial(2 * k - 1)
    if parity == "even":
        return (1j / (2 * np.pi)) ** k / math.factorial(k)
    raise ShapeMismatch(f"parity must be 'odd' or 'even', got {parity!r}")


def _wedge(a: dict, b: dict, product) -> dict:
    """Shuffle wedge of two matrix-valued forms, components multiplied by ``product``."""
    out: dict[tuple[int, ...], np.ndarray] = {}
    for first, x in a.items():
        for second, y in b.items():
            if not set(first) & set(second):
                key = tuple(sorted(first + second))
                term = (-1) ** sum(i > j for i in first for j in second) * product(x, y)
                out[key] = out[key] + term if key in out else term
    return out


def trace_wedge(*factors: dict[tuple[int, ...], np.ndarray]) -> dict[tuple[int, ...], np.ndarray]:
    """Components of ``tr(a_1 ^ ... ^ a_r)`` for matrix-valued forms.

    Each factor maps strictly increasing axis multi-indices to operator
    values stacked over nodes, ``(..., n, n)``; the wedge is the shuffle
    product of the module docstring.  The result maps each strictly
    increasing multi-index of the total degree to a scalar array over the
    nodes.  The last factor is paired by ``tr(x y) = sum_ij x_ij y_ji``, so
    the final matrix product is never formed.
    """
    *head, last = factors
    if not head:
        return {key: np.trace(x, axis1=-2, axis2=-1) for key, x in sorted(last.items())}
    acc = head[0]
    for factor in head[1:]:
        acc = _wedge(acc, factor, np.matmul)
    return dict(sorted(_wedge(acc, last, partial(np.einsum, "...ij,...ji->...")).items()))


class _CurvaturePairs:
    """Curvature pair values of projection values ``p`` and Hermitian jets
    ``d`` for fixed index pairs, in arrays of ``shape`` allocated once and
    refilled by every :meth:`fill`.

    The value of pair ``(i, j)`` is ``M - M*`` with ``M = L_i L_j*`` and
    ``L_i = p d_i``, that is ``p (d_i d_j - d_j d_i) p``: one product per
    slot and one per pair, and exactly anti-Hermitian.  It has the traces of
    ``p [d_i, d_j]`` in every product of pair values, since ``p^2 = p``
    moves the right ``p`` onto the next factor's left one.  ``L_j* = d_j p``
    holds only for Hermitian ``p`` and ``d``: a projection-tagged
    :class:`SampledMap` checks its partials to its tag's tolerance, and the
    grid derivatives of Hermitian values are Hermitian to round-off.
    ``scratch`` holds the conjugates; a caller may also write each jet into
    it, since a jet is consumed into its ``L_i`` before the next is taken.

    Each product stays one ``8 x 8`` block per node, unlike the wide
    products of unitary slices (:class:`_SliceWorkspace`).  A fused fill,
    ``p [d_0 | .. | d_3]`` and ``[L_0; L_1; L_2] [L_1* | L_2* | L_3*]``,
    gave the same bits but took 22.8-28.6 ms per 12^3-node slice against
    16.4-23.5 ms for this one (same runs, 2-vCPU Xeon, one BLAS thread).
    Its two products saved 1.5-3 ms, but copying the jets into the wide
    buffer (2.1 ms), laying ``L`` out by rows (1.1 ms), and subtracting
    the pairs through strided views cost more.
    """

    def __init__(self, shape: tuple[int, ...], n_slots: int, pairs):
        self.values = {ij: np.empty(shape, dtype=complex) for ij in pairs}
        self._left = [np.empty(shape, dtype=complex) for _ in range(n_slots)]
        self.scratch = np.empty(shape, dtype=complex)

    def fill(self, p: np.ndarray, jets: Iterable[np.ndarray]) -> dict[tuple[int, int], np.ndarray]:
        for d, left in zip(jets, self._left, strict=True):
            np.matmul(p, d, out=left)
        conj = self.scratch
        adjoint = np.swapaxes(conj, -1, -2)
        for j in sorted({j for _, j in self.values}):  # each L_j* once, for every pair that reads it
            np.conjugate(self._left[j], out=conj)
            for (i, jj), out in self.values.items():
                if jj == j:
                    np.matmul(self._left[i], adjoint, out=out)
        for out in self.values.values():
            np.conjugate(out, out=conj)
            np.subtract(out, adjoint, out=out)
        return self.values


def ch_odd(f: SampledMap, k: int) -> GradedForm:
    """Degree-(2k-1) odd Chern component of a unitary-tagged map."""
    if f.codomain != "unitary":
        raise ShapeMismatch("ch_odd needs a unitary-tagged map")
    deg = 2 * k - 1
    if deg > f.domain.dim:
        raise DegreeOverflow(f"degree {deg} exceeds domain dimension {f.domain.dim}")
    finv = np.swapaxes(f.values, -1, -2).conj()
    omega = {(i,): finv @ p for i, p in enumerate(differentiate(f))}
    comps = trace_wedge(*[omega] * deg)
    c = chern_scalar("odd", k)
    return GradedForm(f.domain, deg, -k, {idx: c * a for idx, a in comps.items()})


def ch_even(p: SampledMap, k: int) -> GradedForm:
    """Degree-2k even Chern component of a projection-tagged map (k >= 1)."""
    if p.codomain != "projection":
        raise ShapeMismatch("ch_even needs a projection-tagged map")
    if k < 1:
        raise DegreeOverflow("k = 0 is the virtual dimension, not a sampled form")
    deg = 2 * k
    if deg > p.domain.dim:
        raise DegreeOverflow(f"degree {deg} exceeds domain dimension {p.domain.dim}")
    partials = differentiate(p)
    pairs = _CurvaturePairs(p.values.shape, len(partials), itertools.combinations(range(len(partials)), 2))
    comps = trace_wedge(*[pairs.fill(p.values, partials)] * k)
    c = chern_scalar("even", k)
    return GradedForm(p.domain, deg, -k, {idx: c * a for idx, a in comps.items()})


def ch_total(f: SampledMap, k_max: int = DEFAULT_K_MAX) -> list[GradedForm]:
    """All positive-degree components up to the dimension cutoff."""
    if k_max < 1:
        raise DegreeOverflow("k_max must be >= 1")
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


@dataclass(frozen=True)
class Homotopy:
    """A time-indexed family of sampled maps over one spatial grid.

    ``segments`` lists half-open index ranges that tile the time nodes
    ``[0, n_times)`` in order, each covering an odd number of nodes (at
    least 3) with uniform, increasing ``times``, inside which the family is
    smooth.  Concatenated homotopies keep one segment per constituent so
    that time derivatives and Simpson quadrature never straddle the junction.
    ``time_partials`` is the time jet ``d(slice)/dt``, which the homotopy
    always holds: the exact one when a constructor supplies it, otherwise
    4th-order finite differences with one-sided closures, taken once per
    segment at construction, which needs segments of at least 5 nodes.
    ``spatial_partials`` (one array per spatial axis) are exact derivatives
    of the slices, supplied by constructors that know them.  Each jet has
    the shape of ``slices``.  The homotopy takes ownership of the ``slices``
    and ``time_partials`` arrays it is given (they are not copied when
    already contiguous complex) and makes them read-only.  A ``window``, as
    on :class:`SampledMap`, must span the rows of the slices, and only
    homotopies on one window concatenate.
    """

    spatial: DomainGrid
    times: np.ndarray
    slices: np.ndarray  # (n_t, *node_shape, rows, cols)
    codomain: str = "generic"
    segments: tuple[tuple[int, int], ...] = ()
    window: object | None = None
    time_partials: np.ndarray | None = None  # d(slice)/dt; FD4 when not given
    spatial_partials: tuple[np.ndarray, ...] | None = None  # exact d(slice)/dx_i when known

    def __post_init__(self):
        _check_codomain(self.codomain)
        t = np.array(self.times, dtype=float)
        v = np.ascontiguousarray(self.slices, dtype=complex)
        if v.shape[1 : 1 + len(self.spatial.node_shape)] != self.spatial.node_shape:
            raise ShapeMismatch("slice node shape does not match the spatial grid")
        if t.ndim != 1 or t.size != v.shape[0]:
            raise ShapeMismatch("times and slices disagree")
        _check_window(self.window, v.shape[-2])
        segs = tuple((int(a), int(b)) for a, b in self.segments) or ((0, t.size),)
        if [a for a, _ in segs] != [0, *(b for _, b in segs[:-1])] or segs[-1][1] != t.size:
            raise ShapeMismatch(f"homotopy segments {segs} do not tile the {t.size} time nodes in order")
        for a, b in segs:
            if (b - a) < 3 or (b - a) % 2 == 0:
                raise ShapeMismatch("each homotopy segment needs an odd node count >= 3")
            dt = np.diff(t[a:b])
            if dt.min() <= 0.0:
                raise ShapeMismatch("homotopy time nodes must increase within each segment")
            if (dt.max() - dt.min()) > 1e-12 * max(abs(t[b - 1] - t[a]), 1.0):
                raise ShapeMismatch("homotopy time nodes must be uniform per segment")
        object.__setattr__(self, "times", _freeze(t))
        object.__setattr__(self, "slices", _freeze(v))
        object.__setattr__(self, "segments", segs)
        if self.spatial_partials is not None:
            object.__setattr__(
                self,
                "spatial_partials",
                _check_partials(self.spatial_partials, self.spatial.dim, v.shape),
            )
        if self.time_partials is None:
            if min(b - a for a, b in segs) < 5:
                raise ShapeMismatch("a homotopy segment of fewer than 5 nodes needs exact time partials")
            tp = np.empty_like(v)
            for a, b in segs:
                _diff_interval(v[a:b], 0, b - a, float(t[a + 1] - t[a]), tp[a:b])
        else:
            tp = np.ascontiguousarray(self.time_partials, dtype=complex)
            if tp.shape != v.shape:
                raise ShapeMismatch(f"time partials {tp.shape} do not match the slices {v.shape}")
        object.__setattr__(self, "time_partials", _freeze(tp))

    @property
    def n_times(self) -> int:
        return int(self.times.size)

    def slice_map(self, i: int) -> SampledMap:
        partials = None
        if self.spatial_partials is not None:
            partials = tuple(p[i] for p in self.spatial_partials)
        return SampledMap(
            self.spatial,
            self.slices[i],
            codomain=self.codomain,
            window=self.window,
            partials=partials,
        )

    def time_derivative(self) -> np.ndarray:
        """d(slice)/dt at every time node: the jet held since construction."""
        return self.time_partials

    def _mapped(self, fn, axes=None, time_sign=1, **fields) -> "Homotopy":
        """The homotopy whose slices, time jet (times ``time_sign``) and
        spatial jets along ``axes`` (all of them by default) are ``fn`` of
        this one's, with the other ``fields`` replaced."""
        sp = self.spatial_partials
        if sp is not None:
            sp = tuple(fn(sp[a]) for a in (range(len(sp)) if axes is None else axes))
        tp = fn(self.time_partials)
        return replace(
            self, slices=fn(self.slices), time_partials=-tp if time_sign < 0 else tp, spatial_partials=sp, **fields
        )

    def restrict(self, axes: Sequence[int]) -> "Homotopy":
        """The homotopy on the sub-grid spanned by the spatial ``axes``, every
        other spatial axis pinned at node 0 (the pin of
        :func:`geomgrid.cycle_integral`)."""
        sub, pin = sub_grid(self.spatial, axes)
        return self._mapped(lambda a: a[(slice(None), *pin)], spatial=sub, axes=sorted(axes))

    def reversed(self) -> "Homotopy":
        n, t = self.n_times, self.times
        return self._mapped(
            lambda a: a[::-1],
            times=t[-1] - t[::-1] + t[0],
            segments=tuple((n - b, n - a) for a, b in reversed(self.segments)),
            time_sign=-1,
        )

    def adjoint(self) -> "Homotopy":
        return self._mapped(lambda a: np.swapaxes(a, -1, -2).conj())

    @staticmethod
    def concatenate(first: "Homotopy", second: "Homotopy", tol: float = 1e-10) -> "Homotopy":
        if (first.spatial, first.codomain, first.window) != (second.spatial, second.codomain, second.window):
            raise ShapeMismatch("cannot concatenate homotopies on different grids, tags or windows")
        junction = float(np.abs(first.slices[-1] - second.slices[0]).max())
        if junction >= tol:
            raise NotALoop(f"junction slices differ by {junction:.3e}")
        shift = first.times[-1] - second.times[0]
        n1 = first.n_times
        sp = None
        if first.spatial_partials is not None and second.spatial_partials is not None:
            sp = tuple(
                np.concatenate([a, b])
                for a, b in zip(first.spatial_partials, second.spatial_partials)
            )
        return Homotopy(
            first.spatial,
            np.concatenate([first.times, second.times + shift]),
            np.concatenate([first.slices, second.slices]),
            codomain=first.codomain,
            segments=first.segments + tuple((a + n1, b + n1) for a, b in second.segments),
            window=first.window,
            time_partials=np.concatenate([first.time_partials, second.time_partials]),
            spatial_partials=sp,
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
    refilled in place at every time slice; none of them is returned.

    Unitary slices with some ``k > 1`` keep ``df/dt`` and the spatial jets
    side by side in one ``(..., n, (dim + 1) n)`` buffer, so every
    ``alpha_a = f^{-1} d_a f`` comes from one product ``f^{-1} [df/dt | d_1 f
    | ..]``, and the degree-2 heads ``alpha_t omega_i`` from a second one,
    ``alpha_t [omega_1 | ..]``.  On the 4 x 4 slices of the odd inversion
    homotopies one such product takes about 0.4 of the time of its blocks
    multiplied one at a time, with the same bits (OpenBLAS, one thread;
    2 x 2 blocks can differ in the last bit).  The degree ``2k - 2`` of a
    unitary CS form is at most ``dim <= 3``, so ``k <= 2``, and these two
    products are all of a slice.  Grid jets are written into their blocks,
    exact ones copied there.
    """

    def __init__(self, H: Homotopy, ks: Sequence[int]):
        shape = H.slices.shape[1:]
        dim = H.spatial.dim
        self.ks = ks
        self.unitary = H.codomain == "unitary"
        if self.unitary:
            self.conj = np.empty(shape, dtype=complex)
            if ks[-1] > 1:  # CS_0 of unitary slices, tr(alpha_t), needs no spatial jets
                self.n = n = shape[-1]
                self.wide = np.empty((*shape[:-1], (dim + 1) * n), dtype=complex)
                self.alpha = np.empty_like(self.wide)
                self.heads = np.empty((*shape[:-1], dim * n), dtype=complex)
        else:
            # slot 0 is t: the (0, i) pairs are iota_t Omega, the others Omega
            pairs = itertools.combinations(range(dim + 1), 2) if ks[-1] > 1 else ((0, i) for i in range(1, dim + 1))
            self.pairs = _CurvaturePairs(shape, dim + 1, pairs)

    def _blocks(self, x: np.ndarray) -> list[np.ndarray]:
        """The ``n``-column blocks of a wide unitary buffer, as views."""
        return [x[..., a : a + self.n] for a in range(0, x.shape[-1], self.n)]

    def jet_buffer(self, i: int) -> np.ndarray:
        """Where the grid jet along spatial axis ``i`` is written."""
        return self._blocks(self.wide)[i + 1] if self.unitary else self.pairs.scratch

    def integrands(
        self, v: np.ndarray, dv_dt: np.ndarray, jets: Iterable[np.ndarray]
    ) -> dict[int, dict[tuple[int, ...], np.ndarray]]:
        """Components of the contracted CS integrand of every degree at one
        slice ``v`` with time derivative ``dv_dt`` and spatial ``jets``,
        before the ``t`` quadrature and the normalization.  The jets are
        taken one at a time, each consumed before the next."""
        if self.unitary:
            finv = np.swapaxes(np.conjugate(v, out=self.conj), -1, -2)
            # tr(alpha_t) as the trace pairing of f^{-1} with df/dt
            out = {1: trace_wedge({(): finv}, {(): dv_dt})}
            if self.ks[-1] > 1:
                for x, block in zip(itertools.chain((dv_dt,), jets), self._blocks(self.wide), strict=True):
                    if not np.may_share_memory(x, block):  # grid jets are already in place
                        block[...] = x
                alpha_t, *alpha = self._blocks(np.matmul(finv, self.wide, out=self.alpha))
                heads = self._blocks(np.matmul(alpha_t, self.alpha[..., self.n :], out=self.heads))
                # alpha_t ^ omega, the first wedge of every alpha_t ^ omega^(2k-2)
                head = {(i,): x for i, x in enumerate(heads)}
                omega = {(i,): a for i, a in enumerate(alpha)}
                out.update({k: trace_wedge(head, *[omega] * (2 * k - 3)) for k in self.ks[1:]})
            return out
        space_time = self.pairs.fill(v, itertools.chain((dv_dt,), jets))
        iota = {(i - 1,): x for (t, i), x in space_time.items() if t == 0}
        curvature = {(i - 1, j - 1): x for (i, j), x in space_time.items() if i > 0}
        return {k: trace_wedge(iota, *[curvature] * (k - 1)) for k in self.ks}


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

    Each slice's spatial jets, ``alpha_t`` or ``iota_t Omega`` and curvature
    pairs are built once and shared by every degree.  A projection pair is
    formed as ``p (d_i d_j - d_j d_i) p`` from the products ``L_i = p d_i``
    (:class:`_CurvaturePairs`), which has the traces of ``p [d_i, d_j]``; it
    reads the slices, their time jets and the spatial jets of ``H`` as
    Hermitian, as the projection homotopies of :mod:`kops` build them.
    Every full-grid array of the pass lives in one workspace, allocated once
    per call and refilled in place at every slice (:class:`_SliceWorkspace`).
    On unitary slices ``df/dt`` and the spatial jets sit side by side in one
    wide buffer, grid jets written straight into their blocks, and two
    stacked products give every ``alpha_a = f^{-1} d_a f`` and every head
    ``alpha_t omega_i``; a unitary form has degree ``2k - 2 <= dim <= 3``,
    so ``k <= 2`` and nothing more is multiplied.  On projection slices the
    grid jets are taken one at a time into the pairs' conjugate scratch,
    each consumed into ``L_i`` before the next.  ``CS_0`` of unitary slices
    is the trace pairing ``sum_ki conj(f)_ki (df/dt)_ki``, so it needs no
    spatial jets and no ``alpha_t``; those are formed only when some
    ``k > 1`` is asked for, the curvature pairs of projection slices only
    when ``k_max > 1``.  Quadrature in ``t`` is composite Simpson, applied
    per segment.
    """
    spatial = H.spatial
    dim = spatial.dim
    ks = [k for k in range(1, k_max + 1) if _cs_degree(H.codomain, k) <= dim]
    if not ks:
        return {}

    dt_slices = H.time_derivative()
    weights = np.empty(H.n_times)
    for a, b in H.segments:
        weights[a:b] = _simpson_weights(b - a, float(H.times[a + 1] - H.times[a]))

    ws = _SliceWorkspace(H, ks)
    acc: dict[int, dict[tuple[int, ...], np.ndarray]] = {k: {} for k in ks}
    for it, wt in enumerate(weights):
        v = H.slices[it]
        if H.spatial_partials is not None:
            jets = (p[it] for p in H.spatial_partials)
        else:
            jets = (_diff_along(spatial, v, i, ws.jet_buffer(i)) for i in range(dim))
        for k, comps in ws.integrands(v, dt_slices[it], jets).items():
            for idx, val in comps.items():
                acc[k][idx] = acc[k][idx] + wt * val if idx in acc[k] else wt * val
    out = {}
    for k in ks:
        if H.codomain == "unitary":
            c = chern_scalar("odd", k) * (2 * k - 1)
        else:
            c = chern_scalar("even", k) * k
        out[k] = GradedForm(spatial, _cs_degree(H.codomain, k), -k, {idx: c * a for idx, a in acc[k].items()})
    return out


def cs_form(H: Homotopy, k: int) -> GradedForm:
    """The k-th component of :func:`cs_forms`; DegreeOverflow past the
    dimension cutoff."""
    forms = cs_forms(H, k)
    if k not in forms:
        raise DegreeOverflow(f"no CS component k = {k} on a {H.spatial.dim}-dimensional domain")
    return forms[k]


def cs_exact(H: Homotopy, k_max: int = DEFAULT_K_MAX, tol: float = 1e-6) -> dict:
    """Exactness verdict for every CS component up to the dimension cutoff.

    The residuals are those of :func:`geomgrid.exactness_residual` of the
    full-grid forms.  A cycle integral of ``CS(H)`` is the integral of ``CS``
    of ``H`` restricted to the cycle, since transgression forms are natural
    under pullback, so each positive degree is computed only on the
    sub-grids of its generating cycles; degree 0 (``CS_0`` of unitary
    slices, which needs no spatial jets) is its sup norm on the full grid.
    """
    dim = H.spatial.dim
    residuals: dict[int, float] = {}
    for k in range(1, k_max + 1):
        deg = _cs_degree(H.codomain, k)
        if deg > dim:
            break
        if deg == 0:
            residuals[deg] = cs_forms(H, 1)[1].sup_norm()
            continue
        residuals[deg] = max(
            (
                abs(integrate(cs_forms(H if len(c) == dim else H.restrict(c), k)[k]))
                for c in generating_cycles(H.spatial, deg)
            ),
            default=0.0,
        )
    verdict = all(r < tol for r in residuals.values())
    return {"residuals": residuals, "verdict": verdict, "tolerance": tol}
