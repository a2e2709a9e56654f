"""Pullbacks of the universal Chern character forms and their transgressions.

The odd family is built from traces of odd powers of the logarithmic
derivative ``omega = f^{-1} df`` of a unitary map; the even family from traces
of powers of the curvature-type 2-form ``Omega(u, v) = p [d_u p, d_v p]`` of a
projection map.  A homotopy contributes the fiber-``t`` integral of the
contraction of its pulled-back form, which lowers the degree by one.

Wedge conventions (fixed once, tests depend on them):

* power of a 1-form:  ``tr(a^m)(v_1..v_m) = sum_s sgn(s) tr[a(v_s1)..a(v_sm)]``
  with no ``1/m!``;
* power of a 2-form:  the same alternating sum over ``2k`` slots with a
  ``1/2^k`` prefactor, pairing consecutive slots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    ArityTooLarge,
    DegreeOverflow,
    NotALoop,
    ShapeMismatch,
)
from .geomgrid import (
    DomainGrid,
    GradedForm,
    JetField,
    SampledMap,
    _diff_interval,
    differentiate,
    exactness_residual,
    generating_cycles,
)

__all__ = [
    "chern_scalar",
    "wedge_trace_power",
    "antisym_trace_power",
    "mixed_trace_power",
    "ch_odd",
    "ch_even",
    "ch_total",
    "Homotopy",
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


@lru_cache(maxsize=None)
def _signed_permutations(m: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    out = []
    for perm in itertools.permutations(range(m)):
        sgn = 1
        seen = [False] * m
        for i in range(m):
            if seen[i]:
                continue
            j, clen = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                clen += 1
            if clen % 2 == 0:
                sgn = -sgn
        out.append((sgn, perm))
    return tuple(out)


def antisym_trace_power(slots: Sequence[np.ndarray]) -> np.ndarray:
    """``sum_s sgn(s) tr[slots[s(1)] @ ... @ slots[s(m)]]`` over stacked nodes."""
    m = len(slots)
    shape = slots[0].shape[:-2]
    out = np.zeros(shape, dtype=complex)
    for sgn, perm in _signed_permutations(m):
        prod = slots[perm[0]]
        for i in perm[1:]:
            prod = prod @ slots[i]
        out += sgn * np.trace(prod, axis1=-2, axis2=-1)
    return out


def mixed_trace_power(
    one_vals: dict[int, np.ndarray],
    pair_vals: dict[tuple[int, int], np.ndarray],
    slots: Sequence[int],
) -> np.ndarray:
    """Alternating trace ``tr(a ^ F^(k-1))`` of one 1-form and 2-form powers.

    ``slots`` lists ``2k - 1`` tangent directions.  In each permutation the
    first slot feeds the 1-form ``a`` (values in ``one_vals``), the rest are
    consumed pairwise by the 2-form ``F`` (values in ``pair_vals`` for
    increasing index pairs; antisymmetry fills the rest).  Carries the
    ``1/2^(k-1)`` pair normalization.
    """
    m = len(slots)
    if m % 2 == 0:
        raise ShapeMismatch("need an odd slot count: one 1-form plus 2-form pairs")
    n_two = (m - 1) // 2

    def pv(i: int, j: int) -> np.ndarray:
        return pair_vals[(i, j)] if i < j else -pair_vals[(j, i)]

    sample = next(iter(one_vals.values()))
    out = np.zeros(sample.shape[:-2], dtype=complex)
    for sgn, perm in _signed_permutations(m):
        chosen = [slots[p] for p in perm]
        prod = one_vals[chosen[0]]
        for b in range(n_two):
            prod = prod @ pv(chosen[1 + 2 * b], chosen[2 + 2 * b])
        out += sgn * np.trace(prod, axis1=-2, axis2=-1)
    return out / (2.0**n_two)


def wedge_trace_power(jets: Sequence[np.ndarray], arity: int) -> dict[tuple[int, ...], np.ndarray]:
    """Antisymmetrized trace of the ``arity``-th power of a 1-form.

    ``jets[i]`` is the operator value of the 1-form on axis direction ``i``
    (stacked over nodes); the result maps each strictly increasing multi-index
    to the scalar component array.
    """
    n_axes = len(jets)
    if arity > n_axes:
        raise ArityTooLarge(f"arity {arity} exceeds the {n_axes} available directions")
    comps: dict[tuple[int, ...], np.ndarray] = {}
    for idx in itertools.combinations(range(n_axes), arity):
        comps[idx] = antisym_trace_power([jets[i] for i in idx])
    return comps


def two_form_trace_power(pairs: dict[tuple[int, int], np.ndarray], n_axes: int, k: int) -> dict[tuple[int, ...], np.ndarray]:
    """Components of ``(1/2^k) tr(Omega^k)`` from pair values ``Omega(e_i, e_j)``."""
    if 2 * k > n_axes:
        raise ArityTooLarge(f"2k = {2 * k} exceeds the {n_axes} available directions")

    def pv(i: int, j: int) -> np.ndarray:
        return pairs[(i, j)] if i < j else -pairs[(j, i)]

    comps: dict[tuple[int, ...], np.ndarray] = {}
    for idx in itertools.combinations(range(n_axes), 2 * k):
        sample = next(iter(pairs.values()))
        acc = np.zeros(sample.shape[:-2], dtype=complex)
        for sgn, perm in _signed_permutations(2 * k):
            chosen = [idx[p] for p in perm]
            prod = pv(chosen[0], chosen[1])
            for b in range(1, k):
                prod = prod @ pv(chosen[2 * b], chosen[2 * b + 1])
            acc += sgn * np.trace(prod, axis1=-2, axis2=-1)
        comps[idx] = acc / (2.0**k)
    return comps


def _mc_jets(f: SampledMap, jets: JetField | None = None) -> list[np.ndarray]:
    """Logarithmic-derivative slot values ``f^{-1} d_i f`` per axis."""
    if jets is None:
        jets = differentiate(f)
    finv = np.swapaxes(f.values, -1, -2).conj()
    return [finv @ p for p in jets.partials]


def _curvature_pairs(p: SampledMap, jets: JetField | None = None) -> dict[tuple[int, int], np.ndarray]:
    """Pair values ``p (d_i p d_j p - d_j p d_i p)`` per increasing (i, j)."""
    if jets is None:
        jets = differentiate(p)
    d = jets.partials
    pairs = {}
    for i, j in itertools.combinations(range(len(d)), 2):
        pairs[(i, j)] = p.values @ (d[i] @ d[j] - d[j] @ d[i])
    return pairs


def ch_odd(f: SampledMap, k: int, jets: JetField | None = None) -> GradedForm:
    """Degree-(2k-1) odd Chern component of a unitary-tagged map."""
    if f.codomain != "unitary":
        raise ShapeMismatch("ch_odd needs a unitary-tagged map")
    deg = 2 * k - 1
    if deg > f.domain.dim:
        raise DegreeOverflow(f"degree {deg} exceeds domain dimension {f.domain.dim}")
    alpha = _mc_jets(f, jets)
    comps = wedge_trace_power(alpha, deg)
    c = chern_scalar("odd", k)
    return GradedForm(f.domain, deg, -k, {idx: c * a for idx, a in comps.items()})


def ch_even(p: SampledMap, k: int, jets: JetField | None = None) -> GradedForm:
    """Degree-2k even Chern component of a projection-tagged map (k >= 1)."""
    if p.codomain != "projection":
        raise ShapeMismatch("ch_even needs a projection-tagged map")
    if k < 1:
        raise DegreeOverflow("k = 0 is the virtual dimension, not a sampled form")
    deg = 2 * k
    if deg > p.domain.dim:
        raise DegreeOverflow(f"degree {deg} exceeds domain dimension {p.domain.dim}")
    pairs = _curvature_pairs(p, jets)
    comps = two_form_trace_power(pairs, p.domain.dim, k)
    c = chern_scalar("even", k)
    return GradedForm(p.domain, deg, -k, {idx: c * a for idx, a in comps.items()})


def ch_total(f: SampledMap, k_max: int = DEFAULT_K_MAX) -> list[GradedForm]:
    """All positive-degree components up to the dimension cutoff."""
    if k_max < 1:
        raise DegreeOverflow("k_max must be >= 1")
    jets = differentiate(f)
    out: list[GradedForm] = []
    for k in range(1, k_max + 1):
        if f.codomain == "unitary":
            if 2 * k - 1 > f.domain.dim:
                break
            out.append(ch_odd(f, k, jets))
        elif f.codomain == "projection":
            if 2 * k > f.domain.dim:
                break
            out.append(ch_even(f, k, jets))
        else:
            raise ShapeMismatch("ch_total needs a unitary- or projection-tagged map")
    return out


# ---------------------------------------------------------------------------
# homotopies


def _simpson_weights(n: int, h: float) -> np.ndarray:
    w = np.empty(n)
    w[0] = w[-1] = 1.0
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


@dataclass(frozen=True)
class Homotopy:
    """A time-indexed family of sampled maps over one spatial grid.

    ``times`` is increasing; ``segments`` lists half-open index ranges, each
    covering an odd number of nodes, inside which the family is smooth.
    Concatenated homotopies keep one segment per constituent so that time
    derivatives and Simpson quadrature never straddle the junction.
    """

    spatial: DomainGrid
    times: np.ndarray
    slices: np.ndarray  # (n_t, *node_shape, rows, cols)
    codomain: str = "generic"
    segments: tuple[tuple[int, int], ...] = ()
    window: object | None = None
    time_partials: np.ndarray | None = None  # exact d(slice)/dt when known

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        v = np.array(self.slices, dtype=complex, order="C")
        if v.shape[1 : 1 + len(self.spatial.node_shape)] != self.spatial.node_shape:
            raise ShapeMismatch("slice node shape does not match the spatial grid")
        if t.ndim != 1 or t.size != v.shape[0]:
            raise ShapeMismatch("times and slices disagree")
        segs = self.segments or ((0, t.size),)
        for a, b in segs:
            if (b - a) < 3 or (b - a) % 2 == 0:
                raise ShapeMismatch("each homotopy segment needs an odd node count >= 3")
            dt = np.diff(t[a:b])
            if dt.size and (dt.max() - dt.min()) > 1e-12 * max(abs(t[b - 1] - t[a]), 1.0):
                raise ShapeMismatch("homotopy time nodes must be uniform per segment")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "slices", v)
        object.__setattr__(self, "segments", tuple(segs))
        v.flags.writeable = False
        t.flags.writeable = False
        if self.time_partials is not None:
            tp = np.array(self.time_partials, dtype=complex, order="C")
            if tp.shape != v.shape:
                raise ShapeMismatch("time partials do not match the slices")
            tp.flags.writeable = False
            object.__setattr__(self, "time_partials", tp)

    @property
    def n_times(self) -> int:
        return int(self.times.size)

    def slice_map(self, i: int) -> SampledMap:
        return SampledMap(self.spatial, self.slices[i], codomain=self.codomain, window=self.window)

    def time_derivative(self) -> np.ndarray:
        """d(slice)/dt at every time node.

        Uses the exact partials when the constructor supplied them (the
        canonical rotation homotopies do), 4th-order finite differences with
        one-sided segment closures otherwise.
        """
        if self.time_partials is not None:
            return self.time_partials
        out = np.empty_like(self.slices)
        for a, b in self.segments:
            h = float(self.times[a + 1] - self.times[a])
            out[a:b] = _diff_interval(self.slices[a:b], 0, b - a, h)
        return out

    def endpoint_defect(self) -> float:
        return float(np.abs(self.slices[0] - self.slices[-1]).max())

    def reversed(self) -> "Homotopy":
        segs = []
        n = self.n_times
        for a, b in reversed(self.segments):
            segs.append((n - b, n - a))
        tp = None if self.time_partials is None else -self.time_partials[::-1]
        return Homotopy(
            self.spatial,
            self.times[-1] - self.times[::-1] + self.times[0],
            self.slices[::-1],
            codomain=self.codomain,
            segments=tuple(segs),
            window=self.window,
            time_partials=tp,
        )

    def adjoint(self) -> "Homotopy":
        tp = None if self.time_partials is None else np.swapaxes(self.time_partials, -1, -2).conj()
        return Homotopy(
            self.spatial,
            self.times,
            np.swapaxes(self.slices, -1, -2).conj(),
            codomain=self.codomain,
            segments=self.segments,
            window=self.window,
            time_partials=tp,
        )

    @staticmethod
    def concatenate(first: "Homotopy", second: "Homotopy", tol: float = 1e-10) -> "Homotopy":
        if first.spatial != second.spatial or first.codomain != second.codomain:
            raise ShapeMismatch("cannot concatenate homotopies on different grids or tags")
        junction = float(np.abs(first.slices[-1] - second.slices[0]).max())
        if junction >= tol:
            raise NotALoop(f"junction slices differ by {junction:.3e}")
        shift = first.times[-1] - second.times[0]
        times = np.concatenate([first.times, second.times + shift])
        slices = np.concatenate([first.slices, second.slices])
        n1 = first.n_times
        segs = list(first.segments) + [(a + n1, b + n1) for a, b in second.segments]
        tp = None
        if first.time_partials is not None and second.time_partials is not None:
            tp = np.concatenate([first.time_partials, second.time_partials])
        return Homotopy(
            first.spatial,
            times,
            slices,
            codomain=first.codomain,
            segments=tuple(segs),
            window=first.window,
            time_partials=tp,
        )


def cs_form(H: Homotopy, k: int) -> GradedForm:
    """Fiber-``t`` integral of the contracted pullback of the k-th component.

    Unitary slices produce a degree-(2k-2) form; projection slices produce a
    degree-(2k-1) form.  Quadrature in ``t`` is composite Simpson, applied
    per segment.
    """
    spatial = H.spatial
    dim = spatial.dim
    if H.codomain == "unitary":
        deg = 2 * k - 2
    elif H.codomain == "projection":
        deg = 2 * k - 1
    else:
        raise ShapeMismatch("cs_form needs unitary or projection slices")
    if deg > dim:
        raise DegreeOverflow(f"CS degree {deg} exceeds domain dimension {dim}")

    dt_slices = H.time_derivative()
    n_t = H.n_times
    comps = {
        idx: np.zeros((n_t, *spatial.node_shape), dtype=complex)
        for idx in itertools.combinations(range(dim), deg)
    }

    for it in range(n_t):
        sl = H.slice_map(it)
        jets = differentiate(sl)
        if H.codomain == "unitary":
            finv = np.swapaxes(sl.values, -1, -2).conj()
            alpha = [finv @ p for p in jets.partials]
            alpha_t = finv @ dt_slices[it]
            for idx in comps:
                comps[idx][it] = antisym_trace_power([alpha_t] + [alpha[i] for i in idx])
        else:
            d = list(jets.partials)
            dpt = dt_slices[it]
            pv = sl.values
            pair_t = {i: pv @ (dpt @ d[i] - d[i] @ dpt) for i in range(dim)}
            pair_s = {
                (i, j): pv @ (d[i] @ d[j] - d[j] @ d[i])
                for i, j in itertools.combinations(range(dim), 2)
            }
            for idx in comps:
                comps[idx][it] = _contracted_two_form_power(pair_t, pair_s, idx, k)

    c = chern_scalar("odd" if H.codomain == "unitary" else "even", k)
    out: dict[tuple[int, ...], np.ndarray] = {}
    for idx, arr in comps.items():
        acc = np.zeros(spatial.node_shape, dtype=complex)
        for a, b in H.segments:
            h = float(H.times[a + 1] - H.times[a])
            w = _simpson_weights(b - a, h)
            acc += np.tensordot(w, arr[a:b], axes=(0, 0))
        out[idx] = c * acc
    return GradedForm(spatial, deg, -k, out)


def _contracted_two_form_power(pair_t, pair_s, idx: tuple[int, ...], k: int) -> np.ndarray:
    """``iota_t tr(Omega^k)`` component on spatial directions ``idx``.

    Slot 0 is the time direction; slots 1..2k-1 are the spatial axes in
    ``idx``.  Pair values involving the time slot come from ``pair_t``.
    """
    m = 2 * k
    slots = (-1,) + idx  # -1 marks the time direction

    def pv(i: int, j: int) -> np.ndarray:
        if i == -1:
            return pair_t[j]
        if j == -1:
            return -pair_t[i]
        return pair_s[(i, j)] if i < j else -pair_s[(j, i)]

    sample = next(iter(pair_t.values()))
    acc = np.zeros(sample.shape[:-2], dtype=complex)
    for sgn, perm in _signed_permutations(m):
        chosen = [slots[p] for p in perm]
        prod = pv(chosen[0], chosen[1])
        for b in range(1, k):
            prod = prod @ pv(chosen[2 * b], chosen[2 * b + 1])
        acc += sgn * np.trace(prod, axis1=-2, axis2=-1)
    return acc / (2.0**k)


def cs_exact(H: Homotopy, k_max: int = DEFAULT_K_MAX, tol: float = 1e-6) -> dict:
    """Exactness verdict for every CS component up to the dimension cutoff."""
    residuals: dict[int, float] = {}
    for k in range(1, k_max + 1):
        deg = 2 * k - 2 if H.codomain == "unitary" else 2 * k - 1
        if deg > H.spatial.dim:
            break
        form = cs_form(H, k)
        residuals[deg] = exactness_residual(form, generating_cycles(H.spatial, deg))
    verdict = all(r < tol for r in residuals.values())
    return {"residuals": residuals, "verdict": verdict, "tolerance": tol}
