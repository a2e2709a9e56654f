"""Sample domains, derivative jets of sampled maps, and quadrature of forms.

Domains are uniform grids: periodic axes carry trapezoid quadrature, interval
axes composite Simpson.  Derivative jets are the map's own exact partials when
it carries them (builders that know the map in closed form supply them, and
the operations that make one map from another carry them on); otherwise they
are taken on the grid, spectrally (FFT) on periodic axes and by 4th-order
finite differences on interval axes.  ``cp1_charts`` is the one multi-chart
domain: two closed unit-disk charts in polar coordinates glued along
``|z| = 1``; sampled values get a leading chart axis of length 2 and all
per-axis machinery acts per chart.

Conventions
-----------
* A :class:`SampledMap` stores one complex matrix per node, shape
  ``(*node_shape, rows, cols)``, and optionally one exact partial derivative
  array of that same shape per domain axis.
* A :class:`GradedForm` of degree p stores one complex scalar per node per
  strictly increasing axis multi-index.
* All quadrature reduces with a fixed pairwise order (`pairwise_sum`), so the
  results do not depend on how work was chunked.
"""

from __future__ import annotations

import io
import itertools
import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import fourier
from .errors import (
    BadResolution,
    DegreeMismatch,
    DegreeOverflow,
    ShapeMismatch,
)
from .numkernel import pairwise_sum

__all__ = [
    "Axis",
    "DomainGrid",
    "SampledMap",
    "GradedForm",
    "Cycle",
    "make_domain",
    "differentiate",
    "integrate",
    "form_derivative",
    "exactness_residual",
    "generating_cycles",
    "cycle_integral",
    "save_sampled_map",
    "load_sampled_map",
]

DOMAIN_KINDS = ("circle", "interval", "torus2", "torus3", "cylinder", "cp1_charts")
_KIND_CODE = {k: i for i, k in enumerate(DOMAIN_KINDS)}

MIN_PERIODIC = 8
MIN_INTERVAL = 9


@dataclass(frozen=True)
class Axis:
    kind: str  # "periodic" | "interval"
    n: int

    @property
    def coords(self) -> np.ndarray:
        if self.kind == "periodic":
            return 2.0 * np.pi * np.arange(self.n) / self.n
        return np.linspace(0.0, 1.0, self.n)

    @property
    def spacing(self) -> float:
        if self.kind == "periodic":
            return 2.0 * np.pi / self.n
        return 1.0 / (self.n - 1)


@dataclass(frozen=True)
class DomainGrid:
    """A uniform sample domain of one of the supported kinds."""

    kind: str
    axes: tuple[Axis, ...]

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def n_charts(self) -> int:
        return 2 if self.kind == "cp1_charts" else 1

    @property
    def node_shape(self) -> tuple[int, ...]:
        shape = tuple(ax.n for ax in self.axes)
        if self.kind == "cp1_charts":
            return (2, *shape)
        return shape

    def __eq__(self, other) -> bool:  # value equality, used by pre-checks
        return (
            isinstance(other, DomainGrid)
            and self.kind == other.kind
            and self.axes == other.axes
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.axes))


def _check_periodic(n: int) -> None:
    if n < MIN_PERIODIC:
        raise BadResolution(f"periodic axis needs >= {MIN_PERIODIC} nodes, got {n}")


def _check_interval(n: int) -> None:
    if n < MIN_INTERVAL or n % 2 == 0:
        raise BadResolution(
            f"interval axis needs an odd node count >= {MIN_INTERVAL}, got {n}"
        )


def make_domain(kind: str, resolutions) -> DomainGrid:
    """Build a :class:`DomainGrid`.

    ``resolutions`` is an int for 1-d kinds and a sequence otherwise; for
    ``cp1_charts`` it is ``(n_radial, n_angular)`` shared by both charts.
    """
    if kind not in DOMAIN_KINDS:
        raise BadResolution(f"unknown domain kind {kind!r}")
    if isinstance(resolutions, (int, np.integer)):
        res = (int(resolutions),)
    else:
        res = tuple(int(r) for r in resolutions)

    if kind == "circle":
        (n,) = res
        _check_periodic(n)
        axes = (Axis("periodic", n),)
    elif kind == "interval":
        (n,) = res
        _check_interval(n)
        axes = (Axis("interval", n),)
    elif kind == "torus2":
        if len(res) != 2:
            raise BadResolution("torus2 needs two resolutions")
        for n in res:
            _check_periodic(n)
        axes = tuple(Axis("periodic", n) for n in res)
    elif kind == "torus3":
        if len(res) != 3:
            raise BadResolution("torus3 needs three resolutions")
        for n in res:
            _check_periodic(n)
        axes = tuple(Axis("periodic", n) for n in res)
    elif kind == "cylinder":
        if len(res) != 2:
            raise BadResolution("cylinder needs (interval, circle) resolutions")
        _check_interval(res[0])
        _check_periodic(res[1])
        axes = (Axis("interval", res[0]), Axis("periodic", res[1]))
    else:  # cp1_charts
        if len(res) != 2:
            raise BadResolution("cp1_charts needs (radial, angular) resolutions")
        _check_interval(res[0])
        _check_periodic(res[1])
        axes = (Axis("interval", res[0]), Axis("periodic", res[1]))
    return DomainGrid(kind=kind, axes=axes)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SampledMap:
    """A grid-sampled matrix-valued map with an optional codomain tag.

    ``values`` has shape ``(*domain.node_shape, rows, cols)``.  ``window`` is
    an optional polarized-window descriptor attached by the operator-level
    modules; this module treats it as opaque.  ``partials``, when given, holds
    the exact derivative of the map along each domain axis, one array of the
    shape of ``values`` per axis; :func:`differentiate` returns it instead of
    grid derivatives.  The map takes ownership of the ``values`` and
    ``partials`` arrays it is given (they are not copied when already
    contiguous complex) and makes them read-only.
    """

    domain: DomainGrid
    values: np.ndarray
    codomain: str = "generic"  # unitary | projection | frame | generic
    window: object | None = None
    partials: tuple[np.ndarray, ...] | None = None  # exact d(values)/dx_i when known

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=complex)
        expected = self.domain.node_shape
        if v.shape[: len(expected)] != expected or v.ndim != len(expected) + 2:
            raise ShapeMismatch(
                f"values shape {v.shape} does not match node shape {expected} + (rows, cols)"
            )
        object.__setattr__(self, "values", _freeze(v))
        if self.partials is not None:
            object.__setattr__(
                self, "partials", _check_partials(self.partials, self.domain.dim, v.shape)
            )
        self._validate_tag()

    def _validate_tag(self, tol: float = 1e-8) -> None:
        v = self.values
        if self.codomain == "unitary":
            if v.shape[-1] != v.shape[-2]:
                raise ShapeMismatch("unitary values must be square")
            eye = np.eye(v.shape[-1])
            err = np.abs(np.swapaxes(v, -1, -2).conj() @ v - eye).max()
            if err >= tol:
                raise ShapeMismatch(f"unitary tag violated: max node defect {err:.3e}")
        elif self.codomain == "projection":
            if v.shape[-1] != v.shape[-2]:
                raise ShapeMismatch("projection values must be square")
            idem = np.abs(v @ v - v).max()
            herm = np.abs(v - np.swapaxes(v, -1, -2).conj()).max()
            if max(idem, herm) >= tol:
                raise ShapeMismatch(
                    f"projection tag violated: idempotency {idem:.3e}, hermiticity {herm:.3e}"
                )

    @property
    def rows(self) -> int:
        return self.values.shape[-2]

    @property
    def cols(self) -> int:
        return self.values.shape[-1]

    def adjoint(self) -> "SampledMap":
        partials = None
        if self.partials is not None:
            partials = tuple(np.swapaxes(p, -1, -2).conj() for p in self.partials)
        return SampledMap(
            self.domain,
            np.swapaxes(self.values, -1, -2).conj(),
            codomain=self.codomain,
            window=self.window,
            partials=partials,
        )


def _check_partials(partials, n_axes: int, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """One exact partial per axis, each of ``shape``, contiguous complex and
    frozen; arrays that already are contiguous complex are kept, not copied.

    Raises ShapeMismatch naming the expected shape when the count or a shape
    is wrong.
    """
    parts = tuple(np.ascontiguousarray(p, dtype=complex) for p in partials)
    if len(parts) != n_axes or any(p.shape != shape for p in parts):
        got = [p.shape for p in parts]
        raise ShapeMismatch(f"partials {got} do not match {n_axes} x {shape}")
    return tuple(_freeze(p) for p in parts)


@dataclass(frozen=True)
class GradedForm:
    """Sampled differential-form component set with a u-grading.

    ``comps`` maps each strictly increasing axis multi-index (a tuple of axis
    positions; ``()`` for degree 0) to a complex scalar array over the nodes.
    """

    domain: DomainGrid
    form_degree: int
    u_power: int
    comps: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.form_degree > self.domain.dim:
            raise DegreeOverflow(
                f"form degree {self.form_degree} exceeds domain dimension {self.domain.dim}"
            )
        clean = {}
        for idx, arr in self.comps.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != self.form_degree or list(idx) != sorted(set(idx)):
                raise DegreeMismatch(f"multi-index {idx} is not strictly increasing of length {self.form_degree}")
            a = np.array(arr, dtype=complex, order="C")
            if a.shape != self.domain.node_shape:
                raise ShapeMismatch(f"component {idx} has shape {a.shape}, want {self.domain.node_shape}")
            clean[idx] = _freeze(a)
        object.__setattr__(self, "comps", clean)

    @staticmethod
    def zero(domain: DomainGrid, degree: int, u_power: int) -> "GradedForm":
        comps = {
            idx: np.zeros(domain.node_shape, dtype=complex)
            for idx in itertools.combinations(range(domain.dim), degree)
        }
        return GradedForm(domain, degree, u_power, comps)

    def component(self, idx: tuple[int, ...]) -> np.ndarray:
        key = tuple(idx)
        if key in self.comps:
            return self.comps[key]
        return np.zeros(self.domain.node_shape, dtype=complex)

    def sup_norm(self) -> float:
        if not self.comps:
            return 0.0
        return max(float(np.abs(a).max()) for a in self.comps.values())

    def __add__(self, other: "GradedForm") -> "GradedForm":
        self._compat(other)
        keys = set(self.comps) | set(other.comps)
        return GradedForm(
            self.domain,
            self.form_degree,
            self.u_power,
            {k: self.component(k) + other.component(k) for k in keys},
        )

    def __sub__(self, other: "GradedForm") -> "GradedForm":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "GradedForm":
        return GradedForm(
            self.domain,
            self.form_degree,
            self.u_power,
            {k: c * a for k, a in self.comps.items()},
        )

    def _compat(self, other: "GradedForm") -> None:
        if self.domain != other.domain or self.form_degree != other.form_degree:
            raise DegreeMismatch("forms live on different domains or degrees")

    def report(self, cycles: "Sequence[Cycle] | None" = None) -> dict:
        """JSON-ready summary: degree, u-power, cycle integrals, sup norm."""
        if cycles is None:
            cycles = generating_cycles(self.domain, self.form_degree)
        ints = [cycle_integral(self, c) for c in cycles]
        return {
            "degree": self.form_degree,
            "u_power": self.u_power,
            "cycle_integrals": [[z.real, z.imag] for z in ints],
            "sup_norm": self.sup_norm(),
            "residuals": [abs(z) for z in ints],
        }


# ---------------------------------------------------------------------------
# derivatives


_INTERVAL_EDGE = np.array(
    [
        [-25.0, 48.0, -36.0, 16.0, -3.0],
        [-3.0, -10.0, 18.0, -6.0, 1.0],
    ]
) / 12.0


def _diff_interval(values: np.ndarray, axis: int, n: int, h: float) -> np.ndarray:
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    # 4th-order central stencil in the interior
    out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / 12.0
    # one-sided 4th-order closures at each end
    for r in range(2):
        out[r] = sum(_INTERVAL_EDGE[r, j] * v[j] for j in range(5))
        out[n - 1 - r] = -sum(_INTERVAL_EDGE[r, j] * v[n - 1 - j] for j in range(5))
    out /= h
    return np.moveaxis(out, 0, axis)


def _diff_along(domain: DomainGrid, values: np.ndarray, axis: int) -> np.ndarray:
    """Derivative of node data along a domain axis (chart axis untouched)."""
    ax = domain.axes[axis]
    arr_axis = axis + (1 if domain.kind == "cp1_charts" else 0)
    if ax.kind == "periodic":
        return fourier.derivative(values, arr_axis)
    return _diff_interval(values, arr_axis, ax.n, ax.spacing)


def differentiate(f: SampledMap) -> tuple[np.ndarray, ...]:
    """Per-axis derivative jets of ``f``, one array of the shape of its values
    per domain axis.

    The map's exact ``partials`` when it carries them; otherwise grid
    derivatives, spectral on periodic axes and FD4 on intervals.
    """
    if f.partials is not None:
        return f.partials
    return tuple(_diff_along(f.domain, f.values, i) for i in range(f.domain.dim))


def form_derivative(omega: GradedForm) -> GradedForm:
    """Exterior derivative by componentwise grid differentiation."""
    domain = omega.domain
    p = omega.form_degree
    if p >= domain.dim:
        raise DegreeOverflow("cannot raise degree beyond the domain dimension")
    comps: dict[tuple[int, ...], np.ndarray] = {}
    for idx in itertools.combinations(range(domain.dim), p + 1):
        acc = np.zeros(domain.node_shape, dtype=complex)
        for pos, ax in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1 :]
            comp = omega.component(rest)
            acc += (-1.0) ** pos * _diff_along(domain, comp, ax)
        comps[idx] = acc
    return GradedForm(domain, p + 1, omega.u_power, comps)


# ---------------------------------------------------------------------------
# quadrature


def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights on ``n`` (odd) uniform nodes of spacing ``h``."""
    w = np.empty(n)
    w[0] = w[-1] = 1.0
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _grid_quadrature(values: np.ndarray, axes: Sequence[Axis]) -> complex:
    total = np.asarray(values, dtype=complex)
    for i, ax in enumerate(axes):
        shape = [1] * total.ndim
        shape[i] = ax.n
        if ax.kind == "periodic":
            w = np.full(ax.n, ax.spacing)
        else:
            w = _simpson_weights(ax.n, ax.spacing)
        total = total * w.reshape(shape)
    return pairwise_sum(total)


def integrate(omega: GradedForm, domain: DomainGrid | None = None) -> complex:
    """Integral of a top-degree form over its (closed or chart-split) domain."""
    if domain is not None and domain != omega.domain:
        raise DegreeMismatch("form and domain grids differ")
    domain = omega.domain
    if omega.form_degree != domain.dim:
        raise DegreeMismatch(
            f"integrate needs a top-degree form: degree {omega.form_degree} on a "
            f"{domain.dim}-dimensional domain"
        )
    comp = omega.component(tuple(range(domain.dim)))
    if domain.kind == "cp1_charts":
        # exact split along |z| = 1: each chart integrates over its own disk
        return complex(
            _grid_quadrature(comp[0], domain.axes) + _grid_quadrature(comp[1], domain.axes)
        )
    return complex(_grid_quadrature(comp, domain.axes))


@dataclass(frozen=True)
class Cycle:
    """A sub-grid generator: either the whole domain or a coordinate slice.

    ``axes`` are the domain axes the cycle runs along; every other axis is
    pinned at the node index recorded in ``fixed``.
    """

    axes: tuple[int, ...]
    fixed: tuple[tuple[int, int], ...] = ()
    whole: bool = False
    label: str = ""


def generating_cycles(domain: DomainGrid, degree: int) -> list[Cycle]:
    """Generators of the degree-``degree`` homology of the supported domains."""
    kind = domain.kind
    if degree == 0:
        return []
    if kind == "circle":
        return [Cycle(axes=(0,), whole=True, label="circle")] if degree == 1 else []
    if kind == "interval":
        return []
    if kind == "torus2":
        if degree == 1:
            return [
                Cycle(axes=(0,), fixed=((1, 0),), label="axis0"),
                Cycle(axes=(1,), fixed=((0, 0),), label="axis1"),
            ]
        if degree == 2:
            return [Cycle(axes=(0, 1), whole=True, label="torus")]
        return []
    if kind == "torus3":
        if degree == 1:
            return [
                Cycle(axes=(i,), fixed=tuple((j, 0) for j in range(3) if j != i), label=f"axis{i}")
                for i in range(3)
            ]
        if degree == 2:
            return [
                Cycle(
                    axes=tuple(j for j in range(3) if j != i),
                    fixed=((i, 0),),
                    label=f"face{i}",
                )
                for i in range(3)
            ]
        if degree == 3:
            return [Cycle(axes=(0, 1, 2), whole=True, label="torus")]
        return []
    if kind == "cylinder":
        if degree == 1:
            return [Cycle(axes=(1,), fixed=((0, 0),), label="waist")]
        return []
    # cp1_charts: H^1 = 0, H^2 generated by the whole sphere
    if degree == 2:
        return [Cycle(axes=(0, 1), whole=True, label="sphere")]
    return []


def cycle_integral(omega: GradedForm, cycle: Cycle) -> complex:
    if len(cycle.axes) != omega.form_degree:
        raise DegreeMismatch("cycle dimension does not match form degree")
    if cycle.whole:
        return integrate(omega)
    comp = omega.component(tuple(sorted(cycle.axes)))
    domain = omega.domain
    if domain.kind == "cp1_charts":
        raise DegreeMismatch("cp1_charts has no sliced cycles")
    # slice away the fixed axes (descending so indices stay valid)
    for ax, node in sorted(cycle.fixed, reverse=True):
        comp = np.take(comp, node, axis=ax)
    return complex(_grid_quadrature(comp, [domain.axes[a] for a in cycle.axes]))


def exactness_residual(omega: GradedForm, cycles: Sequence[Cycle] | None = None) -> float:
    """Obstruction to exactness measured on generating cycles.

    Degree-0 forms are exact only if identically zero, so their residual is
    the sup norm; otherwise it is the largest cycle-integral magnitude (zero
    when the domain has no generators in that degree).
    """
    if omega.form_degree == 0:
        return omega.sup_norm()
    if cycles is None:
        cycles = generating_cycles(omega.domain, omega.form_degree)
    if not cycles:
        return 0.0
    return max(abs(cycle_integral(omega, c)) for c in cycles)


# ---------------------------------------------------------------------------
# serialization

_MAGIC = b"CGRD"
_VERSION = 1


def save_sampled_map(f: SampledMap, path: str) -> None:
    """Write the little-endian binary grid format.

    Header: magic ``CGRD``, version u32, kind u8, rank u8, per-axis resolution
    u32, matrix rows u32, cols u32.  Payload: f64 ``(re, im)`` pairs per entry,
    node-major in lexicographic node order (chart axis first on cp1_charts).
    Exact ``partials`` are not stored.
    """
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", _VERSION))
    buf.write(struct.pack("<BB", _KIND_CODE[f.domain.kind], f.domain.dim))
    for ax in f.domain.axes:
        buf.write(struct.pack("<I", ax.n))
    buf.write(struct.pack("<II", f.rows, f.cols))
    flat = np.ascontiguousarray(f.values).reshape(-1)
    inter = np.empty(2 * flat.size, dtype="<f8")
    inter[0::2] = flat.real
    inter[1::2] = flat.imag
    buf.write(inter.tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_sampled_map(path: str, codomain: str = "generic") -> SampledMap:
    """Read a map written by :func:`save_sampled_map`.

    The format holds no ``partials``, so the loaded map is differentiated on
    the grid even if the saved one carried exact partials.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise ShapeMismatch("bad magic in grid file")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != _VERSION:
        raise ShapeMismatch(f"unsupported grid file version {version}")
    kind_code, rank = struct.unpack_from("<BB", raw, 8)
    kind = DOMAIN_KINDS[kind_code]
    off = 10
    res = struct.unpack_from(f"<{rank}I", raw, off)
    off += 4 * rank
    rows, cols = struct.unpack_from("<II", raw, off)
    off += 8
    domain = make_domain(kind, res if rank > 1 else res[0])
    data = np.frombuffer(raw, dtype="<f8", offset=off)
    values = (data[0::2] + 1j * data[1::2]).reshape(*domain.node_shape, rows, cols)
    return SampledMap(domain, values, codomain=codomain)


def constant_map(domain: DomainGrid, matrix: np.ndarray, codomain: str = "generic", window=None) -> SampledMap:
    m = np.asarray(matrix, dtype=complex)
    values = np.broadcast_to(m, (*domain.node_shape, *m.shape)).copy()
    return SampledMap(domain, values, codomain=codomain, window=window)


def map_from_function(
    domain: DomainGrid,
    fn: Callable[..., np.ndarray],
    codomain: str = "generic",
    window=None,
) -> SampledMap:
    """Sample ``fn(*coords)`` (or ``fn(chart, *coords)`` on cp1) on the grid."""
    coords = [ax.coords for ax in domain.axes]
    first: np.ndarray
    if domain.kind == "cp1_charts":
        first = np.asarray(fn(0, *(c[0] for c in coords)), dtype=complex)
        shape = (*domain.node_shape, *first.shape)
        values = np.empty(shape, dtype=complex)
        for chart in range(2):
            for node in itertools.product(*(range(ax.n) for ax in domain.axes)):
                values[(chart, *node)] = fn(chart, *(coords[i][node[i]] for i in range(domain.dim)))
    else:
        first = np.asarray(fn(*(c[0] for c in coords)), dtype=complex)
        shape = (*domain.node_shape, *first.shape)
        values = np.empty(shape, dtype=complex)
        for node in itertools.product(*(range(ax.n) for ax in domain.axes)):
            values[node] = fn(*(coords[i][node[i]] for i in range(domain.dim)))
    return SampledMap(domain, values, codomain=codomain, window=window)
