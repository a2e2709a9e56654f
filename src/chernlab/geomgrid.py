"""Sample domains, derivative jets of sampled maps, and quadrature of forms.

Every domain is a product of uniform periodic axes (circles): the circle
and the tori, named by their dimension in ``_KINDS``.  Quadrature is the
trapezoid rule on every axis, and the generating cycles of a degree are the
subsets of that many axes.  Derivative jets are the map's own exact
partials when it carries them (builders that know the map in closed form
supply them, and the operations that make one map from another carry them
on); otherwise they are taken spectrally on the grid
(:func:`fourier.derivative`).

Conventions
-----------
* A :class:`SampledMap` stores one complex matrix per node, shape
  ``(*node_shape, rows, cols)``, and optionally one exact partial derivative
  array of that same shape per domain axis.
* A :class:`GradedForm` of degree p stores one complex scalar per node per
  strictly increasing axis multi-index.
* A cycle is a tuple of axes; every other axis is pinned at node 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import fourier
from .errors import (
    BadResolution,
    DegreeMismatch,
    DegreeOverflow,
    ShapeMismatch,
)
from .numkernel import ISOMETRY_TOL, _isometry_defect

__all__ = [
    "Axis",
    "DomainGrid",
    "SampledMap",
    "GradedForm",
    "make_domain",
    "differentiate",
    "integrate",
    "form_derivative",
    "exactness_residual",
    "generating_cycles",
    "sub_grid",
    "cycle_integral",
]

_KINDS = ("point", "circle", "torus2", "torus3")  # the kind of a grid of each dimension

MIN_PERIODIC = 8
_TAG_TOL = 1e-8  # the idempotency and hermiticity defects the projection tag tolerates


@dataclass(frozen=True)
class Axis:
    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise BadResolution(f"an axis takes an integer node count, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.n < MIN_PERIODIC:
            raise BadResolution(f"periodic axis needs >= {MIN_PERIODIC} nodes, got {self.n}")

    @property
    def coords(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n) / self.n

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.n


@dataclass(frozen=True)
class DomainGrid:
    """A uniform sample domain: a product of periodic axes."""

    axes: tuple[Axis, ...]

    @property
    def kind(self) -> str:
        return _KINDS[self.dim]

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def node_shape(self) -> tuple[int, ...]:
        return tuple(ax.n for ax in self.axes)


def make_domain(kind: str, resolutions) -> DomainGrid:
    """Build a :class:`DomainGrid` of a kind in ``_KINDS``, but the point.

    ``resolutions`` is an integer node count for the circle and a tuple or
    list of them otherwise, one per axis; BadResolution for anything else.
    """
    if kind not in _KINDS[1:]:
        raise BadResolution(f"unknown domain kind {kind!r}")
    counts = resolutions if isinstance(resolutions, (tuple, list)) else (resolutions,)
    axes = tuple(Axis(n) for n in counts)
    if len(axes) != _KINDS.index(kind):
        raise BadResolution(f"{kind} needs {_KINDS.index(kind)} node count(s), got {tuple(counts)}")
    return DomainGrid(axes)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_codomain(tag: str) -> None:
    if tag not in ("unitary", "projection", "frame", "generic"):
        raise ShapeMismatch(f"codomain tag {tag!r} is not one of unitary, projection, frame, generic")


def _check_frames(frames: Iterable[np.ndarray], what: str) -> None:
    """Raises ShapeMismatch, naming ``what``, unless every matrix of every
    array in ``frames`` is an orthonormal frame: no more columns than rows
    and ``V* V = 1`` by the rule of unitaries
    (:func:`numkernel._isometry_defect`).  A frame without columns is that of
    the zero projection.  One array at a time (the first-axis slices of an
    array), so the check allocates no array of the size of their stack, and
    a homotopy checks its slices as it evaluates them."""
    defect = 0.0
    for x in frames:
        if x.shape[-1] > x.shape[-2]:
            raise ShapeMismatch(f"{what} of shape {x.shape[-2:]} are neither square nor frames")
        defect = np.maximum(defect, _isometry_defect(x))
    if not defect < ISOMETRY_TOL:
        raise ShapeMismatch(f"{what} need V* V = 1: max node defect {defect:.3e}")


@dataclass(frozen=True)
class SampledMap:
    """A grid-sampled matrix-valued map with an optional codomain tag.

    ``values`` has shape ``(*domain.node_shape, rows, cols)``.  ``window`` is
    an optional polarized-window descriptor attached by the operator-level
    modules; this module reads nothing of it but its ``dim``, which must be
    the row count.  ``partials``, when given, holds the exact derivative of
    the map along each domain axis, one array of the shape of ``values`` per
    axis; :func:`differentiate` returns it instead of grid derivatives.  The
    map takes ownership of the ``values`` and ``partials`` arrays it is given
    (they are not copied when already contiguous complex) and makes them
    read-only.  The partials of a projection-tagged map must be Hermitian to
    the tag's tolerance, as the derivatives of Hermitian values are.  A
    ``"frame"``-tagged map holds orthonormal frames ``V`` (``V* V = 1``, no
    more columns than rows) of the projections ``V V*``.
    """

    domain: DomainGrid
    values: np.ndarray
    codomain: str = "generic"  # unitary | projection | frame | generic
    window: object | None = None
    partials: tuple[np.ndarray, ...] | None = None  # exact d(values)/dx_i when known

    def __post_init__(self):
        _check_codomain(self.codomain)
        v = np.ascontiguousarray(self.values, dtype=complex)
        expected = self.domain.node_shape
        if v.shape[: len(expected)] != expected or v.ndim != len(expected) + 2:
            raise ShapeMismatch(
                f"values shape {v.shape} does not match node shape {expected} + (rows, cols)"
            )
        _check_window(self.window, v.shape[-2])
        object.__setattr__(self, "values", _freeze(v))
        if self.partials is not None:
            object.__setattr__(
                self, "partials", _check_partials(self.partials, self.domain.dim, v.shape)
            )
        self._validate_tag()

    def _validate_tag(self) -> None:
        v = self.values
        if self.codomain == "unitary":
            if v.shape[-1] != v.shape[-2]:
                raise ShapeMismatch("unitary values must be square")
            err = _isometry_defect(v)
            if not err < ISOMETRY_TOL:
                raise ShapeMismatch(f"unitary tag violated: max node defect {err:.3e}")
        elif self.codomain == "projection":
            if v.shape[-1] != v.shape[-2]:
                raise ShapeMismatch("projection values must be square")
            idem = np.abs(v @ v - v).max()
            herm = np.abs(v - np.swapaxes(v, -1, -2).conj()).max()
            if not (idem < _TAG_TOL and herm < _TAG_TOL):
                raise ShapeMismatch(
                    f"projection tag violated: idempotency {idem:.3e}, hermiticity {herm:.3e}"
                )
            # the curvature kernels read the jets of projections as Hermitian
            for axis, d in enumerate(self.partials or ()):
                herm = np.abs(d - np.swapaxes(d, -1, -2).conj()).max()
                if not herm < _TAG_TOL:
                    raise ShapeMismatch(f"projection partial along axis {axis} is not Hermitian: defect {herm:.3e}")
        elif self.codomain == "frame":
            _check_frames(v, "frame values")

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


def _check_window(window, rows: int) -> None:
    """Raises ShapeMismatch unless ``window`` is absent or spans ``rows`` rows."""
    if window is not None and window.dim != rows:
        raise ShapeMismatch(f"window of dim {window.dim} tags values of {rows} rows")


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
    """Sampled differential-form component set.

    ``comps`` maps each strictly increasing axis multi-index (a tuple of axis
    positions; ``()`` for degree 0) to a complex scalar array over the nodes.
    """

    domain: DomainGrid
    form_degree: int
    comps: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        deg = self.form_degree
        if not (isinstance(deg, (int, np.integer)) and deg >= 0):
            raise DegreeOverflow(f"form degree must be a non-negative integer, got {deg!r}")
        if deg > self.domain.dim:
            raise DegreeOverflow(f"form degree {deg} exceeds domain dimension {self.domain.dim}")
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
        return GradedForm(self.domain, self.form_degree, {k: self.component(k) + other.component(k) for k in keys})

    def __sub__(self, other: "GradedForm") -> "GradedForm":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "GradedForm":
        return GradedForm(self.domain, self.form_degree, {k: c * a for k, a in self.comps.items()})

    def _compat(self, other: "GradedForm") -> None:
        if self.domain != other.domain or self.form_degree != other.form_degree:
            raise DegreeMismatch("forms live on different domains or degrees")


# ---------------------------------------------------------------------------
# derivatives


def differentiate(f: SampledMap) -> tuple[np.ndarray, ...]:
    """Per-axis derivative jets of ``f``, one array of the shape of its values
    per domain axis.

    The map's exact ``partials`` when it carries them; otherwise spectral
    grid derivatives.
    """
    if f.partials is not None:
        return f.partials
    return tuple(fourier.derivative(f.values, i) for i in range(f.domain.dim))


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
            acc += (-1.0) ** pos * fourier.derivative(comp, ax)
        comps[idx] = acc
    return GradedForm(domain, p + 1, comps)


# ---------------------------------------------------------------------------
# quadrature


def _grid_quadrature(values: np.ndarray, axes: Sequence[Axis]) -> complex:
    """The periodic trapezoid rule: the node sum times the cell volume."""
    return complex(np.sum(values) * np.prod([ax.spacing for ax in axes]))


def integrate(omega: GradedForm) -> complex:
    """Integral of a top-degree form over its domain."""
    if omega.form_degree != omega.domain.dim:
        raise DegreeMismatch(
            f"integrate needs a top-degree form: degree {omega.form_degree} on a "
            f"{omega.domain.dim}-dimensional domain"
        )
    return cycle_integral(omega, range(omega.domain.dim))


def generating_cycles(domain: DomainGrid, degree: int) -> list[tuple[int, ...]]:
    """Generators of the degree-``degree`` homology: every ``degree``-subset
    of the axes, none in degree 0.  DegreeOverflow unless ``degree`` is a
    non-negative integer."""
    if not (isinstance(degree, (int, np.integer)) and degree >= 0):
        raise DegreeOverflow(f"cycle degree must be a non-negative integer, got {degree!r}")
    return list(itertools.combinations(range(domain.dim), degree)) if degree else []


def sub_grid(domain: DomainGrid, axes: Sequence[int]) -> tuple[DomainGrid, tuple]:
    """The sub-grid spanned by ``axes`` and the index into node data that
    pins every other axis at node 0.

    ShapeMismatch if ``axes`` are not distinct integer axes of ``domain``
    (``0.0`` equals axis 0 but indexes nothing).
    """
    axes = tuple(sorted(axes))
    integers = all(isinstance(a, (int, np.integer)) for a in axes)
    if not integers or len(set(axes)) != len(axes) or not set(axes) <= set(range(domain.dim)):
        raise ShapeMismatch(f"{axes} are not distinct axes of a {domain.dim}-dimensional domain")
    sub = DomainGrid(tuple(domain.axes[a] for a in axes))
    return sub, tuple(slice(None) if i in axes else 0 for i in range(domain.dim))


def cycle_integral(omega: GradedForm, axes: Sequence[int]) -> complex:
    """Integral of ``omega`` over the sub-grid spanned by ``axes``, every
    other axis pinned at node 0."""
    axes = tuple(sorted(axes))
    if len(axes) != omega.form_degree:
        raise DegreeMismatch("cycle dimension does not match form degree")
    sub, pin = sub_grid(omega.domain, axes)
    return complex(_grid_quadrature(omega.component(axes)[pin], sub.axes))


def exactness_residual(omega: GradedForm) -> float:
    """Obstruction to exactness measured on generating cycles.

    Degree-0 forms are exact only if identically zero, so their residual is
    the sup norm; otherwise it is the largest cycle-integral magnitude.
    """
    if omega.form_degree == 0:
        return omega.sup_norm()
    return max(abs(cycle_integral(omega, c)) for c in generating_cycles(omega.domain, omega.form_degree))
