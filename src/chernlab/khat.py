"""Class-level API for the computable base domains (the point and the
circle): the class data of a representative, the action of forms, and the
holonomy form of a pair of circle connections.

Every class carries a curvature R and an underlying class I, and the action
a is itself a class, so :func:`a_odd`, :func:`a_even` and :func:`khat_class`
share one constructor.  Odd classes (unitary loops) carry the invariants
``winding`` (I) and ``det_phase_mod1`` and the checks ``closedness_residual``
and ``square_commutes_residual``; even classes (windowed projection loops)
carry the invariant ``virtual_dimension`` (I, also the degree-0 curvature
form) and the check ``closedness_residual``.

Completeness caveat, by design: on the point and the circle the integer data
together with the curvature forms classify; the underlying class, and so the
class data, refuses any other domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier
from .chernforms import Homotopy, ch_total, cs_forms
from .errors import NotBasedAtIdentity, ShapeMismatch, UnsupportedDomain
from .geomgrid import (
    DomainGrid,
    GradedForm,
    SampledMap,
    form_derivative,
    integrate,
    make_domain,
)
from .numkernel import det_phase, principal_angle
from .periodicity import det_winding
from .stiefel import PolarizedWindow

__all__ = [
    "KhatClassData",
    "CircleConnection",
    "underlying_I",
    "point_class_odd",
    "a_odd",
    "classifying_projection_loop",
    "a_even",
    "holonomy_log_det",
    "cs_of_nullhomotopy",
    "strip_stabilization",
    "khat_class",
]


@dataclass(frozen=True)
class CircleConnection:
    """A real local connection form ``alpha = a(theta) d(theta)`` on the circle."""

    domain: DomainGrid
    samples: np.ndarray

    def __post_init__(self):
        if self.domain.kind != "circle":
            raise UnsupportedDomain("circle connections live on circle grids")
        a = np.array(self.samples, dtype=float)
        if a.shape != (self.domain.axes[0].n,):
            raise ShapeMismatch("connection samples do not match the grid")
        if not np.isfinite(a).all():
            raise ShapeMismatch("connection samples must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "samples", a)

    @staticmethod
    def constant(c: float) -> "CircleConnection":
        """The constant connection ``c`` on a 256-node circle."""
        return CircleConnection(make_domain("circle", 256), np.full(256, float(c)))

    def integral(self) -> float:
        """``int_0^{2pi} a(theta) d(theta)`` by the periodic trapezoid rule."""
        return float(np.sum(self.samples) * self.domain.axes[0].spacing)

    def holonomy(self) -> complex:
        """``exp(i * integral)``, the holonomy of the rank-1 connection."""
        return complex(np.exp(1j * self.integral()))


@dataclass(frozen=True)
class KhatClassData:
    """A differential-class representative with its curvature forms R, its
    invariants and the residuals of the checks that tie R to the underlying
    class I.

    Odd (unitary loop): invariants ``winding`` (I) and ``det_phase_mod1``
    (the point class at node 0); checks ``closedness_residual`` (``sup |d x|``
    over the forms below the top degree) and ``square_commutes_residual``
    (``|Re int ch_1 + winding| + |Im int ch_1|``).  Even (windowed projection
    loop): invariant ``virtual_dimension`` (I, which ``curvature`` also holds
    as its constant degree-0 form); check ``closedness_residual`` over the
    positive-degree forms.
    """

    parity: str  # "even" | "odd"
    representative: SampledMap
    curvature: tuple[GradedForm, ...]
    invariants: dict
    checks: dict


def underlying_I(f: SampledMap) -> int:
    """Complete homotopy data on the supported domains.

    Odd (unitary) on the circle: determinant winding.  Even (windowed
    projection) on the circle: the virtual dimension ``rank - n_plus``, read
    at node 0 (the circle is connected, so one integer suffices).  Anything
    else: UnsupportedDomain.
    """
    if f.codomain == "unitary":
        if f.domain.kind != "circle":
            raise UnsupportedDomain(f"odd underlying class needs a circle domain, got {f.domain.kind}")
        return det_winding(f)
    if f.codomain == "projection":
        if f.domain.kind != "circle" or f.window is None:
            raise UnsupportedDomain("even underlying class needs a windowed circle map")
        first = f.values.reshape(-1, f.rows, f.cols)[0]
        return int(np.round(np.trace(first).real)) - f.window.n_plus
    raise UnsupportedDomain("underlying class needs a unitary or projection map")


def _class_data(g: SampledMap) -> KhatClassData:
    """The class data of the representative ``g``: its curvature forms, its
    underlying class, and the checks of :class:`KhatClassData`."""
    forms = ch_total(g)
    under = underlying_I(g)
    checks = {
        "closedness_residual": max(
            (form_derivative(x).sup_norm() for x in forms if x.form_degree < g.domain.dim), default=0.0
        )
    }
    if g.codomain == "unitary":
        parity = "odd"
        invariants = {"winding": under, "det_phase_mod1": point_class_odd(g.values[0])}
        total = integrate(forms[0])
        checks["square_commutes_residual"] = abs(total.real + under) + abs(total.imag)
    else:
        parity = "even"
        invariants = {"virtual_dimension": under}
        forms.insert(0, GradedForm(g.domain, 0, {(): np.full(g.domain.node_shape, complex(under))}))
    return KhatClassData(parity, g, tuple(forms), invariants, checks)


def point_class_odd(u: np.ndarray) -> float:
    """The odd point invariant: ``det_phase(u) / 2pi`` modulo 1."""
    return float((det_phase(u) / (2.0 * np.pi)) % 1.0)


def a_odd(phi: np.ndarray) -> KhatClassData:
    """Action of a real function on the circle: the class of the U(1) loop
    ``exp(-2 pi i phi)``, whose curvature is ``d phi``.

    ``phi`` holds one sample per node of a uniform circle grid.  Integer
    shifts of ``phi`` give the identical representative, so the class only
    sees ``phi`` modulo 1.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1:
        raise ShapeMismatch(f"phi must be one sample per circle node, got shape {phi.shape}")
    values = np.exp(-2j * np.pi * phi)[:, None, None]
    return _class_data(SampledMap(make_domain("circle", phi.size), values, codomain="unitary"))


def classifying_projection_loop(alpha: CircleConnection, window: PolarizedWindow | None = None) -> SampledMap:
    """Projection loop over the circle whose Kato transport holonomy has
    determinant ``exp(i * integral(alpha))``.

    A unit section ``v(theta)`` of ``C^2`` spans a line; its projection
    ``v v*`` is written on the window rows of modes 0 and -1 of ``window``
    (default ``PolarizedWindow(2, 2)``) and the modes ``[1, n_plus)`` are a
    constant tail on the diagonal, so the holonomy is that of the line times
    the identity on the tail.  With ``c = integral / 2pi`` split into
    ``m = floor(c)`` and ``s2 = c - m``,

        ``v(theta) = (cos(b) e^{i phi1}, sin(b) e^{i phi2})``,

    with ``sin^2 b = s2``, ``phi2 = -(m+1) theta`` and
    ``phi1 = (s2 (m+1) theta - A(theta)) / (1 - s2)``, where ``A`` is the
    spectral antiderivative of ``alpha``.  Then ``<v, dv/dtheta> = -i alpha``,
    so the horizontal lift is ``v exp(i int_0^theta alpha)``, and both phases
    close, so ``v`` itself is a loop.
    """
    a = alpha.samples
    dom = alpha.domain
    theta = dom.axes[0].coords
    total = alpha.integral()
    c = total / (2.0 * np.pi)
    m = int(np.floor(c))
    s2 = c - m
    b = float(np.arcsin(np.sqrt(s2)))
    c2 = 1.0 - s2
    big_a = fourier.antiderivative(a).real
    phi2 = -(m + 1) * theta
    if c2 > 1e-12:
        phi1 = (-big_a + s2 * (m + 1) * theta) / c2
    else:
        phi1 = np.zeros_like(theta)
    v = np.stack(
        [np.cos(b) * np.exp(1j * phi1), np.sin(b) * np.exp(1j * phi2)], axis=-1
    )
    if window is None:
        window = PolarizedWindow(2, 2)
    rows = np.array([window.index_of(0), window.index_of(-1)])
    tail = np.arange(rows[0] + 1, window.dim)
    values = np.zeros((dom.axes[0].n, window.dim, window.dim), dtype=complex)
    values[:, rows[:, None], rows] = v[..., :, None] * v[..., None, :].conj()
    values[:, tail, tail] = 1.0
    return SampledMap(dom, values, codomain="projection", window=window)


def a_even(alpha: CircleConnection, window: PolarizedWindow | None = None) -> KhatClassData:
    """Action of a circle connection: the class of its classifying rank-1
    projection loop (:func:`classifying_projection_loop`)."""
    return _class_data(classifying_projection_loop(alpha, window))


def holonomy_log_det(conn_plus: CircleConnection, conn_minus: CircleConnection) -> GradedForm:
    """Degree-1 form ``(1 / 2 pi i) log(hol_+ / hol_-) d(theta)``.

    The log uses the principal branch, so the constant coefficient lands in
    ``(-1/2, 1/2]``; the answer is only meaningful modulo the integer lattice
    of ``d theta`` and callers should compare mod 1.
    """
    if conn_plus.domain != conn_minus.domain:
        raise ShapeMismatch("connections must share one circle grid")
    ratio = conn_plus.holonomy() / conn_minus.holonomy()
    coeff = principal_angle(float(np.angle(ratio))) / (2.0 * np.pi)
    dom = conn_plus.domain
    comp = np.full(dom.node_shape, complex(coeff))
    return GradedForm(dom, 1, {(0,): comp})


def cs_of_nullhomotopy(H: Homotopy) -> dict:
    """CS components of a homotopy out of the basepoint, plus the lift check.

    The report carries ``d(CS) - ch(endpoint)`` residuals: the action of the
    resulting forms must lift the exterior derivative.  The basepoint check
    reads the first slice as a map, so a homotopy held by frames ``V`` is
    checked through ``V V*``; it must start within 1e-10 of the basepoint.
    """
    if H.codomain == "unitary":
        base = np.eye(H.slice_shape[-1])
    elif H.codomain == "projection":
        if H.window is None:
            raise NotBasedAtIdentity("projection nullhomotopy needs a window basepoint")
        base = H.window.pi_plus
    else:
        raise ShapeMismatch("nullhomotopy slices must be unitary or projection")
    defect = float(np.abs(H.slice_map(0).values - base).max())
    if defect >= 1e-10:
        raise NotBasedAtIdentity(f"homotopy starts {defect:.3e} away from the basepoint")

    end = H.slice_map(H.n_times - 1)
    end_forms = {f.form_degree: f for f in ch_total(end)}
    forms = list(cs_forms(H).values())
    residuals = {}
    for cs in forms:
        deg = cs.form_degree
        if deg < H.spatial.dim:
            dcs = form_derivative(cs)
            target = end_forms.get(deg + 1)
            diff = dcs - target if target is not None else dcs
            residuals[deg] = diff.sup_norm()
    return {"forms": forms, "lift_residuals": residuals}


def strip_stabilization(f: SampledMap) -> SampledMap:
    """Remove interleaved basepoint strands: ``g (+) const_* ~ g``.

    Repeatedly peels the odd strand when it is constantly the basepoint
    (identity block for unitaries, the positive projection for windowed
    projections) and the cross strands vanish, both within 1e-10.  A window
    halves with the map, so stripping stops at a window with an odd
    ``n_minus`` or ``n_plus``.  Exact partials carry over as their even
    strands.
    """
    current = f
    while current.cols % 2 == 0:
        v = current.values
        cross = max(
            float(np.abs(v[..., 0::2, 1::2]).max()),
            float(np.abs(v[..., 1::2, 0::2]).max()),
        )
        win: PolarizedWindow | None = current.window
        if cross >= 1e-10 or (win is not None and (win.n_minus % 2 or win.n_plus % 2)):
            break
        half_window = None if win is None else PolarizedWindow(win.n_minus // 2, win.n_plus // 2)
        if current.codomain == "unitary":
            base = np.eye(current.cols // 2)
        elif current.codomain == "projection" and win is not None:
            base = half_window.pi_plus
        else:
            break
        if float(np.abs(v[..., 1::2, 1::2] - base).max()) >= 1e-10:
            break
        partials = None
        if current.partials is not None:
            partials = tuple(p[..., 0::2, 0::2] for p in current.partials)
        current = SampledMap(
            current.domain, v[..., 0::2, 0::2], codomain=current.codomain, window=half_window, partials=partials
        )
    return current


def khat_class(f: SampledMap) -> KhatClassData:
    """Full class data for a representative on a supported domain, with its
    basepoint strands stripped."""
    return _class_data(strip_stabilization(f))
