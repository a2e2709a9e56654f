"""Class-level API for the computable base domains (the point and the
circle): curvature and underlying-class extraction, the action of forms, and
the holonomy form of a pair of circle connections.

Completeness caveat, by design: on the point and the circle the integer data
(determinant winding, virtual dimension) together with the curvature forms
classify; on higher-dimensional domains the same forms and integers are still
computed but no completeness is claimed, and the underlying-class extraction
refuses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fourier
from .chernforms import Homotopy, ch_total, cs_forms
from .errors import (
    NotBasedAtIdentity,
    ShapeMismatch,
    UnsupportedDomain,
)
from .geomgrid import (
    DomainGrid,
    GradedForm,
    SampledMap,
    form_derivative,
    integrate,
    make_domain,
)
from .numkernel import det_phase, principal_angle, require_unitary
from .periodicity import det_winding
from .stiefel import PolarizedWindow

__all__ = [
    "KhatClassData",
    "CircleConnection",
    "curvature_R",
    "underlying_I",
    "a_odd",
    "a_even",
    "holonomy_log_det",
    "point_class_odd",
    "cs_of_nullhomotopy",
    "strip_stabilization",
]

CLOSEDNESS_TOL = 1e-6
INTEGER_TOL = 1e-6


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
        a.flags.writeable = False
        object.__setattr__(self, "samples", a)

    @staticmethod
    def constant(c: float, res: int = 256) -> "CircleConnection":
        dom = make_domain("circle", res)
        return CircleConnection(dom, np.full(res, float(c)))

    def integral(self) -> float:
        """``int_0^{2pi} a(theta) d(theta)`` by the periodic trapezoid rule."""
        return float(np.sum(self.samples) * self.domain.axes[0].spacing)

    def holonomy(self) -> complex:
        """``exp(i * integral)``, the holonomy of the rank-1 connection."""
        return complex(np.exp(1j * self.integral()))


@dataclass(frozen=True)
class KhatClassData:
    """A differential-class representative with its extracted data."""

    parity: str  # "even" | "odd"
    representative: SampledMap
    curvature: tuple[GradedForm, ...]
    invariants: dict
    checks: dict = field(default_factory=dict)


def _closedness_residual(forms) -> float:
    worst = 0.0
    for f in forms:
        if f.form_degree >= f.domain.dim:
            continue
        worst = max(worst, form_derivative(f).sup_norm())
    return worst


def curvature_R(f: SampledMap, k_max: int = 3) -> list[GradedForm]:
    """All curvature components; projections also carry their degree-0 part.

    The degree-0 component of a windowed projection map is the constant
    integer ``rank - n_plus`` (the path components of the supported domains
    are connected, so one integer suffices).
    """
    forms = ch_total(f, k_max)
    if f.codomain == "projection" and f.window is not None:
        vd = _window_virtual_dimension(f)
        const = np.full(f.domain.node_shape, complex(vd))
        forms.insert(0, GradedForm(f.domain, 0, 0, {(): const}))
    return forms


def _window_virtual_dimension(p: SampledMap) -> int:
    win: PolarizedWindow = p.window
    first = p.values.reshape(-1, p.rows, p.cols)[0]
    rank = int(np.round(np.trace(first).real))
    return rank - win.n_plus


def underlying_I(f: SampledMap):
    """Complete homotopy data on the supported domains.

    Odd (unitary) on the circle: determinant winding.  Even (projection):
    the virtual dimension.  Anything else: UnsupportedDomain.
    """
    if f.codomain == "unitary":
        if f.domain.kind != "circle":
            raise UnsupportedDomain(
                f"odd underlying class needs a circle domain, got {f.domain.kind}"
            )
        return det_winding(f)
    if f.codomain == "projection":
        if f.domain.kind != "circle" or f.window is None:
            raise UnsupportedDomain("even underlying class needs a windowed circle map")
        return _window_virtual_dimension(f)
    raise UnsupportedDomain("underlying class needs a unitary or projection map")


def point_class_odd(u: np.ndarray) -> float:
    """The odd point invariant: ``det_phase(u) / 2pi`` modulo 1."""
    u = require_unitary(u)
    return float((det_phase(u) / (2.0 * np.pi)) % 1.0)


def a_odd(phi: np.ndarray) -> KhatClassData:
    """Action of a real function on the circle: representative
    ``exp(-2 pi i phi)`` padded into a 2 x 2 unitary block.

    ``phi`` holds one sample per node of a uniform circle grid.  Integer
    shifts of ``phi`` give the identical representative, so the class only
    sees ``phi`` modulo 1.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1:
        raise ShapeMismatch(f"phi must be one sample per circle node, got shape {phi.shape}")
    values = np.zeros((phi.size, 2, 2), dtype=complex)
    values[:] = np.eye(2)
    values[:, 0, 0] = np.exp(-2j * np.pi * phi)
    rep = SampledMap(make_domain("circle", phi.size), values, codomain="unitary")
    forms = ch_total(rep, 1)
    checks = {
        "closedness_residual": _closedness_residual(forms),
        "det_phase_defect": float(
            np.abs(np.exp(-2j * np.pi * phi) - np.linalg.det(rep.values)).max()
        ),
    }
    invariants = {
        "winding": det_winding(rep),
        "det_phase_mod1": point_class_odd(rep.values[0]),
    }
    return KhatClassData(
        parity="odd",
        representative=rep,
        curvature=tuple(forms),
        invariants=invariants,
        checks=checks,
    )


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
    h = dom.axes[0].spacing
    total = float(np.sum(a) * h)
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
    """Action of a circle connection: the classifying rank-1 projection loop."""
    rep = classifying_projection_loop(alpha, window)
    forms = curvature_R(rep, 1)
    invariants = {
        "virtual_dimension": _window_virtual_dimension(rep),
        "holonomy_expected": [alpha.holonomy().real, alpha.holonomy().imag],
    }
    checks = {"closedness_residual": _closedness_residual(forms)}
    return KhatClassData(
        parity="even",
        representative=rep,
        curvature=tuple(forms),
        invariants=invariants,
        checks=checks,
    )


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
    return GradedForm(dom, 1, 0, {(0,): comp})


def cs_of_nullhomotopy(H: Homotopy, k_max: int = 3, tol: float = 1e-10) -> dict:
    """CS components of a homotopy out of the basepoint, plus the lift check.

    The report carries ``d(CS) - ch(endpoint)`` residuals: the action of the
    resulting forms must lift the exterior derivative.
    """
    first = H.slices[0].reshape(-1, H.slices.shape[-2], H.slices.shape[-1])
    if H.codomain == "unitary":
        base = np.eye(H.slices.shape[-1])
    elif H.codomain == "projection":
        if H.window is None:
            raise NotBasedAtIdentity("projection nullhomotopy needs a window basepoint")
        base = H.window.pi_plus
    else:
        raise ShapeMismatch("nullhomotopy slices must be unitary or projection")
    defect = float(np.abs(first - base).max())
    if defect >= tol:
        raise NotBasedAtIdentity(f"homotopy starts {defect:.3e} away from the basepoint")

    end = H.slice_map(H.n_times - 1)
    end_forms = {f.form_degree: f for f in ch_total(end, k_max)}
    forms = list(cs_forms(H, k_max).values())
    residuals = {}
    for cs in forms:
        deg = cs.form_degree
        if deg < H.spatial.dim:
            dcs = form_derivative(cs)
            target = end_forms.get(deg + 1)
            diff = dcs - target if target is not None else dcs
            residuals[deg] = diff.sup_norm()
    return {"forms": forms, "lift_residuals": residuals}


def strip_stabilization(f: SampledMap, tol: float = 1e-10) -> SampledMap:
    """Remove interleaved basepoint strands: ``g (+) const_* ~ g``.

    Repeatedly peels the odd strand when it is constantly the basepoint
    (identity block for unitaries, the positive projection for windowed
    projections) and the cross strands vanish.  Exact partials carry over as
    their even strands.
    """
    current = f
    while current.cols % 2 == 0:
        v = current.values
        cross = max(
            float(np.abs(v[..., 0::2, 1::2]).max()),
            float(np.abs(v[..., 1::2, 0::2]).max()),
        )
        if cross >= tol:
            break
        win: PolarizedWindow | None = current.window
        half_window = None if win is None else PolarizedWindow(win.n_minus // 2, win.n_plus // 2)
        if current.codomain == "unitary":
            base = np.eye(current.cols // 2)
        elif current.codomain == "projection" and win is not None and not (win.n_minus % 2 or win.n_plus % 2):
            base = half_window.pi_plus
        else:
            break
        if float(np.abs(v[..., 1::2, 1::2] - base).max()) >= tol:
            break
        partials = None
        if current.partials is not None:
            partials = tuple(p[..., 0::2, 0::2] for p in current.partials)
        current = SampledMap(
            current.domain, v[..., 0::2, 0::2], codomain=current.codomain, window=half_window, partials=partials
        )
    return current


def khat_class(f: SampledMap, k_max: int = 3) -> KhatClassData:
    """Full class data for a representative on a supported domain."""
    g = strip_stabilization(f)
    parity = "odd" if g.codomain == "unitary" else "even"
    forms = curvature_R(g, k_max)
    invariants: dict = {}
    checks: dict = {"closedness_residual": _closedness_residual(forms)}
    under = underlying_I(g)
    if parity == "odd":
        invariants["winding"] = under
        sample = g.values.reshape(-1, g.rows, g.cols)[0]
        invariants["det_phase_mod1"] = point_class_odd(sample)
        deg1 = [x for x in forms if x.form_degree == 1]
        if deg1:
            total = integrate(deg1[0]) if g.domain.dim == 1 else None
            if total is not None:
                checks["square_commutes_residual"] = abs(total.real + under) + abs(total.imag)
    else:
        invariants["virtual_dimension"] = under
    return KhatClassData(
        parity=parity,
        representative=g,
        curvature=tuple(forms),
        invariants=invariants,
        checks=checks,
    )
