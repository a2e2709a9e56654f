"""Geometric periodicity maps at truncation.

Odd to even: a unitary loop becomes its block-Toeplitz multiplication
operator on a symmetric mode window; the image of the positive half-window,
trimmed to the columns the truncation represents exactly, is a frame whose
safe-window virtual dimension recovers the Fredholm index.  Square finite
sections are never used for index extraction (they are index-blind); the
independent cross-check is the winding number of the determinant by phase
continuation.

Even to odd: a loop of projections is parallel-transported with the
horizontal-lift equation ``w' = pi' w`` (RK4 with per-step re-projection);
the endpoint fiber coordinate, unitarized through the polar factor, is the
holonomy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier
from .chernforms import ch_odd
from .errors import (
    BandwidthViolation,
    LostRank,
    NotALoop,
    ShapeMismatch,
)
from .geomgrid import SampledMap, integrate
from .numkernel import polar_unitary
from .stiefel import BandInfo, Frame, PolarizedWindow, virtual_dimension

__all__ = [
    "ToeplitzWindow",
    "HolonomyResult",
    "toeplitz_from_loop",
    "h_odd_project",
    "kato_transport",
    "bott_consistency",
    "det_winding",
]

DEFAULT_TRANSPORT_STEPS = 4096
BAND_TOL = 1e-10  # a Fourier block at or above this norm is inside the band


@dataclass(frozen=True)
class ToeplitzWindow:
    """Multiplication by a unitary loop, compressed to the modes ``[-M, M)``.

    The loop is ``gamma(theta) = sum_m c_m e^{i m theta}`` with ``c_m`` from
    :func:`fourier.coefficients`.  Block ``(j, k)`` of ``operator`` (output
    block mode ``j - M``, input block mode ``k - M``, each of size ``n``) is
    ``c_{j-k}``, zero for ``|j - k| > B``; its positive-mode corner is the
    block Toeplitz operator ``T_gamma``.  ``diagnostics`` holds the
    Hilbert-Schmidt norms of the two off-diagonal corners, the largest
    coefficient norm outside the band, and the circle resolution.
    """

    n: int
    M: int
    B: int
    coefficients: np.ndarray  # (2B + 1, n, n), order -B..B
    operator: np.ndarray  # (2Mn, 2Mn)
    window: PolarizedWindow
    diagnostics: dict

    def coefficient(self, order: int) -> np.ndarray:
        if abs(order) > self.B:
            return np.zeros((self.n, self.n), dtype=complex)
        return self.coefficients[order + self.B]


def toeplitz_from_loop(gamma: SampledMap, M: int, B: int, tol: float = BAND_TOL) -> ToeplitzWindow:
    """Assemble the block-Toeplitz window of a band-limited unitary loop.

    Raises
    ------
    BandwidthViolation
        If any Fourier coefficient beyond the declared band ``B`` has norm
        >= ``tol``, or the circle resolution is below ``4B``.
    """
    if gamma.codomain != "unitary" or gamma.domain.kind != "circle":
        raise ShapeMismatch("toeplitz_from_loop needs a unitary-tagged circle loop")
    res = gamma.domain.axes[0].n
    if res < 4 * B:
        raise BandwidthViolation(f"circle resolution {res} < 4B = {4 * B}")
    coeffs = fourier.coefficients(gamma.values)
    orders = fourier.orders(res)
    n = gamma.cols
    inside = np.abs(orders) <= B
    norms = np.linalg.norm(coeffs, axis=(1, 2))
    worst = float(norms[~inside].max(initial=0.0))
    if worst >= tol:
        raise BandwidthViolation(
            f"Fourier content outside declared band B = {B}: max norm {worst:.3e}"
        )
    banded = np.zeros((2 * B + 1, n, n), dtype=complex)
    banded[orders[inside] + B] = coeffs[inside]

    dim = 2 * M * n
    op = np.zeros((dim, dim), dtype=complex)
    for j in range(2 * M):  # output block mode j - M
        for k in range(2 * M):
            order = j - k
            if abs(order) <= B:
                op[j * n : (j + 1) * n, k * n : (k + 1) * n] = banded[order + B]

    window = PolarizedWindow(n_minus=M * n, n_plus=M * n)
    half = M * n
    diagnostics = {
        "hs_pm": float(np.linalg.norm(op[:half, half:])),
        "hs_mp": float(np.linalg.norm(op[half:, :half])),
        "band_leak": worst,
        "resolution": res,
    }
    return ToeplitzWindow(
        n=n, M=M, B=B, coefficients=banded, operator=op, window=window, diagnostics=diagnostics
    )


def _measured_band(coeffs: np.ndarray, orders: np.ndarray) -> int:
    """Largest ``|m|`` with ``||c_m|| >= BAND_TOL``, and at least 1."""
    norms = np.linalg.norm(coeffs, axis=(1, 2))
    return max(1, int(np.abs(orders)[norms >= BAND_TOL].max(initial=0)))


def h_odd_project(tw: ToeplitzWindow) -> Frame:
    """Frame for the image of the positive half-window, safe columns only.

    With ``b <= B`` the measured band, kernel and cokernel of ``T_gamma`` lie
    in the modes ``[0, b)``, and columns ``[0, 2b)`` decide the cokernel.  So
    input block modes ``[0, K)``, ``K = min(M - b, 2b)``, are kept (their
    images lie inside the window) and cokernel modes are counted on
    ``[0, K - b)`` only; the count is exact once ``M >= 3b``.
    """
    n, M = tw.n, tw.M
    b = _measured_band(tw.coefficients, np.arange(-tw.B, tw.B + 1))
    k_blocks = min(M - b, 2 * b)
    if k_blocks <= b:
        raise BandwidthViolation(
            f"window too small for the measured band: M - b = {k_blocks} <= b = {b}"
        )
    col_lo = M * n  # block mode 0
    col_hi = (M + k_blocks) * n
    w = tw.operator[:, col_lo:col_hi]
    return Frame(tw.window, w, band=BandInfo(block=n, bandwidth=b, k_blocks=k_blocks))


def det_winding(gamma: SampledMap) -> int:
    """Winding number of ``det(gamma)`` by phase continuation around the loop."""
    if gamma.domain.kind != "circle":
        raise ShapeMismatch("winding needs a circle-sampled loop")
    dets = np.linalg.det(gamma.values)
    closed = np.concatenate([dets, dets[:1]])
    angles = np.unwrap(np.angle(closed))
    turns = (angles[-1] - angles[0]) / (2.0 * np.pi)
    wind = int(np.round(turns))
    if abs(turns - wind) > 1e-6:
        raise NotALoop(f"determinant phase does not close: {turns:.6f} turns")
    return wind


@dataclass(frozen=True)
class HolonomyResult:
    """Endpoint fiber coordinate of a horizontal lift, plus diagnostics."""

    Q: np.ndarray
    U: np.ndarray
    diagnostics: dict


def _loop_samples(loop) -> np.ndarray:
    """Projection samples around a loop, endpoint not repeated.

    Accepts a projection-tagged circle map (closed by construction) or a raw
    ``(n_t, d, d)`` array of uniform samples on ``[0, 1]`` including the
    endpoint, which must close within 1e-10.
    """
    if isinstance(loop, SampledMap):
        if loop.domain.kind != "circle" or loop.codomain != "projection":
            raise NotALoop("need a projection-tagged circle map")
        return np.asarray(loop.values)
    arr = np.asarray(loop, dtype=complex)
    if arr.ndim != 3 or arr.shape[-1] != arr.shape[-2]:
        raise ShapeMismatch("loop samples must have shape (n_t, d, d)")
    defect = float(np.abs(arr[0] - arr[-1]).max())
    if defect >= 1e-10:
        raise NotALoop(f"endpoint projections differ by {defect:.3e}")
    return arr[:-1]


def _initial_frame(pi0: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(pi0)
    cols = evecs[:, evals > 0.5]
    if cols.shape[1] == 0:
        raise LostRank("initial projection has rank zero")
    return cols


def _transport_once(path: fourier.Interpolant, w0: np.ndarray, steps: int) -> tuple[np.ndarray, dict]:
    h = 2.0 * np.pi / steps
    w = w0.copy()
    track_defect = 0.0
    for i in range(steps):
        t = i * h

        def rhs(tt: float, ww: np.ndarray) -> np.ndarray:
            return path.derivative(tt) @ ww

        k1 = rhs(t, w)
        k2 = rhs(t + 0.5 * h, w + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, w + 0.5 * h * k2)
        k4 = rhs(t + h, w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        pi_next = path.value(t + h)
        track_defect = max(track_defect, float(np.abs(pi_next @ w - w).max()))
        w = pi_next @ w  # re-projection: keeps the frame inside the tracked image
    sv = np.linalg.svd(w, compute_uv=False)
    if sv[-1] < 1e-6:
        raise LostRank(f"transported frame degenerated: min singular value {sv[-1]:.3e}")
    gram_drift = float(np.linalg.norm(w.conj().T @ w - np.eye(w.shape[1])))
    return w, {"tracking_defect": track_defect, "gram_drift": gram_drift}


def kato_transport(
    loop,
    steps: int = DEFAULT_TRANSPORT_STEPS,
    w0: np.ndarray | None = None,
    check_halving: bool = True,
) -> HolonomyResult:
    """Holonomy of a projection loop by horizontal-lift integration.

    The lift solves ``w' = pi' w`` (equivalent to vanishing connection along
    the lift while ``pi w = w``), RK4 with per-step re-projection.  The
    endpoint solves ``w(1) = w0 Q`` on the image of the starting projection;
    ``U`` is the unitary polar factor of ``Q``.  With ``check_halving`` the
    integration is repeated at half resolution and flagged if the holonomy
    moves by more than 1e-6.
    """
    samples = _loop_samples(loop)
    path = fourier.Interpolant(samples)
    pi0 = samples[0]
    if w0 is None:
        w0 = _initial_frame(pi0)
    else:
        w0 = np.asarray(w0, dtype=complex)
        if float(np.abs(pi0 @ w0 - w0).max()) >= 1e-8:
            raise LostRank("starting frame does not span the initial image")
    w_end, diag = _transport_once(path, w0, steps)
    q = np.linalg.solve(w0.conj().T @ w0, w0.conj().T @ w_end)
    u = polar_unitary(q)
    diag = dict(diag)
    diag["steps"] = steps
    if check_halving:
        w_half, _ = _transport_once(path, w0, max(steps // 2, 8))
        q_half = np.linalg.solve(w0.conj().T @ w0, w0.conj().T @ w_half)
        delta = float(np.abs(q - q_half).max())
        diag["step_halving_delta"] = delta
        diag["step_halving_ok"] = bool(delta < 1e-6)
    return HolonomyResult(Q=q, U=u, diagnostics=diag)


def bott_consistency(
    gamma: SampledMap, M: int | None = None, B: int | None = None, tol: float = 1e-6
) -> dict:
    """Three routes to the loop's integer class, and whether they agree.

    (a) minus the integral of the degree-1 Chern component, (b) the winding
    of the determinant by phase continuation, (c) minus the safe-window
    virtual dimension of the Toeplitz-image frame.  By default ``B`` is the
    measured band of the loop and ``M = 3B``, the window at which route (c)
    is exact (see :func:`h_odd_project`).
    """
    ch1 = integrate(ch_odd(gamma, 1))
    route_a = -ch1.real
    route_b = det_winding(gamma)
    if B is None:
        coeffs = fourier.coefficients(gamma.values)
        B = _measured_band(coeffs, fourier.orders(len(coeffs)))
    if M is None:
        M = 3 * B
    tw = toeplitz_from_loop(gamma, M=M, B=B)
    frame = h_odd_project(tw)
    route_c = -virtual_dimension(frame)
    nearest = int(np.round(route_a))
    verdict = (
        abs(route_a - nearest) < tol
        and route_b == nearest
        and route_c == nearest
        and abs(ch1.imag) < tol
    )
    return {
        "ch1_integral": [ch1.real, ch1.imag],
        "ch1_route": route_a,
        "det_winding": route_b,
        "virtual_dimension": int(-route_c),
        "verdict": bool(verdict),
        "diagnostics": dict(tw.diagnostics),
    }
