"""Frames, the transgression form of their universal connection and
curvature, and index bookkeeping on a truncated polarized mode window.

A window keeps modes ``-n_minus .. n_plus - 1`` of a Z-graded basis; the
polarization is the sign of the mode.  Frames are injective rectangular
matrices whose columns span a subspace; ``w^{-1}`` is always realized as the
left pseudo-inverse ``(w* w)^{-1} w*``, which is exact on the image of the
frame's projection.

Index extraction never uses square finite sections (they cannot see the
index).  A subspace is held as explicit columns plus a tail of standard basis
modes, and its virtual dimension is counted against the whole positive
window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateFrame,
    NotProjection,
    WindowTooSmall,
)
from .chernforms import chern_scalar, trace_wedge
from .geomgrid import GradedForm, SampledMap, differentiate
from .numkernel import RANK_THRESHOLD_REL, frobenius, numerical_rank

__all__ = [
    "PolarizedWindow",
    "Frame",
    "SubspaceSpec",
    "projection_from_frame",
    "involution_from_projection",
    "transgression_eta",
    "virtual_dimension",
    "include_finite_grassmannian",
]

FRAME_MIN_SV = 1e-8


@dataclass(frozen=True)
class PolarizedWindow:
    """Mode window ``-n_minus .. n_plus - 1`` with grading by mode sign."""

    n_minus: int
    n_plus: int

    @property
    def dim(self) -> int:
        return self.n_minus + self.n_plus

    def index_of(self, mode: int) -> int:
        if not (-self.n_minus <= mode < self.n_plus):
            raise WindowTooSmall(f"mode {mode} outside window [-{self.n_minus}, {self.n_plus})")
        return mode + self.n_minus

    def mode_of(self, index: int) -> int:
        return index - self.n_minus

    @property
    def epsilon(self) -> np.ndarray:
        signs = np.where(np.arange(self.dim) >= self.n_minus, 1.0, -1.0)
        return np.diag(signs).astype(complex)

    @property
    def pi_plus(self) -> np.ndarray:
        d = np.where(np.arange(self.dim) >= self.n_minus, 1.0, 0.0)
        return np.diag(d).astype(complex)

    def basis_vector(self, mode: int) -> np.ndarray:
        e = np.zeros(self.dim, dtype=complex)
        e[self.index_of(mode)] = 1.0
        return e


@dataclass(frozen=True)
class Frame:
    """Admissible frame: injective columns spanning a window subspace.

    ``norm`` is the largest singular value of ``w``.
    """

    window: PolarizedWindow
    w: np.ndarray
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.array(self.w, dtype=complex, order="C")
        if w.ndim != 2 or w.shape[0] != self.window.dim:
            raise DegenerateFrame(f"frame shape {w.shape} does not match window dim {self.window.dim}")
        sv = np.linalg.svd(w, compute_uv=False)
        if sv.size == 0 or sv[-1] <= FRAME_MIN_SV:
            raise DegenerateFrame(f"smallest frame singular value {sv[-1] if sv.size else 0.0:.3e} too small")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "norm", float(sv[0]))

    @property
    def n_cols(self) -> int:
        return self.w.shape[1]


def projection_from_frame(fr: Frame | np.ndarray) -> np.ndarray:
    w = fr.w if isinstance(fr, Frame) else np.asarray(fr, dtype=complex)
    sv = np.linalg.svd(w, compute_uv=False)
    if sv[-1] <= FRAME_MIN_SV:
        raise DegenerateFrame("frame columns are numerically dependent")
    return w @ np.linalg.solve(w.conj().T @ w, w.conj().T)


def involution_from_projection(pi: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    pi = np.asarray(pi, dtype=complex)
    idem = frobenius(pi @ pi - pi)
    herm = frobenius(pi - pi.conj().T)
    if max(idem, herm) >= tol:
        raise NotProjection(f"idempotency defect {idem:.3e}, hermiticity defect {herm:.3e}")
    return 2.0 * pi - np.eye(pi.shape[0])


# ---------------------------------------------------------------------------
# transgression


def _frame_pointwise_data(values: np.ndarray, partials: list[np.ndarray]):
    """Theta, Omega and [Theta, Theta] pair values from frame jets.

    ``values`` is (..., dim, k); derivatives of the induced projection are
    assembled algebraically from the frame jets, so the only discretization
    error is in the jets themselves.
    """
    w = values
    wh = np.swapaxes(w, -1, -2).conj()
    gram = wh @ w
    ginv = np.linalg.inv(gram)
    pinv = ginv @ wh
    pi = w @ pinv
    theta = {}
    dpi = {}
    for i, dw in enumerate(partials):
        dwh = np.swapaxes(dw, -1, -2).conj()
        theta[i] = pinv @ (pi @ dw)
        dpinv = -ginv @ (dwh @ w + wh @ dw) @ pinv + ginv @ dwh
        dpi[i] = dw @ pinv + w @ dpinv
    omega_pairs = {}
    bracket_pairs = {}
    for i, j in itertools.combinations(range(len(partials)), 2):
        comm = dpi[i] @ dpi[j] - dpi[j] @ dpi[i]
        omega_pairs[(i, j)] = pinv @ (pi @ comm @ w)
        bracket_pairs[(i, j)] = 2.0 * (theta[i] @ theta[j] - theta[j] @ theta[i])
    return theta, omega_pairs, bracket_pairs


def transgression_eta(frames: SampledMap, k: int) -> GradedForm:
    """Transgression form of degree ``2k - 1`` for a sampled frame family.

    The integral over ``t in [0, 1]`` of ``k tr(Theta ^ phi_t^(k-1))`` with
    ``phi_t = t Omega + (1/2)(t^2 - t) [Theta, Theta]``.  Degree
    ``2k - 1 <= 3`` means ``k <= 2``, where the integrand is linear in
    ``phi_t``, so the integral is ``k tr(Theta ^ phi^(k-1))`` with the exact
    mean ``phi = Omega / 2 - [Theta, Theta] / 12``.
    """
    if frames.codomain != "frame":
        raise DegenerateFrame("transgression needs a frame-tagged family")
    deg = 2 * k - 1
    dim = frames.domain.dim
    if deg > dim:
        raise DegenerateFrame(f"degree {deg} exceeds domain dimension {dim}")
    theta, omega_pairs, bracket_pairs = _frame_pointwise_data(frames.values, list(differentiate(frames)))
    phi = {key: 0.5 * omega_pairs[key] - bracket_pairs[key] / 12.0 for key in omega_pairs}
    theta = {(i,): a for i, a in theta.items()}
    c = chern_scalar("even", k) * k
    comps = trace_wedge(theta, *[phi] * (k - 1))
    return GradedForm(frames.domain, deg, -k, {idx: c * a for idx, a in comps.items()})


# ---------------------------------------------------------------------------
# virtual dimension and inclusions


def virtual_dimension(fr: Frame) -> int:
    """Kernel minus cokernel of the positive-mode compression of a frame.

    Both are counted against the whole positive window, so a subspace given
    as explicit columns plus a tail of standard modes reaching the window's
    top has the virtual dimension of the infinite subspace it encodes.
    Singular values at or below ``1e-8`` times the norm of the whole frame
    count as zero, so a row block holding only round-off has rank 0.
    """
    win = fr.window
    threshold = RANK_THRESHOLD_REL * fr.norm
    pi_plus_rows = fr.w[win.n_minus :, :]
    ker = fr.n_cols - numerical_rank(pi_plus_rows, threshold).numerical_rank
    coker = win.n_plus - numerical_rank(pi_plus_rows, threshold).numerical_rank
    return int(ker - coker)


@dataclass(frozen=True)
class SubspaceSpec:
    """Finite encoding of a window subspace: explicit columns plus a set of
    modes spanned by the standard basis (the declared tail)."""

    window: PolarizedWindow
    explicit: np.ndarray  # (dim, k), orthonormal, orthogonal to the tail modes
    tail_modes: tuple[int, ...] = ()

    def __post_init__(self):
        e = np.array(self.explicit, dtype=complex, order="C")
        if e.ndim != 2 or e.shape[0] != self.window.dim:
            raise DegenerateFrame("explicit block does not match the window")
        if e.shape[1]:
            gram_err = frobenius(e.conj().T @ e - np.eye(e.shape[1]))
            if gram_err >= 1e-10:
                raise DegenerateFrame(f"explicit columns not orthonormal: {gram_err:.3e}")
            rows = [self.window.index_of(m) for m in self.tail_modes]
            if rows and float(np.abs(e[rows, :]).max()) >= 1e-10:
                raise DegenerateFrame("explicit columns overlap the declared tail modes")
        e.flags.writeable = False
        object.__setattr__(self, "explicit", e)
        object.__setattr__(self, "tail_modes", tuple(sorted(int(m) for m in self.tail_modes)))

    def to_frame(self) -> Frame:
        cols = [self.explicit] if self.explicit.shape[1] else []
        for m in self.tail_modes:
            cols.append(self.window.basis_vector(m)[:, None])
        if not cols:
            raise DegenerateFrame("empty subspace spec")
        return Frame(self.window, np.concatenate(cols, axis=1))

    def flipped(self) -> "SubspaceSpec":
        """Orthogonal complement inside the window followed by the mode swap
        ``e_i -> e_{-i-1}`` (needs a symmetric window)."""
        win = self.window
        if win.n_minus != win.n_plus:
            raise DegenerateFrame("flip needs a symmetric window")
        tail = set(self.tail_modes)
        nontail = [m for m in range(-win.n_minus, win.n_plus) if m not in tail]
        rows = [win.index_of(m) for m in nontail]
        e_res = self.explicit[rows, :]
        # complement of the explicit block inside the non-tail coordinate span
        if e_res.shape[1]:
            u, s, _ = np.linalg.svd(e_res, full_matrices=True)
            comp = u[:, e_res.shape[1] :]
        else:
            comp = np.eye(len(nontail), dtype=complex)
        flip_cols = np.zeros((win.dim, comp.shape[1]), dtype=complex)
        for r, m in enumerate(nontail):
            flip_cols[win.index_of(-m - 1), :] = comp[r, :]
        # split pure standard-basis columns back into a tail pattern
        tail_out: list[int] = []
        keep: list[int] = []
        for c in range(flip_cols.shape[1]):
            col = flip_cols[:, c]
            nz = np.nonzero(np.abs(col) > 1e-12)[0]
            if nz.size == 1 and abs(abs(col[nz[0]]) - 1.0) < 1e-12:
                tail_out.append(win.mode_of(int(nz[0])))
            else:
                keep.append(c)
        return SubspaceSpec(
            window=win,
            explicit=flip_cols[:, keep],
            tail_modes=tuple(tail_out),
        )

    def blocksummed(self, other: "SubspaceSpec") -> "SubspaceSpec":
        """Graded interleave: this subspace on even modes, the other on odd."""
        win = self.window
        if other.window != win:
            raise DegenerateFrame("blocksum needs matching windows")
        big = PolarizedWindow(2 * win.n_minus, 2 * win.n_plus)

        def lift(e: np.ndarray, parity: int) -> np.ndarray:
            out = np.zeros((big.dim, e.shape[1]), dtype=complex)
            for idx in range(win.dim):
                m = win.mode_of(idx)
                out[big.index_of(2 * m + parity), :] = e[idx, :]
            return out

        explicit = np.concatenate([lift(self.explicit, 0), lift(other.explicit, 1)], axis=1)
        tail = tuple(2 * m for m in self.tail_modes) + tuple(2 * m + 1 for m in other.tail_modes)
        return SubspaceSpec(big, explicit, tail)

    def virtual_dimension(self) -> int:
        return virtual_dimension(self.to_frame())


def include_finite_grassmannian(pi: np.ndarray, half_size: int, window: PolarizedWindow) -> Frame:
    """Embed a ``2N``-dimensional subspace into the window as ``W + tail``.

    Coordinate ``j`` of the ``2N``-space sits on window mode ``N - 1 - j``
    (so the span of the first ``N`` coordinates lands on the positive modes
    ``0..N-1``), and the standard tail ``e_N .. e_{n_plus - 1}`` is appended.
    """
    n = half_size
    pi = np.asarray(pi, dtype=complex)
    if pi.shape != (2 * n, 2 * n):
        raise NotProjection(f"projection must be {2 * n}x{2 * n}")
    involution_from_projection(pi)  # validates projection-ness
    if window.n_plus < n or window.n_minus < n:
        raise WindowTooSmall(f"window {window} cannot hold a 2N = {2 * n} block")
    evals, evecs = np.linalg.eigh(pi)
    cols = evecs[:, evals > 0.5]
    lifted = np.zeros((window.dim, cols.shape[1]), dtype=complex)
    for j in range(2 * n):
        lifted[window.index_of(n - 1 - j), :] = cols[j, :]
    tail = [window.basis_vector(m)[:, None] for m in range(n, window.n_plus)]
    w = np.concatenate([lifted] + tail, axis=1) if tail else lifted
    return Frame(window, w)
