"""Subspaces of a truncated polarized mode window, their virtual dimension,
and the transgression form of the universal connection and curvature of a
sampled frame family.

A window keeps modes ``-n_minus .. n_plus - 1`` of a Z-graded basis; the
polarization is the sign of the mode.  A subspace is an orthonormal basis of
window columns; identity columns for the modes up to the window's top stand
for the standard tail of an infinite subspace commensurable with ``H_+``.

Index extraction never uses square finite sections (they cannot see the
index): the virtual dimension is counted against the whole positive window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricWindow,
    DegenerateFrame,
    DegreeOverflow,
    ShapeMismatch,
    WindowTooSmall,
)
from .chernforms import chern_scalar, trace_wedge
from .geomgrid import GradedForm, SampledMap, differentiate
from .numkernel import RANK_THRESHOLD_REL, frobenius, numerical_rank

__all__ = [
    "PolarizedWindow",
    "SubspaceSpec",
    "transgression_eta",
    "virtual_dimension",
]


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

    @property
    def epsilon(self) -> np.ndarray:
        signs = np.where(np.arange(self.dim) >= self.n_minus, 1.0, -1.0)
        return np.diag(signs).astype(complex)

    @property
    def pi_plus(self) -> np.ndarray:
        d = np.where(np.arange(self.dim) >= self.n_minus, 1.0, 0.0)
        return np.diag(d).astype(complex)


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
        raise ShapeMismatch("transgression needs a frame-tagged family")
    deg = 2 * k - 1
    dim = frames.domain.dim
    if deg > dim:
        raise DegreeOverflow(f"degree {deg} exceeds domain dimension {dim}")
    theta, omega_pairs, bracket_pairs = _frame_pointwise_data(frames.values, list(differentiate(frames)))
    phi = {key: 0.5 * omega_pairs[key] - bracket_pairs[key] / 12.0 for key in omega_pairs}
    theta = {(i,): a for i, a in theta.items()}
    c = chern_scalar("even", k) * k
    comps = trace_wedge(theta, *[phi] * (k - 1))
    return GradedForm(frames.domain, deg, -k, {idx: c * a for idx, a in comps.items()})


# ---------------------------------------------------------------------------
# subspaces and their virtual dimension


@dataclass(frozen=True)
class SubspaceSpec:
    """A window subspace held as an orthonormal basis ``(dim, k)``.

    Identity columns for the modes up to the window's top encode the standard
    tail of an infinite subspace.
    """

    window: PolarizedWindow
    basis: np.ndarray

    def __post_init__(self):
        q = np.array(self.basis, dtype=complex, order="C")
        if q.ndim != 2 or q.shape[0] != self.window.dim:
            raise ShapeMismatch(f"basis shape {q.shape} does not match window dim {self.window.dim}")
        gram_err = frobenius(q.conj().T @ q - np.eye(q.shape[1]))
        if gram_err >= 1e-10:
            raise DegenerateFrame(f"basis columns not orthonormal: {gram_err:.3e}")
        q.flags.writeable = False
        object.__setattr__(self, "basis", q)

    def flipped(self) -> "SubspaceSpec":
        """Orthogonal complement inside the window followed by the mode swap
        ``e_i -> e_{-i-1}``, which reverses the rows (needs a symmetric window).

        The complement is the trailing columns of a complete Householder QR.
        """
        win = self.window
        if win.n_minus != win.n_plus:
            raise AsymmetricWindow("flip needs n_plus == n_minus")
        q, _ = np.linalg.qr(self.basis, mode="complete")
        return SubspaceSpec(win, q[::-1, self.basis.shape[1] :])

    def blocksummed(self, other: "SubspaceSpec") -> "SubspaceSpec":
        """Graded interleave on the doubled window: this subspace on the even
        rows, the other on the odd rows (the interleave of ``kops.blocksum``)."""
        win = self.window
        if other.window != win:
            raise ShapeMismatch("blocksum needs matching windows")
        k = self.basis.shape[1]
        out = np.zeros((2 * win.dim, k + other.basis.shape[1]), dtype=complex)
        out[0::2, :k] = self.basis
        out[1::2, k:] = other.basis
        return SubspaceSpec(PolarizedWindow(2 * win.n_minus, 2 * win.n_plus), out)


def virtual_dimension(spec: SubspaceSpec) -> int:
    """Kernel minus cokernel of the positive-mode compression of a subspace.

    Both are counted against the whole positive window, so a basis whose
    identity columns reach the window's top has the virtual dimension of the
    infinite subspace it encodes.  Singular values at or below
    ``RANK_THRESHOLD_REL`` (the basis is orthonormal, so this is relative to
    its norm 1) count as zero, so a row block holding only round-off has
    rank 0.
    """
    win = spec.window
    pi_plus_rows = spec.basis[win.n_minus :]
    ker = spec.basis.shape[1] - numerical_rank(pi_plus_rows, RANK_THRESHOLD_REL).numerical_rank
    coker = win.n_plus - numerical_rank(pi_plus_rows, RANK_THRESHOLD_REL).numerical_rank
    return int(ker - coker)
