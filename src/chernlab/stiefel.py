"""Subspaces of a truncated polarized mode window, their virtual dimension,
and the transgression form of the universal connection and curvature of a
sampled frame family: orthonormal frames ``V`` (``V* V = 1``, the contract
of the ``"frame"`` tag) of the projections ``V V*``, a section of the
Stiefel bundle over the Grassmannian.

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
from .chernforms import _FrameCurvature, chern_scalar
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
    """Mode window ``-n_minus .. n_plus - 1`` with grading by mode sign;
    ShapeMismatch unless both sizes are integers of at least 0."""

    n_minus: int
    n_plus: int

    def __post_init__(self):
        if not all(isinstance(n, (int, np.integer)) and n >= 0 for n in (self.n_minus, self.n_plus)):
            raise ShapeMismatch(f"window sizes must be integers >= 0, got {self.n_minus!r} and {self.n_plus!r}")

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


def _curvature(v: np.ndarray, jets: tuple[np.ndarray, ...]) -> dict[tuple[int, int], np.ndarray]:
    """``F_ij = V* [d_i P, d_j P] V`` of the frames ``v`` and their ``jets``,
    ``i < j``, read back from the real forms ``R(F_ij)`` of
    :class:`_FrameCurvature`.  Its slot 0 is only paired from the left, so
    the jets fill slots ``1..`` and slot 0 takes the first once more."""
    kernel = _FrameCurvature(len(jets) + 1)
    kernel.frame(v)
    kernel.fill(jets[:1] + jets, ())
    pairs = itertools.combinations(range(len(jets)), 2)
    return {(i, j): kernel.curvature(i + 1, j + 1).view(complex)[..., ::2, :] for i, j in pairs}


def transgression_eta(frames: SampledMap, k: int) -> GradedForm:
    """Transgression form of degree ``2k - 1`` of orthonormal frames ``V``
    (a ``"frame"``-tagged map) of the projections ``P = V V*``.

    The integral over ``t in [0, 1]`` of ``k tr(Theta ^ phi_t^(k-1))``, with
    ``Theta_i = V* d_i V``, ``phi_t = t F + (t^2 - t) [Theta, Theta]``,
    ``[Theta, Theta]_ij = Theta_i Theta_j - Theta_j Theta_i`` and
    ``F_ij = V* [d_i P, d_j P] V``, formed only for ``k > 1``.  Degree
    ``2k - 1 <= 3`` means ``k <= 2``, where the integrand is linear in
    ``phi_t``, so the integral is ``k tr(Theta ^ phi^(k-1))`` with the exact
    mean ``phi = F / 2 - [Theta, Theta] / 6``; ``d eta_1`` is ``ch_1`` of
    ``P``.  ``phi`` mixes ``F`` with ``[Theta, Theta]``, so its traces are not
    those of ``F`` alone: this is the one reader of the kernel
    :class:`_FrameCurvature` that needs ``F`` as a matrix, and it reads
    ``F_ij`` back from the real form ``R(F_ij)`` that the kernel takes by one
    real product (:func:`_curvature`).  ``Theta`` is a form of the frame, not
    of ``P`` (``V -> V g`` adds ``g* dg``), so every jet here, ``F``'s too, is
    a jet of ``V``: its exact partials or its grid jets.  A CS form of
    :mod:`chernforms` depends on ``P`` alone and reads the grid jets of ``P``.
    """
    if frames.codomain != "frame":
        raise ShapeMismatch("transgression needs a frame-tagged family")
    deg = 2 * k - 1
    dim = frames.domain.dim
    if deg > dim:
        raise DegreeOverflow(f"degree {deg} exceeds domain dimension {dim}")
    v, jets = frames.values, differentiate(frames)
    v_adj = np.swapaxes(v, -1, -2).conj()
    theta = [v_adj @ x for x in jets]
    curvature = _curvature(v, jets) if k > 1 else {}
    phi = {(i, j): 0.5 * f - (theta[i] @ theta[j] - theta[j] @ theta[i]) / 6.0 for (i, j), f in curvature.items()}
    c = chern_scalar("even", k) * k
    if k == 1:
        comps = {(i,): np.trace(a, axis1=-2, axis2=-1) for i, a in enumerate(theta)}
    else:  # degree 3 = dim: tr(Theta_0 phi_12) - tr(Theta_1 phi_02) + tr(Theta_2 phi_01)
        terms = [np.einsum("...ij,...ji->...", theta[i], phi[jk]) for i, jk in ((0, (1, 2)), (1, (0, 2)), (2, (0, 1)))]
        comps = {(0, 1, 2): terms[0] - terms[1] + terms[2]}
    return GradedForm(frames.domain, deg, {idx: c * a for idx, a in comps.items()})


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
        if not gram_err < 1e-10:
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

    Both counts subtract the same rank of the same rows, so the virtual
    dimension is ``spec.basis.shape[1] - spec.window.n_plus`` for every
    orthonormal basis, whatever the threshold.  The two ``numerical_rank``
    SVDs (4.8 ms of a traced ``bott_loops`` op) stay only because
    ``perfbench/test_perfbench.py`` pins two calls: a change to the
    benchmark must relax that pin first.
    """
    win = spec.window
    pi_plus_rows = spec.basis[win.n_minus :]
    ker = spec.basis.shape[1] - numerical_rank(pi_plus_rows, RANK_THRESHOLD_REL)
    coker = win.n_plus - numerical_rank(pi_plus_rows, RANK_THRESHOLD_REL)
    return int(ker - coker)
