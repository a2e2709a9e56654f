"""Dense complex linear algebra primitives shared by every other module.

Matrices are plain ``numpy`` complex arrays throughout the package; this
module adds the handful of operations where the numerical contract matters
(polar factor, rank counting, determinant phases), the package's one real
embedding of complex matrices, and a few validation helpers.
"""

from __future__ import annotations

import numpy as np

from .errors import NotUnitary, SingularInput

__all__ = [
    "polar_unitary",
    "numerical_rank",
    "det_phase",
    "frobenius",
    "require_unitary",
    "haar_unitary",
    "principal_angle",
]

RANK_THRESHOLD_REL = 1e-8  # absolute rank threshold, for inputs of norm 1
ISOMETRY_TOL = 1e-8  # the largest ||x* x - 1||_F that a unitary or a frame may have at a node


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SingularInput(f"expected a square matrix, got shape {m.shape}")
    return m


def _isometry_defect(x: np.ndarray) -> float:
    """The largest ``||x* x - 1||_F`` over a stack of matrices ``(..., n, k)``:
    the one rule of unitaries (``k = n``) and of frames (``k <= n``), both
    held to ``ISOMETRY_TOL``.  NaN when an entry is NaN; 0 for matrices
    without columns, the frames of the zero projection."""
    defect = np.swapaxes(x, -1, -2).conj() @ x
    defect -= np.eye(x.shape[-1])
    squares = defect.view(float)
    return float(np.sqrt(np.max(np.einsum("...ij,...ij->...", squares, squares))))


def require_unitary(u) -> np.ndarray:
    u = _as_square(u)
    err = _isometry_defect(u)
    if not err < ISOMETRY_TOL:
        raise NotUnitary(f"||u*u - I||_F = {err:.3e} >= {ISOMETRY_TOL:.1e}")
    return u


def polar_unitary(m) -> np.ndarray:
    """Unitary polar factor ``U = m (m*m)^{-1/2}``, computed from the SVD.

    Raises
    ------
    SingularInput
        If the smallest singular value is <= 1e-12.
    """
    m = _as_square(m)
    v, s, wh = np.linalg.svd(m)
    if s[-1] <= 1e-12:
        raise SingularInput(f"smallest singular value {s[-1]:.3e} <= 1e-12")
    return v @ wh


def numerical_rank(m, threshold: float) -> int:
    """The number of singular values of ``m`` above the absolute ``threshold``."""
    if not threshold >= 0:
        raise SingularInput(f"threshold must be non-negative, got {threshold}")
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    return int(np.count_nonzero(s > threshold))


def _real_form(b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``R(b)``, the real ``2n x 2p`` form of a stack of complex ``n x p``
    matrices: an entry ``z`` becomes the ``2 x 2`` block
    ``[[Re z, Im z], [-Im z, Re z]]``.  Row pair ``l``, read as complex, is
    ``b[l]`` and ``1j b[l]``, so it takes two writes: a copy and a multiply
    by ``1j``.  It is the package's one real embedding of complex matrices:

    - products: ``(a @ b).view(float) = a.view(float) @ R(b)`` on the right,
      and ``R(a) R(b) = R(ab)`` (``R`` is an injective ring homomorphism);
    - adjoints: ``R(b*) = R(b)^T``;
    - read-back: ``R(b).view(complex)[..., ::2, :]`` is ``b``, exactly.

    numpy multiplies a stack of small complex matrices by one ``zgemm``
    call per matrix; stacked real products of the same algebra run several
    times faster.
    """
    n, p = b.shape[-2:]
    if out is None:
        out = np.empty((*b.shape[:-2], 2 * n, 2 * p))
    pairs = out.view(complex).reshape(*b.shape[:-2], n, 2, p)
    pairs[..., 0, :] = b
    np.multiply(b, 1j, out=pairs[..., 1, :])
    return out


def principal_angle(x: float) -> float:
    """Wrap a real number into the principal branch ``(-pi, pi]``."""
    return float(x - 2.0 * np.pi * np.ceil((x - np.pi) / (2.0 * np.pi)))


def det_phase(u) -> float:
    """Principal argument of ``det(u)`` for unitary ``u``.

    Accumulates the eigenvalue phases (Schur spectrum) instead of forming the
    raw determinant, so large windows neither overflow nor lose phase
    information through cancellation.
    """
    return _det_phase(require_unitary(u))


def _det_phase(u: np.ndarray) -> float:
    """:func:`det_phase` of a matrix whose unitarity was checked elsewhere."""
    return principal_angle(float(np.sum(np.angle(np.linalg.eigvals(u)))))


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary from a QR-factored Ginibre matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
