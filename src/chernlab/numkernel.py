"""Dense complex linear algebra primitives shared by every other module.

Matrices are plain ``numpy`` complex arrays throughout the package; this
module adds the handful of operations where the numerical contract matters
(polar factor, rank counting, determinant phases), the package's one real
embedding of complex matrices, and a few validation helpers.
"""

from __future__ import annotations

import functools

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
        If an entry is not finite, or the smallest singular value is <= 1e-12.
    """
    m = _as_square(m)
    if not np.isfinite(m).all():
        raise SingularInput("polar factor needs a finite matrix")
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


def _real_form(b: np.ndarray) -> np.ndarray:
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
    times faster.  The Chern-Simons kernels of :mod:`chernforms` form no
    ``R`` by these two writes: they widen once per slice or frame
    (:func:`_real_widening`), and a product with the widened form writes
    the real form of the product itself.
    """
    n, p = b.shape[-2:]
    out = np.empty((*b.shape[:-2], 2 * n, 2 * p))
    pairs = out.view(complex).reshape(*b.shape[:-2], n, 2, p)
    pairs[..., 0, :] = b
    np.multiply(b, 1j, out=pairs[..., 1, :])
    return out


@functools.cache
def _spread(p: int) -> np.ndarray:
    """``[1 | R(i) | R(i) | -1]``, ``2p x 8p`` and read-only, for ``p`` columns."""
    turn = _real_form(1j * np.eye(p))  # x.view(float) @ R(i) = (i x).view(float)
    out = np.hstack([np.eye(2 * p), turn, turn, -np.eye(2 * p)])
    out.flags.writeable = False
    return out


def _real_widening(b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``[R(b) | R(ib)]``, ``2n x 4p``, of a stack of complex ``n x p``
    matrices, written into ``out`` (whose last two axes are contiguous) as
    the free reshape of one stacked real product ``b.view(float) @ [1 |
    R(i) | R(i) | -1]``, ``n x 8p``: its row ``l`` holds rows ``2l`` and
    ``2l + 1`` of the widened form, ``[b[l] | i b[l]]`` and ``[i b[l] |
    -b[l]]`` as floats.  Each entry is an entry of ``b`` times 1 or -1, so
    exact, and a product ``a.view(float) @ [R(b) | R(ib)]``, ``m x
    4p``, is the free reshape of ``R(ab)``, ``2m x 2p``: the real form of
    the product comes with it, and is never formed by two writes.

    A stacked product is slower than one 2-D product of the flattened
    stack on 256 slices of 4 x 4 (19 us against 14 us, one thread), and
    faster on 12^3 frames of 8 x 4 (355 us against 466 us); the stacked
    form, which is also faster than :func:`_real_form` of the slices
    alone, is kept for both.
    """
    n, p = b.shape[-2:]
    np.matmul(b.view(float), _spread(p), out=out.reshape(*b.shape[:-1], 8 * p))
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
    return principal_angle(float(np.sum(np.angle(np.linalg.eigvals(require_unitary(u))))))


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary from a QR-factored Ginibre matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
