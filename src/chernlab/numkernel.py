"""Dense complex linear algebra primitives shared by every other module.

Matrices are plain ``numpy`` complex arrays throughout the package; this
module adds the handful of operations where the numerical contract matters
(polar factor, rank counting, determinant phases) plus a few validation
helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotUnitary, SingularInput

__all__ = [
    "RankReport",
    "polar_unitary",
    "numerical_rank",
    "det_phase",
    "frobenius",
    "require_unitary",
    "haar_unitary",
    "principal_angle",
    "pairwise_sum",
]

RANK_THRESHOLD_REL = 1e-8  # default: 1e-8 x largest singular value


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SingularInput(f"expected a square matrix, got shape {m.shape}")
    return m


def require_unitary(u) -> np.ndarray:
    u = _as_square(u)
    err = frobenius(u.conj().T @ u - np.eye(u.shape[0]))
    if err >= 1e-8:
        raise NotUnitary(f"||u*u - I||_F = {err:.3e} >= 1.0e-08")
    return u


@dataclass(frozen=True)
class RankReport:
    """Singular values (descending) together with the thresholded rank."""

    singular_values: np.ndarray
    numerical_rank: int
    threshold: float


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


def numerical_rank(m, threshold: float | None = None) -> RankReport:
    """Count singular values above ``threshold``.

    ``threshold`` defaults to ``1e-8`` times the largest singular value, so the
    count is scale-invariant; pass an absolute value to override.
    """
    m = np.asarray(m, dtype=complex)
    s = np.linalg.svd(m, compute_uv=False)
    if threshold is None:
        threshold = RANK_THRESHOLD_REL * (float(s[0]) if s.size else 0.0)
    if threshold < 0:
        raise SingularInput("threshold must be non-negative")
    rank = int(np.count_nonzero(s > threshold))
    return RankReport(singular_values=s, numerical_rank=rank, threshold=float(threshold))


def principal_angle(x: float) -> float:
    """Wrap a real number into the principal branch ``(-pi, pi]``."""
    return float(x - 2.0 * np.pi * np.ceil((x - np.pi) / (2.0 * np.pi)))


def det_phase(u) -> float:
    """Principal argument of ``det(u)`` for unitary ``u``.

    Accumulates the eigenvalue phases (Schur spectrum) instead of forming the
    raw determinant, so large windows neither overflow nor lose phase
    information through cancellation.
    """
    u = require_unitary(u)
    eig = np.linalg.eigvals(u)
    total = float(np.sum(np.angle(eig)))
    return principal_angle(total)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary from a QR-factored Ginibre matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def pairwise_sum(values: np.ndarray) -> complex:
    """Deterministic pairwise (tree) reduction of a 1-d array.

    The reduction order depends only on the array length, never on chunking
    or thread count, so serial and parallel callers agree bitwise.
    """
    a = np.asarray(values).ravel()
    if a.size == 0:
        return complex(0.0)
    while a.size > 1:
        half = a.size // 2
        head = a[: 2 * half]
        a = head[0::2] + head[1::2] if a.size % 2 == 0 else np.concatenate(
            [head[0::2] + head[1::2], a[-1:]]
        )
    return complex(a[0])
