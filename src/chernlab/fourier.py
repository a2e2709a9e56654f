"""The package's one Fourier convention for periodic sampled data.

A periodic family is sampled at the ``N`` uniform nodes ``theta_k = 2 pi k / N``
of one turn, along axis 0 unless an axis is given.  Its coefficients are

    ``c_m = (1/N) sum_k x_k e^{-i m theta_k}``,  i.e. ``fft(x) / N``,

so that ``x_k = sum_m c_m e^{i m theta_k}``: coefficient ``m`` multiplies
``e^{i m theta}``, and a loop ``theta -> e^{i n theta}`` has its only
coefficient at order ``+n``.  Orders are signed and stored in FFT layout
(:func:`orders`).  For even ``N`` the Nyquist coefficient is ambiguous between
orders ``+-N/2``:

* :func:`resample`, the trigonometric interpolant on a finer uniform grid,
  splits it evenly between the two, so real samples give a real interpolant;
* the on-grid derivative and antiderivative treat its wavenumber as 0, the
  limit of that split on the grid.

:func:`derivative` has two paths under this one convention.  An axis of at
most ``DENSE_MAX`` nodes is differentiated by one real matmul with the
``N x N`` matrix that the FFT path makes of the identity, cached read-only
per ``N``; on the short axes of sampled grids one such product costs less
than two strided FFTs.  Longer axes take the FFT path.  Both read the
wavenumbers, Nyquist rule included, from :func:`_wavenumbers` alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BadResolution, ShapeMismatch

__all__ = ["orders", "coefficients", "resample", "derivative", "antiderivative"]

DENSE_MAX = 128  # longest axis differentiated by a dense matrix; the FFT is faster from 256 nodes


def orders(n: int) -> np.ndarray:
    """Signed integer orders ``0, 1, .., -2, -1`` in the layout of :func:`coefficients`."""
    m = np.arange(n)
    return np.where(m < (n + 1) // 2, m, m - n)


def coefficients(samples: np.ndarray) -> np.ndarray:
    """``c_m = fft(samples) / N`` along axis 0, slot ``i`` holding order ``orders(N)[i]``."""
    samples = np.asarray(samples)
    return np.fft.fft(samples, axis=0) / samples.shape[0]


def _wavenumbers(n: int) -> np.ndarray:
    """Orders as derivative multipliers, with the Nyquist wavenumber set to 0."""
    k = orders(n).astype(float)
    if n % 2 == 0:
        k[n // 2] = 0.0
    return k


def resample(samples: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The trigonometric interpolant of ``N`` samples (axis 0) on ``n >= N``
    uniform nodes and its exact ``d/dtheta`` there, the inverse transforms of
    one zero-padded spectrum ``c_m`` and of ``i m c_m``; ``resample(x, k * N)[0][::k]``
    returns ``x``.  Raises BadResolution unless ``n >= N`` is an integer.
    """
    c = coefficients(samples)
    N = c.shape[0]
    if not isinstance(n, (int, np.integer)):
        raise BadResolution(f"resample needs an integer node count, got {n!r}")
    if n < N:
        raise BadResolution(f"cannot resample {N} nodes onto {n} < {N}")
    fine = np.zeros((n,) + c.shape[1:], dtype=complex)
    fine[orders(N) % n] = c
    if N % 2 == 0:  # split the Nyquist coefficient evenly between orders -N/2 and +N/2
        half = 0.5 * c[N // 2]
        fine[n - N // 2] -= half
        fine[N // 2] += half
    values = np.fft.ifft(fine, axis=0, norm="forward")  # sum_m c_m e^{i m theta}, unscaled
    fine *= (1j * _wavenumbers(n)).reshape((n,) + (1,) * (fine.ndim - 1))
    return values, np.fft.ifft(fine, axis=0, norm="forward", out=fine)


def _fft_derivative(values: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    n = values.shape[axis]
    shape = [1] * values.ndim
    shape[axis] = n
    spectrum = np.fft.fft(values, axis=axis, out=out)
    spectrum *= (1j * _wavenumbers(n)).reshape(shape)
    return np.fft.ifft(spectrum, axis=axis, out=out)


@functools.cache
def _derivative_matrix(n: int) -> np.ndarray:
    """The real ``n x n`` matrix of :func:`derivative` on ``n`` nodes, read-only."""
    d = np.ascontiguousarray(_fft_derivative(np.eye(n, dtype=complex), 0).real)
    d.flags.writeable = False
    return d


def derivative(values: np.ndarray, axis: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Spectral ``d/dtheta`` of samples on the nodes, along ``axis``; written
    into ``out`` (C-contiguous, of the shape of ``values``) when it is given.
    ShapeMismatch unless ``axis`` is an axis of ``values`` and ``out``, when
    given, has its shape and is C-contiguous."""
    if not (isinstance(axis, (int, np.integer)) and -values.ndim <= axis < values.ndim):
        raise ShapeMismatch(f"derivative along axis {axis!r} of samples of shape {values.shape}")
    if out is not None and out.shape != values.shape:
        raise ShapeMismatch(f"derivative of samples of shape {values.shape} into an out of shape {out.shape}")
    if out is not None and not out.flags.c_contiguous:
        raise ShapeMismatch(f"derivative into an out of shape {out.shape} that is not C-contiguous")
    n = values.shape[axis]
    if n > DENSE_MAX:
        return _fft_derivative(values, axis, out)
    # the matrix is real, so it acts on real and imaginary parts alike: one
    # real product on the float views, the node axis in the middle
    x = np.ascontiguousarray(values, dtype=complex)
    lead = math.prod(x.shape[: axis % x.ndim])
    out = np.empty_like(x) if out is None else out
    np.matmul(_derivative_matrix(n), x.view(float).reshape(lead, n, -1), out=out.view(float).reshape(lead, n, -1))
    return out


def antiderivative(samples: np.ndarray) -> np.ndarray:
    """``A(theta_k) = int_0^{theta_k} x`` along axis 0.

    The mean mode ``c_0`` becomes the linear term ``c_0 theta``; every other
    mode ``m`` contributes ``c_m (e^{i m theta} - 1) / (i m)``.  Exact for
    band-limited samples.
    """
    samples = np.asarray(samples)
    n = samples.shape[0]
    shape = (n,) + (1,) * (samples.ndim - 1)
    c = coefficients(samples)
    k = _wavenumbers(n).reshape(shape)
    q = np.divide(c, 1j * k, out=np.zeros_like(c), where=k != 0)
    periodic = np.fft.ifft(q * n, axis=0)
    theta = (2.0 * np.pi * np.arange(n) / n).reshape(shape)
    return c[0] * theta + periodic - periodic[0]
