"""The package's one Fourier convention for periodic sampled data.

A periodic family is sampled at the ``N`` uniform nodes ``theta_k = 2 pi k / N``
of one turn, along axis 0 unless an axis is given.  Its coefficients are

    ``c_m = (1/N) sum_k x_k e^{-i m theta_k}``,  i.e. ``fft(x) / N``,

so that ``x_k = sum_m c_m e^{i m theta_k}``: coefficient ``m`` multiplies
``e^{i m theta}``, and a loop ``theta -> e^{i n theta}`` has its only
coefficient at order ``+n``.  Orders are signed and stored in FFT layout
(:func:`orders`).  For even ``N`` the Nyquist coefficient is ambiguous between
orders ``+-N/2``:

* off-grid evaluation (:class:`Interpolant`) splits it evenly between the two,
  so real samples give a real interpolant;
* the on-grid derivative and antiderivative treat its wavenumber as 0, the
  limit of that split on the grid.
"""

from __future__ import annotations

import numpy as np

__all__ = ["orders", "coefficients", "Interpolant", "derivative", "antiderivative"]


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


class Interpolant:
    """Trigonometric interpolant ``x(theta) = sum_m c_m e^{i m theta}`` of
    samples along axis 0; ``value(theta_k)`` returns ``samples[k]``."""

    def __init__(self, samples: np.ndarray):
        n = samples.shape[0]
        coeffs = coefficients(samples)
        m = orders(n).astype(float)
        if n % 2 == 0:
            ny = n // 2
            coeffs = np.concatenate([coeffs, coeffs[ny : ny + 1]], axis=0)
            coeffs[ny] *= 0.5
            coeffs[-1] *= 0.5
            m = np.concatenate([m, [-m[ny]]])
        self.orders = m
        self.coeffs = coeffs

    def value(self, theta: float) -> np.ndarray:
        phases = np.exp(1j * self.orders * theta)
        return np.tensordot(phases, self.coeffs, axes=(0, 0))

    def derivative(self, theta: float) -> np.ndarray:
        """``dx/dtheta`` at ``theta``."""
        phases = 1j * self.orders * np.exp(1j * self.orders * theta)
        return np.tensordot(phases, self.coeffs, axes=(0, 0))


def derivative(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Spectral ``d/dtheta`` of samples on the nodes, along ``axis``."""
    n = values.shape[axis]
    shape = [1] * values.ndim
    shape[axis] = n
    mult = (1j * _wavenumbers(n)).reshape(shape)
    return np.fft.ifft(np.fft.fft(values, axis=axis) * mult, axis=axis)


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
