import numpy as np
import pytest

from chernlab import fourier

RNG = np.random.default_rng(1905)


def nodes(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


@pytest.mark.parametrize("n", [15, 16])
def test_interpolant_returns_the_samples_on_the_nodes(n):
    samples = RNG.standard_normal((n, 2, 3)) + 1j * RNG.standard_normal((n, 2, 3))
    path = fourier.Interpolant(samples)
    for k, theta in enumerate(nodes(n)):
        assert np.abs(path.value(theta) - samples[k]).max() < 1e-13


@pytest.mark.parametrize("q", [-3, -1, 0, 2, 5])
def test_monomial_has_one_coefficient_at_its_order(q):
    n = 16
    coeffs = fourier.coefficients(np.exp(1j * q * nodes(n)))
    expected = np.where(fourier.orders(n) == q, 1.0, 0.0)
    assert np.abs(coeffs - expected).max() < 1e-14


@pytest.mark.parametrize("q", [-7, -2, 1, 3, 7])
@pytest.mark.parametrize("n", [16, 17])
def test_derivative_of_monomial(q, n):
    theta = nodes(n)
    x = np.exp(1j * q * theta)
    assert np.abs(fourier.derivative(x) - 1j * q * x).max() < 1e-12
    path = fourier.Interpolant(x[:, None, None])
    for t in (0.3, 2.0, 5.9):
        assert abs(path.value(t)[0, 0] - np.exp(1j * q * t)) < 1e-12
        assert abs(path.derivative(t)[0, 0] - 1j * q * np.exp(1j * q * t)) < 1e-11


def test_derivative_along_an_axis_and_nyquist_mode():
    n = 12
    theta = nodes(n)
    grid = np.exp(2j * theta)[None, :, None] * np.ones((3, 1, 2))
    assert np.abs(fourier.derivative(grid, axis=1) - 2j * grid).max() < 1e-12
    nyquist = np.cos(n // 2 * theta)  # (-1)^k on the nodes
    assert np.abs(fourier.derivative(nyquist)).max() < 1e-12
    path = fourier.Interpolant(nyquist)
    assert abs(path.value(0.1) - np.cos(n // 2 * 0.1)) < 1e-12


@pytest.mark.parametrize("n", [32, 33])
def test_antiderivative_is_exact_on_band_limited_data(n):
    theta = nodes(n)
    a = 0.7 + 0.3 * np.cos(2 * theta) + 0.5 * np.sin(3 * theta) + 0.2j * np.exp(-5j * theta)
    exact = (
        0.7 * theta
        + 0.15 * np.sin(2 * theta)
        + 0.5 * (1.0 - np.cos(3 * theta)) / 3.0
        + 0.2j * (np.exp(-5j * theta) - 1.0) / (-5j)
    )
    assert np.abs(fourier.antiderivative(a) - exact).max() < 1e-13
    assert np.abs(fourier.antiderivative(np.stack([a, 2 * a], -1)) - np.stack([exact, 2 * exact], -1)).max() < 1e-13
