import numpy as np
import pytest

from chernlab import fourier
from chernlab.errors import BadResolution, ChernLabError, ShapeMismatch

RNG = np.random.default_rng(1905)


def nodes(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


def direct_interpolant(x: np.ndarray, theta: np.ndarray, derivative: bool = False) -> np.ndarray:
    """``sum_m c_m e^{i m theta}`` over ``|m| <= N/2``, term by term, with the
    coefficient of ``|m| = N/2`` (even ``N``) split evenly between the two;
    with ``derivative``, each term times ``i m``."""
    n = x.shape[0]
    m = np.arange(-(n // 2), n // 2 + 1)
    weight = np.where(2 * np.abs(m) == n, 0.5, 1.0) * (1j * m if derivative else 1.0)
    c = np.exp(-1j * np.outer(m, nodes(n))) @ x.reshape(n, -1) / n
    return ((weight * np.exp(1j * np.outer(theta, m))) @ c).reshape(theta.size, *x.shape[1:])


@pytest.mark.parametrize("n", [15, 16])
def test_interpolant_returns_the_samples_on_the_nodes(n):
    samples = RNG.standard_normal((n, 2, 3)) + 1j * RNG.standard_normal((n, 2, 3))
    assert np.abs(fourier.resample(samples, 3 * n)[0][::3] - samples).max() < 1e-13


@pytest.mark.parametrize("fine", [1, 3, None])
@pytest.mark.parametrize("n", [15, 16])
def test_resample_matches_the_direct_sum(n, fine):
    samples = RNG.standard_normal((n, 2, 3)) + 1j * RNG.standard_normal((n, 2, 3))
    m = 100 if fine is None else fine * n
    values, derivative = fourier.resample(samples, m)
    assert np.abs(values - direct_interpolant(samples, nodes(m))).max() < 1e-12
    assert np.abs(derivative - direct_interpolant(samples, nodes(m), derivative=True)).max() < 1e-11


def test_resample_onto_fewer_nodes_is_rejected():
    with pytest.raises(BadResolution):
        fourier.resample(np.ones(16), 15)


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
    fine, d_fine = (v[:, 0, 0] for v in fourier.resample(x[:, None, None], 4 * n))
    exact = np.exp(1j * q * nodes(4 * n))
    assert np.abs(fine - exact).max() < 1e-12
    assert np.abs(fourier.derivative(fine) - 1j * q * exact).max() < 1e-11
    assert np.abs(d_fine - 1j * q * exact).max() < 1e-12


def test_derivative_along_an_axis_and_nyquist_mode():
    n = 12
    theta = nodes(n)
    grid = np.exp(2j * theta)[None, :, None] * np.ones((3, 1, 2))
    assert np.abs(fourier.derivative(grid, axis=1) - 2j * grid).max() < 1e-12
    nyquist = np.cos(n // 2 * theta)  # (-1)^k on the nodes
    assert np.abs(fourier.derivative(nyquist)).max() < 1e-12
    fine, d_fine = fourier.resample(nyquist, 50)
    assert np.abs(fine - np.cos(n // 2 * nodes(50))).max() < 1e-12
    assert np.abs(d_fine + n // 2 * np.sin(n // 2 * nodes(50))).max() < 1e-12


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_derivative_into_a_given_array_is_the_allocating_one(axis):
    rng = np.random.default_rng(4)
    values = rng.standard_normal((6, 7, 8, 2, 2)) + 1j * rng.standard_normal((6, 7, 8, 2, 2))
    out = np.empty_like(values)
    got = fourier.derivative(values, axis, out)
    assert got is out
    assert np.array_equal(got, fourier.derivative(values, axis))


@pytest.mark.parametrize("n", [9, 16, 127, 128, 129, 256])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_derivative_matrix_matches_the_fft_path(n, axis):
    rng = np.random.default_rng(n + axis)
    shape = [3, 4, 2]
    shape[axis] = n
    values = rng.standard_normal((*shape, 2, 2)) + 1j * rng.standard_normal((*shape, 2, 2))
    expected = fourier._fft_derivative(values, axis)
    out = np.empty_like(values)
    for got in (fourier.derivative(values, axis), fourier.derivative(values, axis, out)):
        assert np.abs(got - expected).max() <= 1e-13 * n
    assert np.array_equal(out, fourier.derivative(values, axis))
    strided = np.swapaxes(values, -1, -2)[..., ::-1, :]
    assert not strided.flags.c_contiguous
    expected = fourier._fft_derivative(strided, axis)
    for got in (fourier.derivative(strided, axis), fourier.derivative(strided, axis, np.empty_like(values))):
        assert np.abs(got - expected).max() <= 1e-13 * n


@pytest.mark.parametrize("n", [16, 17])
def test_derivative_matrix_of_a_one_dimensional_array(n):
    x = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
    assert np.abs(fourier.derivative(x) - fourier._fft_derivative(x, 0)).max() <= 1e-13 * n


def test_only_short_axes_cache_a_derivative_matrix():
    fourier._derivative_matrix.cache_clear()
    fourier.derivative(np.ones((fourier.DENSE_MAX + 1, 2), dtype=complex))
    assert fourier._derivative_matrix.cache_info().currsize == 0
    fourier.derivative(np.ones((fourier.DENSE_MAX, 2), dtype=complex))
    fourier.derivative(np.ones((2, fourier.DENSE_MAX), dtype=complex), axis=1)
    assert fourier._derivative_matrix.cache_info().currsize == 1
    d = fourier._derivative_matrix(fourier.DENSE_MAX)
    assert d.dtype == float and not d.flags.writeable


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


_SAMPLES = np.ones((8, 2, 2), dtype=complex)

CONTRACT_CHECKS = {
    "resample onto a fractional node count": (
        lambda: fourier.resample(np.ones(8), 8.5),
        BadResolution,
        "resample needs an integer node count, got 8.5",
    ),
    "derivative along a missing axis": (
        lambda: fourier.derivative(_SAMPLES, axis=9),
        ShapeMismatch,
        r"derivative along axis 9 of samples of shape \(8, 2, 2\)",
    ),
    "derivative along a fractional axis": (
        lambda: fourier.derivative(_SAMPLES, axis=1.5),
        ShapeMismatch,
        "derivative along axis 1.5",
    ),
    "derivative into an out of another shape": (
        lambda: fourier.derivative(_SAMPLES, 0, np.empty((8, 2, 3), dtype=complex)),
        ShapeMismatch,
        r"derivative of samples of shape \(8, 2, 2\) into an out of shape \(8, 2, 3\)",
    ),
    "FFT derivative into an out of another shape": (
        lambda: fourier.derivative(np.ones(fourier.DENSE_MAX + 1, dtype=complex), 0, np.empty(fourier.DENSE_MAX)),
        ShapeMismatch,
        r"into an out of shape \(128,\)",
    ),
    "derivative into a strided out": (
        lambda: fourier.derivative(_SAMPLES, 0, np.empty((8, 2, 4), dtype=complex)[..., ::2]),
        ShapeMismatch,
        r"into an out of shape \(8, 2, 2\) that is not C-contiguous",
    ),
    "FFT derivative into a strided out": (
        lambda: fourier.derivative(
            np.ones((fourier.DENSE_MAX + 1, 2), dtype=complex),
            0,
            np.empty((fourier.DENSE_MAX + 1, 4), dtype=complex)[:, ::2],
        ),
        ShapeMismatch,
        r"into an out of shape \(129, 2\) that is not C-contiguous",
    ),
}


@pytest.mark.parametrize("name", CONTRACT_CHECKS)
def test_contract_checks_raise_their_errors(name):
    call, error, fragment = CONTRACT_CHECKS[name]
    assert issubclass(error, ChernLabError)
    with pytest.raises(error, match=fragment):
        call()
