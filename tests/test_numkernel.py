import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm_frechet

from chernlab.builders import _exp_i_hermitian
from chernlab.errors import ChernLabError, NotUnitary, SingularInput
from chernlab.numkernel import (
    _real_form,
    _real_widening,
    det_phase,
    frobenius,
    haar_unitary,
    numerical_rank,
    polar_unitary,
    principal_angle,
    require_unitary,
)

RNG = np.random.default_rng(20250810)


def newton_polar(m, iters=60):
    """Independent oracle: Heron/Newton iteration X <- (X + X^-*)/2."""
    x = np.asarray(m, dtype=complex)
    for _ in range(iters):
        x = 0.5 * (x + np.linalg.inv(x).conj().T)
    return x


def test_polar_identity():
    assert frobenius(polar_unitary(np.eye(3)) - np.eye(3)) < 1e-12


def test_polar_positive_scalar():
    assert abs(polar_unitary(np.array([[2.0]]))[0, 0] - 1.0) < 1e-12


def test_polar_matches_newton_oracle():
    m = RNG.standard_normal((6, 6)) + 1j * RNG.standard_normal((6, 6))
    m += 6 * np.eye(6)  # keep it comfortably invertible
    u = polar_unitary(m)
    assert frobenius(u - newton_polar(m)) < 1e-10
    assert frobenius(u.conj().T @ u - np.eye(6)) < 1e-10


def test_polar_rejects_singular():
    m = np.diag([1.0, 1e-13]).astype(complex)
    with pytest.raises(SingularInput):
        polar_unitary(m)


@pytest.mark.parametrize("seed", range(5))
def test_polar_unitarity_property(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) + 4 * np.eye(5)
    u = polar_unitary(m)
    assert frobenius(u.conj().T @ u - np.eye(5)) < 1e-10


def test_rank_zero_matrix():
    assert numerical_rank(np.zeros((3, 3)), threshold=1e-8) == 0


def test_rank_identity():
    assert numerical_rank(np.eye(4), threshold=1e-8) == 4


def test_rank_constructed_spectrum():
    assert numerical_rank(np.diag([1.0, 1e-12]), threshold=1e-8) == 1


def test_rank_monotone_in_threshold():
    m = RNG.standard_normal((6, 4))
    thresholds = np.logspace(-10, 1, 12)
    ranks = [numerical_rank(m, t) for t in thresholds]
    assert all(a >= b for a, b in zip(ranks, ranks[1:]))


def test_det_phase_identity():
    assert abs(det_phase(np.eye(3))) < 1e-12


def test_det_phase_diagonal_unitary():
    u = np.diag([np.exp(2j * np.pi * 0.3), 1.0, 1.0])
    assert abs(det_phase(u) - 2 * np.pi * 0.3) < 1e-12


def test_det_phase_principal_branch_endpoint():
    assert abs(det_phase(np.diag([-1.0, 1.0]).astype(complex)) - np.pi) < 1e-12


def test_det_phase_additive_under_direct_sum():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        u = haar_unitary(rng, 3)
        v = haar_unitary(rng, 2)
        w = np.zeros((5, 5), dtype=complex)
        w[:3, :3] = u
        w[3:, 3:] = v
        lhs = det_phase(w)
        rhs = principal_angle(det_phase(u) + det_phase(v))
        assert abs(principal_angle(lhs - rhs)) < 1e-9


def test_det_phase_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        det_phase(2 * np.eye(2))


def random_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z + z.conj().T


def exp_i(h):
    return _exp_i_hermitian(h, ())[0]


def test_exp_zero():
    assert frobenius(exp_i(np.zeros((3, 3))) - np.eye(3)) < 1e-14


def test_exp_one_by_one():
    th = 0.7
    assert abs(exp_i(np.array([[th]]))[0, 0] - np.exp(1j * th)) < 1e-12


def test_exp_inverse_identity_oracle():
    h = random_hermitian(RNG, 5)
    e = exp_i(h)
    assert frobenius(e @ exp_i(-h) - np.eye(5)) < 1e-10
    assert frobenius(e.conj().T @ e - np.eye(5)) < 1e-10


def test_exp_adjoint_is_negated_argument():
    h = random_hermitian(RNG, 4)
    assert frobenius(exp_i(h).conj().T - exp_i(-h)) < 1e-10


@pytest.mark.parametrize("case", ["n1", "n2", "n3", "n4", "repeated"])
def test_exp_jets_match_frechet_derivative(case):
    rng = np.random.default_rng(7)
    if case == "repeated":
        # a doubly degenerate eigenvalue, where the divided difference is a derivative
        v = haar_unitary(rng, 3)
        h = ((v * np.array([0.8, 0.8, -1.3])) @ v.conj().T)[None]
    else:
        h = np.stack([random_hermitian(rng, int(case[1:])) for _ in range(3)])
    dh = [np.stack([random_hermitian(rng, h.shape[-1]) for _ in h]) for _ in range(2)]
    values, jets = _exp_i_hermitian(h, dh)  # one batched call
    for d, jet in zip(dh, jets):
        for a, e, u, j in zip(h, d, values, jet):
            ref_u, ref_j = expm_frechet(1j * a, 1j * e)
            assert np.abs(u - ref_u).max() < 1e-12
            assert np.abs(j - ref_j).max() < 1e-12


def _per_axis_partials(h, dh):
    """The Daleckii-Krein partials one direction at a time, four products each."""
    lam, v = np.linalg.eigh(h)
    vh = np.swapaxes(v, -1, -2).conj()
    mean = 0.5 * (lam[..., :, None] + lam[..., None, :])
    gap = 0.5 * (lam[..., :, None] - lam[..., None, :])
    divided = 1j * np.exp(1j * mean) * np.sinc(gap / np.pi)
    return [v @ (divided * (vh @ d @ v)) @ vh for d in dh]


def _hermitian_field(rng, shape, n):
    z = rng.standard_normal((*shape, n, n)) + 1j * rng.standard_normal((*shape, n, n))
    return z + np.swapaxes(z, -1, -2).conj()


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("n_dirs", [1, 3])
def test_stacked_exp_jets_match_the_per_axis_formula(n, n_dirs):
    rng = np.random.default_rng(10 * n + n_dirs)
    h = _hermitian_field(rng, (6, 5, 4), n)
    dh = [_hermitian_field(rng, (6, 5, 4), n) for _ in range(n_dirs)]
    values, jets = _exp_i_hermitian(h, dh)
    assert len(jets) == n_dirs
    assert np.array_equal(values, exp_i(h))
    for jet, ref in zip(jets, _per_axis_partials(h, dh), strict=True):
        assert jet.shape == h.shape and jet.flags.c_contiguous
        assert np.abs(jet - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())


def test_stacked_exp_jets_match_central_differences():
    rng = np.random.default_rng(12)
    h = _hermitian_field(rng, (7, 3), 3)
    dh = [_hermitian_field(rng, (7, 3), 3) for _ in range(3)]
    eps = 1e-4
    _, jets = _exp_i_hermitian(h, dh)
    for d, jet in zip(dh, jets):
        # 4th-order central difference of exp(i(H + s dH)) at s = 0
        f = {s: exp_i(h + s * eps * d) for s in (-2, -1, 1, 2)}
        fd = (f[-2] - 8.0 * f[-1] + 8.0 * f[1] - f[2]) / (12.0 * eps)
        assert np.abs(jet - fd).max() < 1e-9


REAL_FORM_SIDES = st.integers(1, 4)
STACKS = st.sampled_from([(), (1,), (5,), (2, 3)])


def _complex_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=30, deadline=None)
@given(REAL_FORM_SIDES, REAL_FORM_SIDES, REAL_FORM_SIDES, STACKS, st.integers(0, 2**16))
def test_real_form_multiplies_float_views_on_the_right(m, n, r, stack, seed):
    rng = np.random.default_rng(seed)
    a, b = _complex_stack(rng, (*stack, m, n)), _complex_stack(rng, (*stack, n, r))
    rb = _real_form(b)
    assert rb.dtype == np.float64 and rb.shape == (*stack, 2 * n, 2 * r)
    scale = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(b, axis=(-2, -1))
    error = np.linalg.norm(a.view(float) @ rb - (a @ b).view(float), axis=(-2, -1))
    assert (error / scale).max() < 1e-15


@settings(max_examples=30, deadline=None)
@given(REAL_FORM_SIDES, REAL_FORM_SIDES, STACKS, st.integers(0, 2**16))
def test_real_form_of_the_adjoint_is_the_transpose(n, r, stack, seed):
    b = _complex_stack(np.random.default_rng(seed), (*stack, n, r))
    assert np.array_equal(_real_form(np.swapaxes(b, -1, -2).conj()), np.swapaxes(_real_form(b), -1, -2))


@settings(max_examples=30, deadline=None)
@given(REAL_FORM_SIDES, REAL_FORM_SIDES, REAL_FORM_SIDES, STACKS, st.integers(0, 2**16))
def test_real_form_is_multiplicative(m, n, r, stack, seed):
    rng = np.random.default_rng(seed)
    a, b = _complex_stack(rng, (*stack, m, n)), _complex_stack(rng, (*stack, n, r))
    ra, rb = _real_form(a), _real_form(b)
    scale = np.linalg.norm(ra, axis=(-2, -1)) * np.linalg.norm(rb, axis=(-2, -1))
    assert (np.linalg.norm(ra @ rb - _real_form(a @ b), axis=(-2, -1)) / scale).max() < 1e-15


@settings(max_examples=30, deadline=None)
@given(REAL_FORM_SIDES, REAL_FORM_SIDES, STACKS, st.integers(1, 3), st.integers(0, 2**16))
def test_real_form_reads_back_exactly_from_its_even_rows(n, r, stack, step, seed):
    # every step-th matrix of a stack is a strided view, as the transport takes of its stage grid
    if stack:
        x = _complex_stack(np.random.default_rng(seed), (step * stack[0], *stack[1:], n, r))[::step]
    else:
        x = _complex_stack(np.random.default_rng(seed), (n, r))
    rx = _real_form(x)
    assert rx.shape == (*stack, 2 * n, 2 * r)
    assert np.array_equal(rx.view(complex)[..., ::2, :], x)


@settings(max_examples=30, deadline=None)
@given(REAL_FORM_SIDES, REAL_FORM_SIDES, REAL_FORM_SIDES, STACKS, st.integers(0, 2**16))
def test_real_form_multiplies_on_the_left_and_reads_back(m, n, r, stack, seed):
    # R(a) R(w) = R(aw), so a frame held as R(w) is moved by the step matrices R(a)
    rng = np.random.default_rng(seed)
    a, w = _complex_stack(rng, (*stack, m, n)), _complex_stack(rng, (*stack, n, r))
    got = (_real_form(a) @ _real_form(w)).view(complex)[..., ::2, :]
    scale = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(w, axis=(-2, -1))
    assert (np.linalg.norm(got - a @ w, axis=(-2, -1)) / scale).max() < 1e-15


@settings(max_examples=30, deadline=None)
@given(REAL_FORM_SIDES, REAL_FORM_SIDES, REAL_FORM_SIDES, STACKS, st.integers(0, 2**16))
def test_a_product_with_the_widened_form_writes_the_real_form_of_the_product(m, n, r, stack, seed):
    rng = np.random.default_rng(seed)
    a, b = _complex_stack(rng, (*stack, m, n)), _complex_stack(rng, (*stack, n, r))
    out = np.empty((*stack, 2 * n, 4 * r))
    wide = _real_widening(b, out)
    # [R(b) | R(ib)], each entry an entry of b up to sign, so exact
    assert wide is out and wide[..., : 2 * r].tobytes() == _real_form(b).tobytes()
    assert np.array_equal(wide[..., 2 * r :], _real_form(1j * b))
    # a @ [R(b) | R(ib)] is R(ab) after a free reshape
    got = (a.view(float) @ wide).reshape(*stack, 2 * m, 2 * r)
    scale = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(b, axis=(-2, -1))
    assert (np.linalg.norm(got - _real_form(a @ b), axis=(-2, -1)) / scale).max() < 1e-15


def _eye_with(value):
    """The 3 x 3 identity with one entry set to ``value``."""
    m = np.eye(3, dtype=complex)
    m[1, 2] = value
    return m


CONTRACT_CHECKS = {
    "polar_unitary of a NaN matrix": (
        lambda: polar_unitary(np.full((2, 2), np.nan)),
        SingularInput,
        "polar factor needs a finite matrix",
    ),
    "polar_unitary of a non-square matrix": (
        lambda: polar_unitary(np.ones((2, 3))),
        SingularInput,
        r"expected a square matrix, got shape \(2, 3\)",
    ),
    "negative rank threshold": (
        lambda: numerical_rank(np.eye(2), -1e-12),
        SingularInput,
        "threshold must be non-negative",
    ),
    "NaN rank threshold": (lambda: numerical_rank(np.eye(2), np.nan), SingularInput, "threshold must be non-negative, got nan"),
    "require_unitary NaN entry": (lambda: require_unitary(_eye_with(np.nan)), NotUnitary, r"\|\|u\*u - I\|\|_F = nan"),
    "require_unitary inf entry": (lambda: require_unitary(_eye_with(np.inf)), NotUnitary, r"\|\|u\*u - I\|\|_F"),
    "require_unitary NaN scalar": (lambda: require_unitary([[np.nan]]), NotUnitary, "nan >= 1.0e-08"),
    "det_phase NaN entry": (lambda: det_phase(_eye_with(np.nan)), NotUnitary, r"\|\|u\*u - I\|\|_F = nan"),
}


@pytest.mark.parametrize("name", CONTRACT_CHECKS)
def test_contract_checks_raise_their_errors(name):
    call, error, fragment = CONTRACT_CHECKS[name]
    assert issubclass(error, ChernLabError)
    with pytest.raises(error, match=fragment), np.errstate(invalid="ignore"):
        call()
