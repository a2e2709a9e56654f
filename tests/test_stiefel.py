import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from chernlab.builders import frame_family_torus, loop_zn, random_unitary_map
from chernlab.chernforms import ch_even, chern_scalar, trace_wedge
from chernlab.errors import AsymmetricWindow, ChernLabError, DegenerateFrame, DegreeOverflow, ShapeMismatch
from chernlab.geomgrid import SampledMap, differentiate, form_derivative, make_domain
from chernlab.kops import blocksum, flip_projection
from chernlab.stiefel import (
    PolarizedWindow,
    SubspaceSpec,
    transgression_eta,
    virtual_dimension,
)

WIN = PolarizedWindow(3, 3)
MODES = list(range(-3, 3))


def tail_spec(modes, explicit=None):
    """Identity columns for ``modes`` after the orthonormal columns ``explicit``."""
    cols = np.eye(WIN.dim, dtype=complex)[:, [WIN.index_of(m) for m in sorted(modes)]]
    if explicit is not None:
        cols = np.concatenate([explicit, cols], axis=1)
    return SubspaceSpec(WIN, cols)


@pytest.mark.parametrize(
    "tail, vdim",
    [((0, 1), -1), ((-1, 0, 1, 2), 1), ((0,), -2), ((-2, -1, 0, 1, 2), 2)],
)
def test_flip_negates_virtual_dimension_of_tail_specs(tail, vdim):
    spec = tail_spec(tail)
    assert virtual_dimension(spec) == vdim
    assert virtual_dimension(spec.flipped()) == -vdim


def test_flip_negates_virtual_dimension_with_explicit_columns():
    col = np.zeros((WIN.dim, 1), dtype=complex)
    col[WIN.index_of(-1)] = col[WIN.index_of(0)] = np.sqrt(0.5)
    spec = SubspaceSpec(WIN, col)
    assert virtual_dimension(spec) == -2
    assert virtual_dimension(spec.flipped()) == 2


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(MODES), min_size=1, max_size=len(MODES) - 1))
def test_flip_negates_virtual_dimension(tail):
    spec = tail_spec(tail)
    assert virtual_dimension(spec.flipped()) == -virtual_dimension(spec)


@settings(max_examples=40, deadline=None)
@given(*[st.sets(st.sampled_from(MODES), min_size=1, max_size=len(MODES))] * 2)
def test_blocksum_adds_virtual_dimensions(tail_a, tail_b):
    a, b = tail_spec(tail_a), tail_spec(tail_b)
    assert virtual_dimension(a.blocksummed(b)) == virtual_dimension(a) + virtual_dimension(b)


def test_blocksum_adds_virtual_dimensions_with_explicit_columns():
    col = np.zeros((WIN.dim, 1), dtype=complex)
    col[WIN.index_of(-1)] = col[WIN.index_of(0)] = np.sqrt(0.5)
    a = SubspaceSpec(WIN, col)
    b = tail_spec((-2, 0, 1, 2))
    assert virtual_dimension(a.blocksummed(b)) == virtual_dimension(a) + virtual_dimension(b) == -1


def random_spec(rng, k):
    z = rng.standard_normal((WIN.dim, k)) + 1j * rng.standard_normal((WIN.dim, k))
    return SubspaceSpec(WIN, np.linalg.qr(z)[0])


def projection(spec):
    return spec.basis @ spec.basis.conj().T


@pytest.mark.parametrize("k", range(WIN.dim + 1))
def test_flipped_basis_spans_the_flipped_projection(k):
    spec = random_spec(np.random.default_rng(k), k)
    assert np.abs(projection(spec.flipped()) - flip_projection(projection(spec), WIN)).max() < 1e-12


@pytest.mark.parametrize("k", range(WIN.dim + 1))
def test_blocksummed_basis_spans_the_blocksum_projection(k):
    rng = np.random.default_rng(100 + k)
    a, b = random_spec(rng, k), random_spec(rng, WIN.dim - k)
    assert np.abs(projection(a.blocksummed(b)) - blocksum(projection(a), projection(b))).max() < 1e-12


def test_basis_must_be_orthonormal_window_columns():
    with pytest.raises(ShapeMismatch):
        SubspaceSpec(WIN, np.eye(WIN.dim + 1)[:, :2])
    with pytest.raises(DegenerateFrame):
        SubspaceSpec(WIN, 2.0 * np.eye(WIN.dim)[:, :2])


def test_flip_needs_a_symmetric_window():
    win = PolarizedWindow(2, 3)
    with pytest.raises(AsymmetricWindow):
        SubspaceSpec(win, np.eye(win.dim)[:, :2]).flipped()


def test_blocksum_needs_matching_windows():
    other = PolarizedWindow(2, 2)
    with pytest.raises(ShapeMismatch):
        tail_spec((0,)).blocksummed(SubspaceSpec(other, np.eye(other.dim)[:, :1]))


def test_transgression_eta_needs_a_frame_tagged_map():
    with pytest.raises(ShapeMismatch):
        transgression_eta(loop_zn(1, res=16), 1)


def test_transgression_eta_degree_must_fit_the_domain():
    # torus2 frames: degree 2k - 1 = 3 > 2
    with pytest.raises(DegreeOverflow):
        transgression_eta(frame_family_torus(np.random.default_rng(0), res=8), 2)


@pytest.mark.parametrize("seed", [0, 3])
def test_transgression_eta_differential_is_ch1(seed):
    # d(eta_1) = ch_1 of the frame's projection w (w* w)^{-1} w*; 48^2 resolves
    # the frame family (at 24^2 the residual is 9e-7)
    w = frame_family_torus(np.random.default_rng(seed), res=48, rows=3, cols=2)
    wh = np.swapaxes(w.values, -1, -2).conj()
    p = SampledMap(w.domain, w.values @ np.linalg.inv(wh @ w.values) @ wh, codomain="projection")
    eta = transgression_eta(w, 1)
    assert (form_derivative(eta) - ch_even(p, 1)).sup_norm() < 1e-10


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


def simpson_eta(frames, k, t_res=9):
    """The t-integral of k tr(Theta ^ phi_t^(k-1)) by Simpson's rule on t_res nodes,
    from the general-frame assembly above (Gram inverse and projection jets),
    independent of the orthonormal-frame one of ``transgression_eta``."""
    theta, omega_pairs, bracket_pairs = _frame_pointwise_data(frames.values, list(differentiate(frames)))
    theta = {(i,): a for i, a in theta.items()}
    ts = np.linspace(0.0, 1.0, t_res)
    acc = {}
    for t, wt in zip(ts, simpson(np.eye(t_res), x=ts, axis=0)):  # the weights of scipy's Simpson rule
        phi = {key: t * omega_pairs[key] + 0.5 * (t * t - t) * bracket_pairs[key] for key in omega_pairs}
        for idx, val in trace_wedge(theta, *[phi] * (k - 1)).items():
            acc[idx] = acc.get(idx, 0.0) + wt * val
    return {idx: chern_scalar("even", k) * k * a for idx, a in acc.items()}


@pytest.mark.parametrize("k", [1, 2])
def test_transgression_eta_matches_the_simpson_t_integral(k):
    u = random_unitary_map(np.random.default_rng(4), make_domain("torus3", (8, 8, 8)), size=3)
    w = SampledMap(u.domain, u.values[..., :2], codomain="frame", partials=tuple(p[..., :2] for p in u.partials))
    eta = transgression_eta(w, k)
    expected = simpson_eta(w, k)
    assert eta.comps.keys() == expected.keys()
    assert max(float(np.abs(eta.comps[idx] - a).max()) for idx, a in expected.items()) < 1e-14


def _unitary_columns(seed, r=2):
    """The first ``r`` columns of a unitary family on the 24^3 torus, with their exact partials."""
    u = random_unitary_map(np.random.default_rng(seed), make_domain("torus3", (24, 24, 24)), size=3, amp=0.15, trig_degree=1)
    return SampledMap(u.domain, u.values[..., :r], codomain="frame", partials=tuple(p[..., :r] for p in u.partials))


@pytest.mark.parametrize(
    "make, k",
    [
        (lambda: frame_family_torus(np.random.default_rng(0), res=48), 1),
        (lambda: _unitary_columns(4), 1),
        (lambda: _unitary_columns(4), 2),
    ],
    ids=["frame_family_torus-k1", "unitary_columns-k1", "unitary_columns-k2"],
)
def test_transgression_eta_of_grid_jets_matches_exact_jets(make, k):
    # every jet of eta is a jet of the frame: its exact partials, or without
    # them its grid jets; a curvature from the grid jets of V V* misses at k = 2
    frames = make()
    eta = transgression_eta(frames, k)
    bare = transgression_eta(SampledMap(frames.domain, frames.values, codomain="frame"), k)
    assert (bare - eta).sup_norm() < 1e-10 * eta.sup_norm()


def _basis_with(value):
    """Two orthonormal columns of the window with one entry set to ``value``."""
    q = np.eye(WIN.dim, dtype=complex)[:, :2]
    q[4, 1] = value
    return q


CONTRACT_CHECKS = {
    "basis with a NaN entry": (lambda: SubspaceSpec(WIN, _basis_with(np.nan)), DegenerateFrame, "not orthonormal: nan"),
    "basis with an inf entry": (lambda: SubspaceSpec(WIN, _basis_with(np.inf)), DegenerateFrame, "not orthonormal"),
    "window of a negative size": (
        lambda: PolarizedWindow(-1, 2),
        ShapeMismatch,
        "window sizes must be integers >= 0, got -1 and 2",
    ),
}


@pytest.mark.parametrize("name", CONTRACT_CHECKS)
def test_contract_checks_raise_their_errors(name):
    call, error, fragment = CONTRACT_CHECKS[name]
    assert issubclass(error, ChernLabError)
    with pytest.raises(error, match=fragment), np.errstate(invalid="ignore"):
        call()
