import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernlab.builders import frame_family_torus, random_unitary_map
from chernlab.chernforms import ch_even, chern_scalar, trace_wedge
from chernlab.geomgrid import SampledMap, _simpson_weights, differentiate, form_derivative, make_domain
from chernlab.stiefel import PolarizedWindow, SubspaceSpec, _frame_pointwise_data, transgression_eta

WIN = PolarizedWindow(3, 3)
MODES = list(range(-3, 3))


@pytest.mark.parametrize(
    "tail, vdim",
    [((0, 1), -1), ((-1, 0, 1, 2), 1), ((0,), -2), ((-2, -1, 0, 1, 2), 2)],
)
def test_flip_negates_virtual_dimension_of_tail_specs(tail, vdim):
    spec = SubspaceSpec(WIN, np.zeros((WIN.dim, 0)), tail)
    assert spec.virtual_dimension() == vdim
    assert spec.flipped().virtual_dimension() == -vdim


def test_flip_negates_virtual_dimension_with_explicit_columns():
    col = np.zeros((WIN.dim, 1), dtype=complex)
    col[WIN.index_of(-1)] = col[WIN.index_of(0)] = np.sqrt(0.5)
    spec = SubspaceSpec(WIN, col)
    assert spec.virtual_dimension() == -2
    assert spec.flipped().virtual_dimension() == 2


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(MODES), min_size=1, max_size=len(MODES) - 1))
def test_flip_negates_virtual_dimension(tail):
    spec = SubspaceSpec(WIN, np.zeros((WIN.dim, 0)), tuple(tail))
    assert spec.flipped().virtual_dimension() == -spec.virtual_dimension()


@settings(max_examples=40, deadline=None)
@given(*[st.sets(st.sampled_from(MODES), min_size=1, max_size=len(MODES))] * 2)
def test_blocksum_adds_virtual_dimensions(tail_a, tail_b):
    a = SubspaceSpec(WIN, np.zeros((WIN.dim, 0)), tuple(tail_a))
    b = SubspaceSpec(WIN, np.zeros((WIN.dim, 0)), tuple(tail_b))
    assert a.blocksummed(b).virtual_dimension() == a.virtual_dimension() + b.virtual_dimension()


def test_blocksum_adds_virtual_dimensions_with_explicit_columns():
    col = np.zeros((WIN.dim, 1), dtype=complex)
    col[WIN.index_of(-1)] = col[WIN.index_of(0)] = np.sqrt(0.5)
    a = SubspaceSpec(WIN, col)
    b = SubspaceSpec(WIN, np.zeros((WIN.dim, 0)), (-2, 0, 1, 2))
    assert a.blocksummed(b).virtual_dimension() == a.virtual_dimension() + b.virtual_dimension() == -1


@pytest.mark.parametrize("seed", [0, 3])
def test_transgression_eta_differential_is_ch1(seed):
    # d(eta_1) = ch_1 of the frame's projection w (w* w)^{-1} w*; 48^2 resolves
    # the frame family (at 24^2 the residual is 9e-7)
    w = frame_family_torus(np.random.default_rng(seed), res=48, rows=3, cols=2)
    wh = np.swapaxes(w.values, -1, -2).conj()
    p = SampledMap(w.domain, w.values @ np.linalg.inv(wh @ w.values) @ wh, codomain="projection")
    eta = transgression_eta(w, 1)
    assert (form_derivative(eta) - ch_even(p, 1)).sup_norm() < 1e-10


def simpson_eta(frames, k, t_res=9):
    """The t-integral of k tr(Theta ^ phi_t^(k-1)) by Simpson's rule on t_res nodes."""
    theta, omega_pairs, bracket_pairs = _frame_pointwise_data(frames.values, list(differentiate(frames)))
    theta = {(i,): a for i, a in theta.items()}
    ts = np.linspace(0.0, 1.0, t_res)
    acc = {}
    for t, wt in zip(ts, _simpson_weights(t_res, ts[1] - ts[0])):
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
