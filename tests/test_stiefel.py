import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernlab.builders import frame_family_torus
from chernlab.chernforms import ch_even
from chernlab.geomgrid import SampledMap, form_derivative
from chernlab.stiefel import PolarizedWindow, SubspaceSpec, transgression_eta

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
