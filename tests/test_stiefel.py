import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernlab.stiefel import PolarizedWindow, SubspaceSpec

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
