import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernlab import builders
from chernlab.khat import cs_of_nullhomotopy, khat_class
from chernlab.kops import blocksum_map, inversion_homotopy_odd

WINDINGS = st.integers(min_value=-2, max_value=2)


@settings(max_examples=25, deadline=None)
@given(WINDINGS, WINDINGS)
def test_khat_winding_is_additive_under_blocksum(a, b):
    f, g = builders.loop_zn(a, res=64), builders.loop_zn(b, res=64)
    assert khat_class(blocksum_map(f, g)).invariants["winding"] == a + b


@pytest.mark.parametrize("make", [lambda: builders.loop_zn(1, res=64), builders.su2_chart], ids=["zn1", "su2"])
def test_cs_of_nullhomotopy_lifts_the_exterior_derivative(make):
    report = cs_of_nullhomotopy(inversion_homotopy_odd(make()).reversed())
    assert report["lift_residuals"]
    assert max(report["lift_residuals"].values()) < 1e-10
