import numpy as np
import pytest

from chernlab import builders
from chernlab.errors import BandwidthViolation
from chernlab.khat import CircleConnection, a_even
from chernlab.periodicity import bott_consistency, kato_transport, toeplitz_from_loop


def _band_loop(windings):
    return builders.random_band_loop(np.random.default_rng(17), rank=3, winding=list(windings))


LOOPS = (
    [(f"zn{n}", lambda n=n: builders.loop_zn(n), n) for n in range(-3, 4)]
    + [("trig2", lambda: builders.trig_loop(winding=2), 2)]
    + [
        (f"band{w}", lambda w=w: _band_loop(w), sum(w))
        for w in [(1, -2, 2), (2, 2, -1), (-2, -2, 1), (2, 2, 2)]
    ]
)


@pytest.mark.parametrize("make, total", [(m, n) for _, m, n in LOOPS], ids=[name for name, _, _ in LOOPS])
def test_three_bott_routes_equal_the_total_winding(make, total):
    # index T_gamma = -wind det gamma, so every route recovers sum(n_j)
    report = bott_consistency(make())
    assert report["verdict"]
    assert round(report["ch1_route"]) == total
    assert report["det_winding"] == total
    assert report["virtual_dimension"] == -total


@pytest.mark.parametrize("seed", [17, 3, 8, 12, 20, 22])
def test_explicit_window_and_band(seed):
    # seeds 3..22: counting cokernel rows by the declared B left M - 2B = 20
    # rows, too few for the cokernel (the measured band, ~22 modes): route (c) 2
    gamma = builders.random_band_loop(np.random.default_rng(seed), rank=3, winding=[2, 2, -1])
    report = bott_consistency(gamma, M=80, B=30)
    assert report["verdict"] and report["det_winding"] == 3 and report["virtual_dimension"] == -3


def test_round_off_rows_do_not_count_as_rank():
    # the safe cokernel rows of this frame hold only ~1e-17
    report = bott_consistency(builders.loop_zn(1), M=3, B=1)
    assert report["virtual_dimension"] == -1 and report["verdict"]


def test_content_outside_the_declared_band_is_rejected():
    with pytest.raises(BandwidthViolation):
        toeplitz_from_loop(builders.trig_loop(winding=1), M=12, B=3)


@pytest.mark.parametrize("colatitude", [0.6, 1.1, 2.3])
def test_berry_phase_of_bloch_circle(colatitude):
    # Berry (1984): the tautological line around a colatitude circle
    u = kato_transport(builders.bloch_circle(colatitude)).U
    assert abs(np.linalg.det(u) - np.exp(-1j * np.pi * (1.0 - np.cos(colatitude)))) < 1e-10


@pytest.mark.parametrize("c", [0.7, -1.2, 7.5])
def test_classifying_loop_transports_to_the_connection_holonomy(c):
    alpha = CircleConnection.constant(c)
    result = kato_transport(a_even(alpha).representative)
    assert result.diagnostics["step_halving_ok"]
    assert abs(np.linalg.det(result.U) - np.exp(1j * alpha.integral())) < 1e-10
