"""Tests of the benchmark's oracles, failure counting, tracer and metric
names.  They check the benchmark, not the program: each oracle is checked
against a computation that does not go through the code it is meant to test.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from chernlab import builders, chernforms, geomgrid, khat, kops, periodicity, stiefel

import oracles
import run
import tracer as tracer_mod
import worker
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# -- oracles -------------------------------------------------------------------


def _bloch_section(theta: float, phi: np.ndarray) -> np.ndarray:
    return np.stack([np.full(phi.shape, np.cos(theta / 2.0)), np.sin(theta / 2.0) * np.exp(1j * phi)], -1)


@pytest.mark.parametrize("theta", [0.6, 1.1, 2.3])
def test_berry_sign_from_the_connection_of_the_sections(theta):
    # horizontal lift e^{i g} v: g' = i<v|dv/dphi>, so the holonomy is exp(i * loop integral)
    n = 512
    phi = 2.0 * np.pi * np.arange(n) / n
    v = _bloch_section(theta, phi)
    dv = np.stack([np.zeros(n), 1j * np.sin(theta / 2.0) * np.exp(1j * phi)], -1)
    connection = 1j * np.sum(v.conj() * dv, axis=-1)
    integral = np.sum(connection) * (2.0 * np.pi / n)
    assert abs(np.exp(1j * integral) - oracles.berry_holonomy(theta)) < 1e-12
    assert abs(np.exp(1j * integral) - np.conj(oracles.berry_holonomy(theta))) > 0.5


@pytest.mark.parametrize("theta", [0.6, 2.3])
def test_berry_holonomy_from_bloch_circle_projections(theta):
    # gauge-invariant discrete transport: prod <v_{j+1}|v_j> of any unit sections of the projections
    p = builders.bloch_circle(theta, res=2048).values
    ref = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    v = p @ ref
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    overlaps = np.sum(np.roll(v, -1, axis=0).conj() * v, axis=-1)
    transport = np.prod(overlaps / np.abs(overlaps))
    assert abs(transport - oracles.berry_holonomy(theta)) < 1e-4


@pytest.mark.parametrize("c", [0.7, -1.2])
def test_connection_holonomy(c):
    alpha = khat.CircleConnection.constant(c)
    assert abs(oracles.connection_holonomy(c) - np.exp(1j * 2.0 * np.pi * c)) < 1e-15
    assert abs(oracles.connection_holonomy(c) - np.exp(1j * alpha.integral())) < 1e-12


def test_total_winding_matches_determinant_phase():
    rng = np.random.default_rng(3)
    for windings in [(2, -1, 2), (-2, -2, 1), (0, 0, 0)]:
        gamma = builders.random_band_loop(rng, rank=3, winding=list(windings), res=128)
        det = np.linalg.det(gamma.values)
        steps = np.angle(np.roll(det, -1) / det)
        assert round(np.sum(steps) / (2.0 * np.pi)) == oracles.total_winding(windings)


def test_cycle_integrals_vanish_for_a_constant_map():
    dom = geomgrid.make_domain("torus3", (8, 8, 8))
    v = workloads._haar(np.random.default_rng(0), 2)
    f = geomgrid.SampledMap(dom, np.broadcast_to(v, (8, 8, 8, 2, 2)), codomain="unitary")
    out = workloads._cs_run(kops.inversion_homotopy_odd(f, t_res=5))
    assert oracles.accuracy_digits(out.residual) > 11.0
    assert set(out.observables) == {"chernforms.cs_exact.residual.deg0", "chernforms.cs_exact.residual.deg2"}


def test_distance_is_below_one_and_accuracy_is_floored():
    assert oracles.distance(-3, 3) < 1.0
    assert oracles.accuracy_digits(0.0) == 12.0
    assert oracles.accuracy_digits(1e-3) == pytest.approx(3.0)


# -- scoring of one operation ------------------------------------------------


def _fake_transport(u):
    diag = {"steps": 64, "step_halving_delta": 0.0, "step_halving_ok": True,
            "tracking_defect": 0.0, "gram_drift": 0.0}
    return lambda loop: periodicity.HolonomyResult(Q=u, U=u, diagnostics=diag)


def test_conjugated_holonomy_scores_low(monkeypatch):
    expected = oracles.berry_holonomy(1.1)
    item = (None, expected)
    monkeypatch.setattr(periodicity, "kato_transport", _fake_transport(np.array([[expected]])))
    right = workloads._kato_run(item)
    monkeypatch.setattr(periodicity, "kato_transport", _fake_transport(np.array([[np.conj(expected)]])))
    conjugated = workloads._kato_run(item)
    assert oracles.accuracy_digits(right.residual) == 12.0
    assert oracles.accuracy_digits(conjugated.residual) < 1.0
    assert right.transport_steps == 64 + 32


def test_raise_and_nan_count_as_failures(monkeypatch):
    def boom(item):
        raise ValueError("boom")

    out, failure = worker.attempt(boom, None)
    assert out is None and "boom" in failure["error"]
    monkeypatch.setattr(periodicity, "kato_transport", _fake_transport(np.array([[np.nan]])))
    out, failure = worker.attempt(workloads._kato_run, (None, 1.0))
    assert out is None and "OpFailure" in failure["error"]
    monkeypatch.setattr(periodicity, "kato_transport", _fake_transport(np.array([[2.0]])))
    out, failure = worker.attempt(workloads._kato_run, (None, 1.0))
    assert out is None and "not unitary" in failure["error"]

    sample = {"op_times": [0.1] * 4, "op_ratios": [4.0] * 4, "reference_times": [0.025], "attempted": 4,
              "failed": 1, "peak_rss_mb": 1.0, "worst_residual": 0.5, "accuracy_floor": 1e-12, "pool_size": 2}
    _, details = run.end_to_end(sample, [{"setup_s": 1.0, "setup_reference_s": 0.05}])
    assert details["error_rate"] == 0.25


# -- seeds, tracer, metric names -------------------------------------------------


def test_pool_is_a_function_of_the_seed():
    a, _ = workloads._bott_pool(np.random.default_rng(5))
    b, _ = workloads._bott_pool(np.random.default_rng(5))
    c, _ = workloads._bott_pool(np.random.default_rng(6))
    assert all(np.array_equal(x[0].values, y[0].values) for x, y in zip(a, b))
    assert not any(np.array_equal(x[0].values, y[0].values) for x, y in zip(a, c))
    assert [n for _, n in a] == [n for _, n in c] == list(workloads.BOTT_TOTALS)


def test_tracer_wraps_every_binding_and_self_times_sum_to_the_root():
    original = stiefel.virtual_dimension
    t = tracer_mod.Tracer()
    with t.installed():
        assert periodicity.virtual_dimension is not original
        assert stiefel.virtual_dimension is periodicity.virtual_dimension
        assert chernforms.differentiate is geomgrid.differentiate
        assert chernforms.Homotopy.time_derivative.__wrapped__ is not None
        with t.span("op"):
            periodicity.bott_consistency(builders.loop_zn(1, res=64), M=16, B=4)
    assert stiefel.virtual_dimension is original and periodicity.virtual_dimension is original
    assert not hasattr(chernforms.Homotopy.time_derivative, "__wrapped__")
    n_roots, duration, calls, self_s = t.totals_by_root("op")
    assert n_roots == 1
    assert calls["stiefel.virtual_dimension"] == 1 and calls["numkernel.numerical_rank"] == 2
    assert calls["chernforms.ch_odd"] == 1 and calls["geomgrid.differentiate"] == 1
    assert math.isclose(sum(self_s.values()), duration, rel_tol=1e-9)
    assert all(v >= 0.0 for v in self_s.values())


def test_metric_names_match_benchmark_json():
    layers, _ = worker._layer_metrics(tracer_mod.Tracer(), [], [], [], {})
    assert sorted(layers) == sorted(m["name"] for m in SPEC["per_layer"])
    sample = {"op_times": [0.1], "op_ratios": [4.0], "reference_times": [0.025], "attempted": 1,
              "failed": 0, "peak_rss_mb": 1.0, "worst_residual": 0.5, "accuracy_floor": 1e-12, "pool_size": 1}
    metrics, _ = run.end_to_end(sample, [{"setup_s": 1.0, "setup_reference_s": 0.05}])
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([0.1] * 10) is None
    tail = run.tail_percentile([float(i) for i in range(100)])
    assert tail["samples_beyond"] >= 10 and tail["percentile"] == 90
