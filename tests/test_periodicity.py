import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chernlab import builders, fourier, periodicity
from chernlab.chernforms import _range_frame
from chernlab.errors import BandwidthViolation, ChernLabError, LostRank, NotALoop, ShapeMismatch, SingularInput
from chernlab.geomgrid import SampledMap, make_domain
from chernlab.khat import CircleConnection, a_even
from chernlab.kops import blocksum_map
from chernlab.numkernel import _real_form
from chernlab.periodicity import (
    DEFAULT_TRANSPORT_STEPS,
    _prefix_products,
    bott_consistency,
    bott_subspace,
    det_winding,
    kato_transport,
)
from chernlab.stiefel import PolarizedWindow, virtual_dimension


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
    # the finite block of z holds only round-off (~1e-17)
    report = bott_consistency(builders.loop_zn(1), M=3, B=1)
    assert report["virtual_dimension"] == -1 and report["verdict"]


def test_content_outside_the_declared_band_is_rejected():
    with pytest.raises(BandwidthViolation, match="outside declared band"):
        bott_consistency(builders.trig_loop(winding=1), M=12, B=3)


def test_a_window_too_small_for_the_finite_block_is_rejected():
    # W = V (+) z^b H_+ lives on modes [-2b, 2b); loop_zn(2) has b = 2
    with pytest.raises(BandwidthViolation, match="window M = 4"):
        bott_consistency(builders.loop_zn(2), M=4, B=2)
    assert bott_consistency(builders.loop_zn(2), M=5, B=2)["verdict"]


@pytest.mark.parametrize("seed", [0, 1, 2, 7919])
def test_block_singular_values_are_one_or_zero(seed):
    # the block compresses the isometry gamma onto V (+) Y, Y inside z^b H_+
    rng = np.random.default_rng(seed)
    for windings in [(2, 2, -1), (-2, 1, -2), (0, 2, -2)]:
        gamma = builders.random_band_loop(rng, rank=3, winding=list(windings), res=256)
        kept, dropped = bott_subspace(gamma, B=30)[1]["rank_gap"]
        assert kept >= 1.0 - 1e-9 and dropped <= 1e-9


STRANDS = st.lists(st.integers(-2, 2), min_size=2, max_size=2)


def _rank2_loop(seed, windings):
    return builders.random_band_loop(np.random.default_rng(seed), rank=2, winding=windings)


@settings(max_examples=12, deadline=None)
@given(STRANDS, st.integers(0, 2**16))
def test_bott_subspace_has_minus_the_total_winding(windings, seed):
    spec, _ = bott_subspace(_rank2_loop(seed, windings))
    assert virtual_dimension(spec) == -sum(windings)


@settings(max_examples=12, deadline=None)
@given(STRANDS, st.integers(0, 2**16))
def test_bott_subspace_inverse_is_the_flip(windings, seed):
    gamma = _rank2_loop(seed, windings)
    assert virtual_dimension(bott_subspace(gamma)[0].flipped()) == sum(windings)
    assert virtual_dimension(bott_subspace(gamma.adjoint())[0]) == sum(windings)


@settings(max_examples=12, deadline=None)
@given(STRANDS, STRANDS, st.integers(0, 2**16))
@example([-1, -2], [0, -2], 1720)  # numpy's SVD does not converge on this block
def test_bott_subspace_sum_is_the_blocksum(w1, w2, seed):
    g1, g2 = _rank2_loop(seed, w1), _rank2_loop(seed + 1, w2)
    spec, _ = bott_subspace(blocksum_map(g1, g2))
    assert virtual_dimension(spec) == -sum(w1) - sum(w2)


@pytest.mark.parametrize("colatitude", [0.6, 1.1, 2.3])
def test_berry_phase_of_bloch_circle(colatitude):
    # Berry (1984): the tautological line around a colatitude circle
    u = kato_transport(builders.bloch_circle(colatitude)).U
    assert abs(np.linalg.det(u) - np.exp(-1j * np.pi * (1.0 - np.cos(colatitude)))) < 1e-10


# constant connections, then non-constant ones, which reach the antiderivative branch
CONNECTIONS = {
    "0.7": lambda t: np.full_like(t, 0.7),
    "-1.2": lambda t: np.full_like(t, -1.2),
    "7.5": lambda t: np.full_like(t, 7.5),
    "0.7+0.3cos": lambda t: 0.7 + 0.3 * np.cos(t),
    "-1.2+0.5sin2": lambda t: -1.2 + 0.5 * np.sin(2.0 * t),
    "2.25+0.2cos3": lambda t: 2.25 + 0.2 * np.cos(3.0 * t),
}
WINDOWS = {"": None, "-w11": PolarizedWindow(1, 1), "-w12": PolarizedWindow(1, 2), "-w34": PolarizedWindow(3, 4)}


@pytest.mark.parametrize(
    "a, window",
    [(a, w) for w in WINDOWS.values() for a in CONNECTIONS.values()],
    ids=[name + suffix for suffix in WINDOWS for name in CONNECTIONS],
)
def test_classifying_loop_transports_to_the_connection_holonomy(a, window):
    circle = make_domain("circle", 256)
    alpha = CircleConnection(circle, a(circle.axes[0].coords))
    data = a_even(alpha, window)
    result = kato_transport(data.representative)
    assert data.invariants["virtual_dimension"] == 0
    assert result.diagnostics["step_halving_ok"]
    assert abs(np.linalg.det(result.U) - np.exp(1j * alpha.integral())) < 1e-10


def test_kato_transport_needs_a_projection_loop():
    circle = make_domain("circle", 16)
    theta = circle.axes[0].coords
    unitary = SampledMap(circle, np.exp(1j * theta)[:, None, None], codomain="unitary")
    torus = SampledMap(make_domain("torus2", (8, 8)), np.broadcast_to(np.diag([1.0, 0.0]), (8, 8, 2, 2)), codomain="projection")
    for loop in (unitary, torus):
        with pytest.raises(NotALoop):
            kato_transport(loop)


def test_kato_transport_of_a_rank_zero_loop_raises_lost_rank():
    zero = SampledMap(make_domain("circle", 16), np.zeros((16, 2, 2)), codomain="projection")
    with pytest.raises(LostRank, match="rank zero"):
        kato_transport(zero)


@pytest.mark.parametrize("length", [1, 2, 3, 5, 8, 13, 64, 4096])
def test_prefix_products_match_the_sequential_product(length):
    rng = np.random.default_rng(length)
    q, _ = np.linalg.qr(rng.standard_normal((length, 3, 3)) + 1j * rng.standard_normal((length, 3, 3)))
    m = q @ (np.eye(3) + 0.05 * rng.standard_normal((length, 3, 3)))
    expected = np.empty_like(m)
    acc = np.eye(3)
    for i in range(length):
        acc = m[i] @ acc
        expected[i] = acc
    got = _prefix_products(m)
    rel = np.linalg.norm(got - expected, axis=(1, 2)) / np.linalg.norm(expected, axis=(1, 2))
    assert got.shape == m.shape and rel.max() < 1e-12


def _sequential_transport(p, dp, w0, stride):
    """One RK4 step at a time with re-projection: the loop the step matrices replace."""
    n = p.shape[0]
    steps = n // (2 * stride)
    h = 2.0 * np.pi / steps
    w = w0.copy()
    defect = 0.0
    for i in range(steps):
        a, mid, b = ((2 * i + j) * stride % n for j in range(3))
        k1 = dp[a] @ w
        k2 = dp[mid] @ (w + 0.5 * h * k1)
        k3 = dp[mid] @ (w + 0.5 * h * k2)
        k4 = dp[b] @ (w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        defect = max(defect, float(np.abs(p[b] @ w - w).max()))
        w = p[b] @ w
    return w, defect


KATO_LOOPS = {
    "bloch_circle": lambda: builders.bloch_circle(1.1),
    "a_even": lambda: a_even(CircleConnection.constant(0.7)).representative,
    # 3 x 3 of rank 2: a real side of 6, and blocks that do not divide the steps
    "a_even_w12": lambda: a_even(CircleConnection.constant(0.7), PolarizedWindow(1, 2)).representative,
}


def _block_steps(loop) -> int:
    side = 2 * loop.cols
    return periodicity.TRANSPORT_BLOCK_BYTES // (side * side * 8)


# each loop with the default blocks, then with blocks of 7 steps: 7 divides
# neither 4096 nor 2048, so blocks end mid-run and the last one is short
BLOCKINGS = [(make, 0) for make in KATO_LOOPS.values()] + [(make, 7) for make in KATO_LOOPS.values()]
BLOCKING_IDS = list(KATO_LOOPS) + [f"{name}-seven_steps" for name in KATO_LOOPS]


def _loop_in_blocks(make, steps, monkeypatch):
    loop = make()
    if steps:
        side = 2 * loop.cols
        monkeypatch.setattr(periodicity, "TRANSPORT_BLOCK_BYTES", steps * side * side * 8)
        assert _block_steps(loop) == steps
    return loop


@pytest.mark.parametrize("make, steps", BLOCKINGS, ids=BLOCKING_IDS)
def test_batched_transport_matches_the_step_loop(make, steps, monkeypatch):
    loop = _loop_in_blocks(make, steps, monkeypatch)
    p, dp = fourier.resample(loop.values, 2 * DEFAULT_TRANSPORT_STEPS)
    w0 = _range_frame(loop.values[0])
    w_end, defect = _sequential_transport(p, dp, w0, 1)
    w_half, _ = _sequential_transport(p, dp, w0, 2)
    q = w0.conj().T @ w_end
    result = kato_transport(loop)
    assert np.abs(result.Q - q).max() < 1e-12
    assert abs(result.diagnostics["step_halving_delta"] - np.abs(q - w0.conj().T @ w_half).max()) < 1e-12
    assert abs(result.diagnostics["tracking_defect"] - defect) < 1e-12


@pytest.mark.parametrize("make, steps", BLOCKINGS, ids=BLOCKING_IDS)
def test_transport_frames_are_the_stacked_prefix_products(make, steps, monkeypatch):
    # block by block: its frames are its prefix products times its start frame
    loop = _loop_in_blocks(make, steps, monkeypatch)
    p, dp = fourier.resample(loop.values, 2 * DEFAULT_TRANSPORT_STEPS)
    w0 = _range_frame(loop.values[0])
    outermost, depth = [], [0]

    def keeping(m):
        depth[0] += 1
        try:
            c = _prefix_products(m)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            outermost.append(c.copy())
        return c

    monkeypatch.setattr(periodicity, "_prefix_products", keeping)
    w_end, _ = periodicity._transport_once(p, dp, w0, 1)
    block = _block_steps(loop)
    full, rest = divmod(DEFAULT_TRANSPORT_STEPS, block)
    assert [len(c) for c in outermost] == [block] * full + [rest] * (rest > 0)
    w = _real_form(w0)
    for c in outermost:  # each block starts from the last frame of the block before
        assert c.dtype == np.float64 and c.shape[1:] == (2 * loop.cols,) * 2
        w = (c @ w)[-1]
    assert np.array_equal(w_end, w.view(complex)[::2])


class _StageGrid(np.ndarray):
    """An array that records every ``matmul`` on a complex operand with a
    step axis (ndim >= 3), and passes the mark on to what is computed from it."""

    products: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and any(np.iscomplexobj(a) for a in inputs) and any(np.ndim(a) >= 3 for a in inputs):
            _StageGrid.products.append(tuple(np.shape(a) for a in inputs))
        plain = [a.view(np.ndarray) if isinstance(a, _StageGrid) else a for a in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(a.view(np.ndarray) if isinstance(a, _StageGrid) else a for a in kwargs["out"])
        result = getattr(ufunc, method)(*plain, **kwargs)
        return result.view(_StageGrid) if isinstance(result, np.ndarray) else result


@pytest.mark.parametrize("make", KATO_LOOPS.values(), ids=KATO_LOOPS.keys())
def test_transport_takes_no_complex_stacked_product(make, monkeypatch):
    resample = fourier.resample

    def marked(values, n):
        return tuple(a.view(_StageGrid) for a in resample(values, n))

    monkeypatch.setattr(fourier, "resample", marked)
    monkeypatch.setattr(_StageGrid, "products", [])
    result = kato_transport(make())
    assert result.diagnostics["step_halving_ok"]
    assert _StageGrid.products == []


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 70), st.integers(0, 2**16))
def test_prefix_products_commute_with_realify(n, length, seed):
    # to realify is to take the real form R of numkernel._real_form
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((length, n, n)) + 1j * rng.standard_normal((length, n, n)))
    m = q @ (np.eye(n) + 0.05 * rng.standard_normal((length, n, n)))
    expected = _real_form(_prefix_products(m))
    got = _prefix_products(_real_form(m))
    rel = np.linalg.norm(got - expected, axis=(1, 2)) / np.linalg.norm(expected, axis=(1, 2))
    assert got.dtype == np.float64 and rel.max() < 1e-12


def test_transport_peak_memory_is_below_seven_quarters_of_the_stage_grid():
    loop = KATO_LOOPS["a_even"]()
    n = loop.cols
    grid_bytes = 2 * (2 * DEFAULT_TRANSPORT_STEPS) * n * n * 16  # p and dp
    tracemalloc.start()
    try:
        kato_transport(loop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == 4 and peak < 1.75 * grid_bytes


def _alternating_loop(res=2048):
    """A projection loop that swaps two orthogonal lines at every node: the
    grid does not resolve it, and a transport step projects its frame to 0."""
    lines = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
    return SampledMap(make_domain("circle", res), lines[np.arange(res) % 2], codomain="projection")


def _nan_loop(codomain="unitary"):
    values = builders.loop_zn(1, res=16, pad=2).values.copy()
    values[5] = np.nan
    return SampledMap(make_domain("circle", 16), values, codomain=codomain)


def _zeroed_loop(scale=0.0):
    """The generic-tagged ``loop_zn(1)`` on U(2), nodes 3-10 multiplied by ``scale``."""
    values = builders.loop_zn(1, res=16, pad=2).values.copy()
    values[3:11] *= scale
    return SampledMap(make_domain("circle", 16), values)


def test_det_winding_reads_a_small_but_nonzero_determinant():
    # the floor is relative: |det| = 1e-10 at eight nodes keeps its phase
    assert det_winding(_zeroed_loop(1e-5)) == 1


CONTRACT_CHECKS = {
    "bott_subspace tag": (
        lambda: bott_subspace(_alternating_loop(16)),
        ShapeMismatch,
        "bott_subspace needs a unitary-tagged circle loop",
    ),
    "bott_subspace resolution": (
        lambda: bott_subspace(builders.loop_zn(1, res=16), B=5),
        BandwidthViolation,
        "circle resolution 16 < 4B = 20",
    ),
    "bott_subspace fractional band": (
        lambda: bott_subspace(builders.loop_zn(1, res=64), B=2.5),
        BandwidthViolation,
        "the declared band B must be an integer >= 1, got 2.5",
    ),
    "loop_zn without a pad": (
        lambda: builders.loop_zn(1, res=16, pad=0),
        ShapeMismatch,
        "loop_zn needs an integer n and an integer pad >= 1, got n = 1, pad = 0",
    ),
    "loop_zn fractional winding": (
        lambda: builders.loop_zn(1.5, res=16),
        ShapeMismatch,
        "loop_zn needs an integer n and an integer pad >= 1, got n = 1.5, pad = 1",
    ),
    "random_unitary_map of size 0": (
        lambda: builders.random_unitary_map(np.random.default_rng(0), make_domain("torus2", (8, 8)), size=0),
        ShapeMismatch,
        "random_unitary_map needs an integer size >= 1 and trig_degree >= 0, got size = 0, trig_degree = 2",
    ),
    "random_unitary_map fractional size": (
        lambda: builders.random_unitary_map(np.random.default_rng(0), make_domain("circle", 8), size=2.0),
        ShapeMismatch,
        "got size = 2.0, trig_degree = 2",
    ),
    "random_unitary_map of a negative trig degree": (
        lambda: builders.random_unitary_map(np.random.default_rng(0), make_domain("circle", 8), trig_degree=-1),
        ShapeMismatch,
        "random_unitary_map needs an integer size >= 1 and trig_degree >= 0, got size = 2, trig_degree = -1",
    ),
    "trig_loop fractional winding": (
        lambda: builders.trig_loop(64, winding=1.5),
        NotALoop,
        "trig_loop needs an integer winding, got 1.5",
    ),
    "random_band_loop one winding per strand": (
        lambda: builders.random_band_loop(np.random.default_rng(0), rank=3, winding=[1, 2]),
        ShapeMismatch,
        r"random_band_loop needs one winding or 3, got \[1, 2\]",
    ),
    "random_band_loop fractional winding": (
        lambda: builders.random_band_loop(np.random.default_rng(0), rank=2, winding=1.5),
        NotALoop,
        "random_band_loop needs integer windings, got 1.5",
    ),
    "det_winding of non-square values": (
        lambda: det_winding(SampledMap(make_domain("circle", 8), np.ones((8, 2, 1), dtype=complex))),
        ShapeMismatch,
        "winding needs square loop values, got 2 x 1",
    ),
    "bott_consistency fractional window": (
        lambda: bott_consistency(builders.loop_zn(1, res=64), M=2.5),
        BandwidthViolation,
        "the window half-width M must be an integer, got 2.5",
    ),
    "det_winding domain": (
        lambda: det_winding(builders.random_unitary_map(np.random.default_rng(0), make_domain("torus2", (8, 8)))),
        ShapeMismatch,
        "winding needs a circle-sampled loop",
    ),
    "det_winding of a generic loop with a NaN node": (
        lambda: det_winding(_nan_loop("generic")),
        SingularInput,
        "winding needs a finite determinant at every node, not at node 5",
    ),
    "det_winding of a generic loop with zero nodes": (
        lambda: det_winding(_zeroed_loop()),
        SingularInput,
        "winding needs a nonzero determinant at every node, not at node 3",
    ),
    "transport of an unresolved loop": (
        lambda: kato_transport(_alternating_loop()),
        LostRank,
        "transported frame degenerated",
    ),
    "bott_consistency of a loop with a NaN node": (
        lambda: bott_consistency(_nan_loop()),
        ShapeMismatch,
        "unitary tag violated: max node defect nan",
    ),
}


def test_random_band_loop_winds_one_strand_by_one_integer_of_any_type():
    # one winding for two strands used to be broadcast to both, and wound twice
    for winding in (1, np.int64(1), [1, 0]):
        gamma = builders.random_band_loop(np.random.default_rng(3), rank=2, winding=winding, res=64)
        assert det_winding(gamma) == 1
    with pytest.raises(ShapeMismatch, match="one winding or 2"):
        builders.random_band_loop(np.random.default_rng(3), rank=2, winding=[1])


@pytest.mark.parametrize("name", CONTRACT_CHECKS)
def test_contract_checks_raise_their_errors(name):
    call, error, fragment = CONTRACT_CHECKS[name]
    assert issubclass(error, ChernLabError)
    with pytest.raises(error, match=fragment), np.errstate(invalid="ignore"):
        call()
