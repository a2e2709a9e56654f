"""The benchmark's four closed-loop workloads.

Each workload builds a small pool of distinct inputs from the workload seed
during set-up, then runs one verification operation per call of ``run`` and
scores it against the analytic oracle in :mod:`oracles`.  ``run`` raises
:class:`oracles.OpFailure` when the output breaks a structural property; an
oracle disagreement is returned as a residual instead, because at the seed
several oracles disagree on most operations (see README.md).

The seed draws everything that leaves the oracle residual invariant: the
frames the inputs are conjugated by, the torus symmetry they are pulled back
by, the base point of each loop, and the random factors and per-strand
windings of the band loops.  What sets the size of a residual (the
trigonometric coefficients of the Chern-Simons maps, the colatitudes and
connection constants of the transported loops, the total windings) is fixed
per workload, so ``accuracy_digits`` compares across seeds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from chernlab import builders, chernforms, geomgrid, khat, kops, periodicity, stiefel

import oracles

HELD_OUT_SEED = 7919  # kept out of tuning; a gain claim must also hold on it


@dataclass(frozen=True)
class OpOutput:
    residual: float  # worst oracle distance of this operation
    observables: dict  # per-layer residuals and diagnostics, by metric name
    transport_steps: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    build_pool: Callable[[np.random.Generator], tuple[list, dict]]
    run: Callable[[object], OpOutput]


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _torus_symmetry(rng: np.random.Generator, values: np.ndarray) -> np.ndarray:
    """Pull back by a random axis permutation and reflections ``x -> -x``.

    Both map the generating cycles through node 0 onto each other, so the
    cycle-integral magnitudes are unchanged up to round-off.
    """
    dim = values.ndim - 2
    out = np.transpose(values, (*rng.permutation(dim), dim, dim + 1))
    for axis in range(dim):
        if rng.integers(2):
            out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# Chern-Simons transgression of the inversion homotopies

CS_POOL = 3
CS_T_RES = 17
CS_K_MAX = 2


def _cs_odd_pool(rng: np.random.Generator) -> tuple[list, dict]:
    family = np.random.default_rng(1905_03059)
    dom = geomgrid.make_domain("torus3", (16, 16, 16))
    pool, out_bytes = [], 0
    for _ in range(CS_POOL):
        f = builders.random_unitary_map(family, dom, size=2, amp=0.3, trig_degree=2)
        v = _haar(rng, 2)
        values = _torus_symmetry(rng, v @ f.values @ v.conj().T)
        h = kops.inversion_homotopy_odd(geomgrid.SampledMap(dom, values, codomain="unitary"), t_res=CS_T_RES)
        out_bytes += h.slices.nbytes + h.time_partials.nbytes
        pool.append(h)
    return pool, {"kops.inversion_homotopy_odd.out_mb": out_bytes / 1e6}


def _cs_even_pool(rng: np.random.Generator) -> tuple[list, dict]:
    family = np.random.default_rng(1905_03060)
    dom = geomgrid.make_domain("torus3", (12, 12, 12))
    window = stiefel.PolarizedWindow(2, 2)
    pool, out_bytes = [], 0
    for _ in range(CS_POOL):
        x = builders.random_unitary_map(family, dom, size=4, window=window)
        # a global phase cancels in the projections x pi_+ x*
        values = _torus_symmetry(rng, np.exp(2j * np.pi * rng.random()) * x.values)
        h = kops.inversion_homotopy_even(
            geomgrid.SampledMap(dom, values, codomain="unitary", window=window), t_res=CS_T_RES
        )
        out_bytes += h.slices.nbytes + h.time_partials.nbytes
        pool.append(h)
    return pool, {"kops.inversion_homotopy_even.out_mb": out_bytes / 1e6}


def _cs_run(h) -> OpOutput:
    residuals = chernforms.cs_exact(h, k_max=CS_K_MAX)["residuals"]
    oracles.require_finite(**{f"deg{d}": r for d, r in residuals.items()})
    return OpOutput(
        residual=max(oracles.distance(r, 0.0) for r in residuals.values()),
        observables={f"chernforms.cs_exact.residual.deg{d}": float(r) for d, r in residuals.items()},
    )


# ---------------------------------------------------------------------------
# the three Bott routes and the circle class of a unitary band loop

BOTT_TOTALS = (-3, -2, -1, 0, 1, 2, 3)
BOTT_RANK = 3
BOTT_M, BOTT_B = 80, 30  # the defaults of bott_consistency raise BandwidthViolation


def _strand_windings(rng: np.random.Generator, total: int) -> tuple[int, ...]:
    choices = [w for w in itertools.product(range(-2, 3), repeat=BOTT_RANK) if sum(w) == total]
    return choices[rng.integers(len(choices))]


def _bott_pool(rng: np.random.Generator) -> tuple[list, dict]:
    pool = []
    for total in BOTT_TOTALS:
        windings = _strand_windings(rng, total)
        gamma = builders.random_band_loop(rng, rank=BOTT_RANK, winding=list(windings), res=256)
        pool.append((gamma, oracles.total_winding(windings)))
    return pool, {}


def _bott_run(item) -> OpOutput:
    gamma, n = item
    report = periodicity.bott_consistency(gamma, M=BOTT_M, B=BOTT_B)
    winding = khat.khat_class(gamma).invariants["winding"]
    oracles.require_finite(ch1=report["ch1_integral"])
    routes = {
        "ch1": report["ch1_route"],
        "det": report["det_winding"],
        "toeplitz": -report["virtual_dimension"],
    }
    oracles.require_integer(routes["ch1"], "route (a)")
    observables = {f"periodicity.bott_consistency.route_err.{k}": abs(v - n) for k, v in routes.items()}
    observables["periodicity.bott_consistency.band_leak"] = report["diagnostics"]["band_leak"]
    return OpOutput(
        residual=max(oracles.distance(v, n) for v in (*routes.values(), winding)),
        observables=observables,
    )


# ---------------------------------------------------------------------------
# Kato transport of projection loops

KATO_COLATITUDES = (0.6, 1.1, 2.3)  # pi/2 gives a real holonomy, which hides conjugation
KATO_CONNECTIONS = (0.7, -1.2)


def _reframe_loop(rng: np.random.Generator, p) -> geomgrid.SampledMap:
    """Conjugate by a constant unitary and move the base point; the
    determinant of the holonomy is invariant under both."""
    v = _haar(rng, p.rows)
    values = np.roll(v @ p.values @ v.conj().T, int(rng.integers(p.values.shape[0])), axis=0)
    return geomgrid.SampledMap(p.domain, values, codomain="projection", window=p.window)


def _kato_pool(rng: np.random.Generator) -> tuple[list, dict]:
    pool = []
    for theta in KATO_COLATITUDES:
        pool.append((_reframe_loop(rng, builders.bloch_circle(theta)), oracles.berry_holonomy(theta)))
    for c in KATO_CONNECTIONS:
        rep = khat.a_even(khat.CircleConnection.constant(c)).representative
        pool.append((_reframe_loop(rng, rep), oracles.connection_holonomy(c)))
    return pool, {}


def _kato_run(item) -> OpOutput:
    loop, expected = item
    result = periodicity.kato_transport(loop)
    diag = result.diagnostics
    oracles.require_finite(U=result.U)
    oracles.require_unitary(result.U)
    if not diag["step_halving_ok"]:
        raise oracles.OpFailure(f"step halving moved the holonomy by {diag['step_halving_delta']:.3e}")
    steps = diag["steps"] + max(diag["steps"] // 2, 8)  # the halving check transports again
    return OpOutput(
        residual=oracles.distance(np.linalg.det(result.U), expected),
        observables={
            f"periodicity.kato_transport.{k}": float(diag[k])
            for k in ("step_halving_delta", "tracking_defect", "gram_drift")
        },
        transport_steps=steps,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cs_odd_torus3", _cs_odd_pool, _cs_run),
        Workload("cs_even_torus3", _cs_even_pool, _cs_run),
        Workload("bott_loops", _bott_pool, _bott_run),
        Workload("kato_loops", _kato_pool, _kato_run),
    )
}
