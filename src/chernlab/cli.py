"""The ``chernlab`` command.

``chernlab verify`` runs the analytic oracle checks and prints one JSON
object: ``checks``, one entry per check with its ``name``, ``residual``,
``bound``, ``verdict``, the operation's ``diagnostics`` and the wall
``seconds`` it took, and the overall ``verdict``.  The exit status is 0 only
if every verdict holds.  The oracles come from each input's construction
alone:

* Berry (1984): Kato transport of ``bloch_circle(theta)`` has holonomy
  ``exp(-i pi (1 - cos theta))``;
* the classifying loop ``a_even`` of the constant connection ``c`` transports
  to ``exp(2 pi i c)``, also on a window whose 3 x 3 loop, of rank 2, ends its
  transport in a short block of steps;
* the three Bott routes of ``loop_zn(n)`` all recover ``n``;
* ``int ch_1`` of the Qi-Wu-Zhang band ``qwz_band(m)`` is -1, +1 and 0 for
  m = 1, -1 and 3 (Qi, Wu and Zhang, 2006);
* the Chern-Simons forms of the odd inversion homotopy of ``su2_chart()``
  and of the even inversion homotopy of a windowed ``random_unitary_map``
  on the 8^3 torus, both with exact partials, are exact: every residual of
  ``cs_exact`` vanishes;
* so is the degree-1 form of the even inversion of the same leaf without
  its partials, whose slices are frames ``V`` and whose grid jets are those
  of ``V V*``: the 8^3 grid does not resolve the leaf, and jets of ``V``
  itself would leave a residual of about 0.1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import builders
from .chernforms import ch_even, cs_exact
from .geomgrid import SampledMap, integrate, make_domain
from .khat import CircleConnection, a_even
from .kops import inversion_homotopy_even, inversion_homotopy_odd
from .periodicity import bott_consistency, kato_transport
from .stiefel import PolarizedWindow

__all__ = ["main", "verify"]

HOLONOMY_BOUND = 1e-10  # |det U - oracle|
BOTT_BOUND = 1e-6  # |int ch_1 route - n|, also the tolerance of bott_consistency
BERRY_COLATITUDES = (0.6, 1.1, 2.3)
CONNECTIONS = ((0.7, None), (-1.2, None), (0.7, (1, 2)))  # (c, the window of a_even, if not the default)
WINDINGS = range(-2, 3)
QWZ_CHERN = ((1.0, -1), (-1.0, 1), (3.0, 0))  # (m, int ch_1 of qwz_band(m))
CS_BOUND = 1e-10  # every cs_exact residual of an inversion homotopy
GRID_JET_CS_BOUND = 1e-12  # the degree-1 cs_exact residual of the even inversion with grid jets


def _plain(x):
    """JSON-ready copy: numpy scalars as Python numbers, non-finite floats as strings."""
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    return x


def _entry(name: str, bound: float, check, *args) -> dict:
    """Run ``check(*args) -> (residual, ok, diagnostics)`` and time it."""
    start = time.perf_counter()
    residual, ok, diagnostics = check(*args)
    return {
        "name": name,
        "residual": float(residual),
        "bound": bound,
        "verdict": bool(ok and residual < bound),
        "diagnostics": diagnostics,
        "seconds": time.perf_counter() - start,
    }


def _holonomy(loop, expected: complex):
    result = kato_transport(loop)
    residual = abs(complex(np.linalg.det(result.U)) - expected)
    return residual, result.diagnostics["step_halving_ok"], result.diagnostics


def _bott(n: int):
    report = bott_consistency(builders.loop_zn(n))
    ok = report["verdict"] and report["det_winding"] == n and report["virtual_dimension"] == -n
    return abs(report["ch1_route"] - n), ok, {k: v for k, v in report.items() if k != "verdict"}


def _chern_number(m: float, n: int):
    integral = complex(integrate(ch_even(builders.qwz_band(m), 1)))
    return abs(integral - n), True, {"ch1_integral": integral.real}


def _cs_inversion(homotopy, leaf, k_max: int, bound: float):
    report = cs_exact(homotopy(leaf), k_max=k_max, tol=bound)
    return max(report["residuals"].values()), report["verdict"], {"residuals": report["residuals"]}


def verify() -> list[dict]:
    """Every oracle check, in a fixed order."""
    checks = []
    for theta in BERRY_COLATITUDES:
        loop = builders.bloch_circle(theta)
        berry = complex(np.exp(-1j * np.pi * (1.0 - np.cos(theta))))
        checks.append(_entry(f"berry_phase/bloch_circle({theta})", HOLONOMY_BOUND, _holonomy, loop, berry))
    for c, window in CONNECTIONS:
        label = f"{c}" if window is None else f"{c}, window {window}"
        loop = a_even(CircleConnection.constant(c), window and PolarizedWindow(*window)).representative
        holonomy = complex(np.exp(2j * np.pi * c))
        checks.append(_entry(f"connection_holonomy/a_even({label})", HOLONOMY_BOUND, _holonomy, loop, holonomy))
    for n in WINDINGS:
        checks.append(_entry(f"bott_consistency/loop_zn({n})", BOTT_BOUND, _bott, n))
    for m, n in QWZ_CHERN:
        checks.append(_entry(f"chern_number/qwz_band({m})", BOTT_BOUND, _chern_number, m, n))
    torus = make_domain("torus3", (8, 8, 8))
    x = builders.random_unitary_map(np.random.default_rng(0), torus, size=4, window=PolarizedWindow(2, 2))
    plain = SampledMap(torus, x.values, codomain="unitary", window=x.window)  # no partials: grid jets
    for name, bound, homotopy, leaf, k_max in (
        ("cs_exact/inversion_homotopy_odd(su2_chart)", CS_BOUND, inversion_homotopy_odd, builders.su2_chart(), 3),
        (
            "cs_exact_deg1/inversion_homotopy_even(random_unitary_map, grid jets)",
            GRID_JET_CS_BOUND,
            inversion_homotopy_even,
            plain,
            1,
        ),
        ("cs_exact/inversion_homotopy_even(random_unitary_map)", CS_BOUND, inversion_homotopy_even, x, 3),
    ):
        checks.append(_entry(name, bound, _cs_inversion, homotopy, leaf, k_max, bound))
    return checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="chernlab", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("verify", help="run the analytic oracle checks and print JSON")
    parser.parse_args(argv)
    checks = verify()
    verdict = all(c["verdict"] for c in checks)
    print(json.dumps(_plain({"checks": checks, "verdict": verdict}), indent=2))
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
