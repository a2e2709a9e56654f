"""Analytic oracles for the benchmark's verification operations, and the
rules that turn one operation's output into residuals and a pass/fail.

Every oracle here is computed from the input's construction alone, never from
``chernlab`` output, so a defect in the program shows as a residual:

* Berry phase of a colatitude circle on the Bloch sphere (Berry 1984): the
  holonomy of the tautological line is ``exp(-i pi (1 - cos theta))``;
* the holonomy of a circle connection ``alpha``: ``exp(i int alpha)``;
* the index of a unitary loop: every Bott route equals the total winding
  ``sum(n_j)`` of ``diag(e^{i n_j theta})``;
* the Chern-Simons form of ``f (+) f*`` (or ``x (+) flip x``) is exact, so
  every generating-cycle integral vanishes.
"""

from __future__ import annotations

import math

import numpy as np

ACCURACY_FLOOR = 1e-12  # round-off reordering below this is not a change
UNITARY_TOL = 1e-8
INTEGER_TOL = 1e-6


class OpFailure(Exception):
    """An operation broke a structural property that holds at every correct
    output (as opposed to disagreeing with its analytic oracle)."""


def berry_holonomy(colatitude: float) -> complex:
    """Holonomy of the line ``(cos(t/2), sin(t/2) e^{i phi})`` around the
    colatitude circle traversed with increasing ``phi``."""
    return complex(np.exp(-1j * np.pi * (1.0 - np.cos(colatitude))))


def connection_holonomy(c: float) -> complex:
    """``exp(i int_0^{2 pi} c dtheta)`` for the constant connection ``c``."""
    return complex(np.exp(2j * np.pi * c))


def total_winding(windings) -> int:
    """Index oracle for ``U0 exp(iH) diag(e^{i n_j theta}) U1``."""
    return int(sum(int(n) for n in windings))


def distance(x: complex, y: complex) -> float:
    """``|x - y| / (1 + |x| + |y|)``: absolute near zero, relative for large
    values, and always below 1, so ``accuracy_digits`` stays positive even
    when the output has the wrong sign."""
    x, y = complex(x), complex(y)
    return abs(x - y) / (1.0 + abs(x) + abs(y))


def accuracy_digits(worst_residual: float) -> float:
    """``-log10(max(r, 1e-12))`` of the worst oracle residual of a run."""
    return -math.log10(max(float(worst_residual), ACCURACY_FLOOR))


def require_finite(**values) -> None:
    for name, v in values.items():
        if not np.all(np.isfinite(np.asarray(v))):
            raise OpFailure(f"{name} is not finite")


def require_unitary(u: np.ndarray, name: str = "U") -> None:
    u = np.asarray(u)
    defect = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))
    if not defect < UNITARY_TOL:
        raise OpFailure(f"{name} is not unitary: defect {defect:.3e}")


def require_integer(x: float, name: str) -> None:
    if not abs(x - round(x)) < INTEGER_TOL:
        raise OpFailure(f"{name} = {x!r} is not an integer")
