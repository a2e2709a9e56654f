"""The shuffle wedge of matrix-valued forms, the reference that the written-out
traces of ``chernlab`` are tested against.

A form is a dict ``{I: array (..., n, n)}`` over strictly increasing axis
multi-indices ``I`` (``()`` for a 0-form), and the wedge is the shuffle
product ``(a ^ b)_K = sum sgn(I, J) a_I b_J`` over disjoint ``I u J = K``,
``sgn(I, J)`` being the sign of the shuffle that sorts ``I + J``; these are
the component conventions of the :mod:`chernlab.chernforms` docstring.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from chernlab.errors import ShapeMismatch


def _wedge(a: dict, b: dict, product) -> dict:
    """Shuffle wedge of two matrix-valued forms, components multiplied by ``product``."""
    out: dict[tuple[int, ...], np.ndarray] = {}
    for first, x in a.items():
        for second, y in b.items():
            if not set(first) & set(second):
                key = tuple(sorted(first + second))
                term = (-1) ** sum(i > j for i in first for j in second) * product(x, y)
                out[key] = out[key] + term if key in out else term
    return out


def trace_wedge(*factors: dict[tuple[int, ...], np.ndarray]) -> dict[tuple[int, ...], np.ndarray]:
    """Components of ``tr(a_1 ^ ... ^ a_r)`` for matrix-valued forms.

    Each factor maps strictly increasing axis multi-indices to operator
    values stacked over nodes, ``(..., n, n)``; the wedge is the shuffle
    product of the module docstring.  The result maps each strictly
    increasing multi-index of the total degree to a scalar array over the
    nodes.  The last factor is paired by ``tr(x y) = sum_ij x_ij y_ji``, so
    the final matrix product is never formed.  ShapeMismatch without a
    factor.
    """
    if not factors:
        raise ShapeMismatch("trace_wedge needs at least one factor")
    *head, last = factors
    if not head:
        return {key: np.trace(x, axis1=-2, axis2=-1) for key, x in sorted(last.items())}
    acc = head[0]
    for factor in head[1:]:
        acc = _wedge(acc, factor, np.matmul)
    return dict(sorted(_wedge(acc, last, partial(np.einsum, "...ij,...ji->...")).items()))
