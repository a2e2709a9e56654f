"""The stacked form of a homotopy, for tests: slices, time jets and spatial
jets given at every time node, held as one block store read by one-hot
weight tables."""

import numpy as np

from chernlab.chernforms import Homotopy


def stacked_homotopy(
    spatial, times, quadrature, slices, time_partials=None, codomain="generic", window=None, spatial_partials=None
) -> Homotopy:
    """The homotopy whose slice, time jet and jet along spatial axis ``a`` at
    time node ``i`` are row ``i`` of ``slices``, of ``time_partials`` (zero
    when None) and of ``spatial_partials[a]``: the stacks are the chunks of
    its store, and table ``j`` is ``eye(n, n_blocks, j n)``."""
    stacks = [slices, np.zeros_like(slices) if time_partials is None else time_partials, *(spatial_partials or ())]
    n = len(slices)
    store = np.concatenate(stacks)
    weights, time_weights, *axes = (np.eye(n, len(store), j * n) for j in range(len(stacks)))
    spatial_weights = None if spatial_partials is None else tuple(axes)
    return Homotopy(spatial, times, quadrature, store, weights, time_weights, codomain, window, spatial_weights)
