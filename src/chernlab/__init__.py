"""chernlab: numerical Chern character / Chern-Simons machinery on truncated
polarized mode windows, with analytic-oracle verification suites."""

__version__ = "0.1.0"

from . import builders, chernforms, fourier, geomgrid, khat, kops, numkernel, periodicity, stiefel  # noqa: F401
