"""Exception types raised by the public operations.

All of them derive from :class:`ChernLabError` (itself a ``ValueError``), so
callers that do not care about the fine distinctions can catch a single type.
"""


class ChernLabError(ValueError):
    """Base class for all validation / numerical-contract failures."""


class SingularInput(ChernLabError):
    """Matrix is numerically singular where an invertible one is required."""


class NotUnitary(ChernLabError):
    pass


class BadResolution(ChernLabError):
    """A domain kind that make_domain does not know, or node counts that are
    not one integer per axis, each at least the minimum."""


class DegreeMismatch(ChernLabError):
    pass


class DegreeOverflow(ChernLabError):
    """Requested form degree exceeds the domain dimension."""


class ShapeMismatch(ChernLabError):
    pass


class AsymmetricWindow(ChernLabError):
    """Operation requires a polarized window with n_plus == n_minus."""


class BadPathStart(ChernLabError):
    """Conjugation path does not start at the identity."""


class DegenerateFrame(ChernLabError):
    """Subspace basis columns are not orthonormal."""


class BandwidthViolation(ChernLabError):
    """Fourier content outside the declared band exceeds tolerance."""


class WindowTooSmall(ChernLabError):
    pass


class NotALoop(ChernLabError):
    """Endpoint slices of a would-be loop disagree."""


class LostRank(ChernLabError):
    """Transported frame degenerated during parallel transport."""


class UnsupportedDomain(ChernLabError):
    """Requested invariant is not complete on this base domain."""


class NotBasedAtIdentity(ChernLabError):
    """Homotopy does not start at the basepoint."""
