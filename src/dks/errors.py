"""Exception hierarchy.

Everything raised on purpose derives from DksError so CLI code can map
failures to exit codes without enumerating causes; InternalError marks
the ones that report a bug rather than a bad input, and BadArgument the
ones that refuse an argument a caller passed in (it is a ValueError too).
"""


class DksError(Exception):
    """Base class for all deliberate failures."""


class BadArgument(DksError, ValueError):
    """An argument the function refuses, e.g. k < 0 or an unknown name."""


class FormatError(DksError):
    """Input file could not be parsed."""


class NotPlanar(DksError):
    """Graph admits no planar embedding."""


class NotOuterplanar(DksError):
    """Graph is not outerplanar (solver requires it)."""


class EmbeddingInconsistent(DksError):
    """A supplied rotation system / outer face failed validation."""


class InternalError(DksError):
    """Internal: an exactness invariant of the decomposition or the DPs
    failed.  A bug in this package, not a fault of the input."""


class TriangulationIncomplete(InternalError):
    """Internal: augmentation left a face untriangulated where the
    decomposition needs a triangulation edge."""


class NoDividingPoint(InternalError):
    """Internal: no admissible boundary split point exists; indicates a
    broken triangulation invariant."""


class BoundaryMismatch(InternalError):
    """Internal: two slice tables were merged along unequal boundaries."""


class KTooLarge(DksError):
    """Requested k exceeds the number of vertices."""


class TooManyEdges(DksError):
    """Graph has too many edges for the int32 tables of either solver to
    count exactly."""


class CapExceeded(DksError):
    """An exponential-time oracle was asked to exceed its size cap."""


class InfeasibleSpec(DksError):
    """Generator parameters admit no instance (e.g. n too small for the
    requested number of layers)."""
