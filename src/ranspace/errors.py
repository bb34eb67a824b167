"""Exception types shared across the package."""


class RanspaceError(Exception):
    """Base class for all package errors."""


class InvalidPoint(RanspaceError):
    """A point does not lie on the given space."""


class SpaceMismatch(RanspaceError):
    """Two values were built over different spaces."""


class CapExceeded(RanspaceError):
    """A configuration would exceed its cardinality cap."""


class EmptyConfiguration(RanspaceError):
    """Configurations must contain at least one point."""


class EndpointMismatch(RanspaceError):
    """Path endpoints do not line up within tolerance."""


class AmbiguousLift(RanspaceError):
    """A circle step of at least half the circumference cannot be lifted."""


class AmbiguousBranching(RanspaceError):
    """A branching point carries fewer strands than it has successors, so
    no strand decomposition exists on the grid."""


class UnsupportedDegree(RanspaceError):
    """The single-turn contraction only accepts turns = +1 or -1."""


class ModeViolation(RanspaceError):
    """A contraction certificate exceeded the cardinality cap of its mode."""


class SizeLimit(RanspaceError):
    """The implied simplex count exceeds the configured budget."""


class SchemaError(RanspaceError):
    """A JSON document does not match the track or homotopy schema."""
