"""Exception hierarchy shared across the package."""


class PGraphsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(PGraphsError):
    """An element's coordinate length does not match the spec rank."""


class KernelNotTrivial(PGraphsError):
    """The weight matrix has a nonzero integer kernel, but the operation
    requires the coordinate map to be injective."""


class CertificationFailed(PGraphsError):
    """Generator search could not certify completeness within the bound."""

    def __init__(self, norm_bound: int, message: str):
        self.norm_bound = norm_bound
        super().__init__(message)


class NonPrimeModulus(PGraphsError):
    """A residue model row uses a composite modulus."""


class NotInSemigroup(PGraphsError):
    """An element lies outside the cone semigroup it was asserted to be in."""


class LevelNotComparable(PGraphsError):
    """Two levels are not comparable in the cone order, so no truncation map
    between their fibers exists."""


class SliceTooLarge(PGraphsError):
    """A slice or product would hold more vertices than a build may list;
    raised from the exact count, before any vertex is listed."""

    def __init__(self, vertices: int, limit: int, what: str = "slice"):
        self.vertices = vertices
        self.limit = limit
        super().__init__(f"the {what} would hold {vertices} vertices, above the limit {limit}")


class NotApplicable(PGraphsError):
    """The operation's structural precondition does not hold for this input."""


class ConfigError(PGraphsError):
    """A model configuration file is malformed; message names the field."""
