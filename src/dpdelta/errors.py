"""Exception types shared across the package."""


class DpDeltaError(Exception):
    """Base class for all package-specific errors."""


class OutOfDomain(DpDeltaError):
    """A sweep parameter outside a decomposition's domain [0, tau]."""


class IrrationalRoot(DpDeltaError):
    """A required root exists over the reals but is not rational.

    Raised instead of approximating: every supported configuration has
    rational chamber breakpoints, so hitting this signals bad input data.
    """


class DimensionMismatch(DpDeltaError):
    """Vector/matrix sizes do not match the configuration's curve basis."""


class SchemaError(DpDeltaError):
    """A configuration or catalog file does not match the expected schema."""


class NotPseudoEffective(DpDeltaError):
    """The divisor admits no Zariski decomposition against the known curves."""


class NotSmooth(DpDeltaError):
    """Blowups are only defined on smooth-surface configurations."""


class InconsistentIncidence(DpDeltaError):
    """A point's local multiplicities exceed the global intersection numbers."""


class NoSolution(DpDeltaError):
    """The brute-force oracle found no admissible negative part."""


class Ambiguous(DpDeltaError):
    """The brute-force oracle found two distinct negative parts.

    Zariski decompositions are unique, so this always indicates a broken
    configuration (typically an indefinite Gram matrix slipping through).
    """


class NotCertified(DpDeltaError):
    """A case's flag reports do not certify the claimed delta value."""


class MissingFlag(DpDeltaError):
    """A singularity entry needs a nodal/cuspidal or reducibility qualifier."""
