"""Exception types shared across the package.

Two families matter to callers. Validation errors mean the input or a
precondition was rejected before any heavy computation ran. Numerical
diagnostics mean a computation ran but could not meet its accuracy
contract. The command line maps the two families to distinct exit codes.
"""


class FockspaceError(Exception):
    """Base class for every package-specific error.

    Keyword arguments are structured diagnostic fields: each becomes an
    attribute, and ``fields`` holds them all for the command line's
    error report.
    """

    def __init__(self, *args, **fields):
        super().__init__(*args)
        self.fields = fields
        self.__dict__.update(fields)


class ValidationError(FockspaceError):
    """Bad input or a failed precondition; nothing was computed."""


class NumericalDiagnosticError(FockspaceError):
    """A computation ran but failed an internal accuracy check."""


class Overflow(NumericalDiagnosticError):
    """A plain complex result left the log-safe range; use the log form."""


class UnsupportedRepresentation(ValidationError):
    """Operation is not defined for this function representation."""


class AlphaMismatch(ValidationError):
    """Operands live in spaces with different weight parameters."""


class EmptyWindow(ValidationError):
    """Requested window contains no points."""


class CollisionAfterPerturbation(ValidationError):
    """Two perturbed points coincide; retry with a new seed or smaller shift."""


class TooFewPoints(ValidationError):
    """Operation needs more points than the set contains."""


class NotUniformlyClose(ValidationError):
    """Rounding points to lattice indices produced a collision."""


class WindowTooSmall(ValidationError):
    """No translate of the scanned square fits inside the window."""


class NodeIndexMissing(ValidationError):
    """Point set lacks the lattice index required by this operation."""


class QuadratureOrderTooLow(NumericalDiagnosticError):
    """A quadrature rule is too coarse for its integrand.

    ``order`` is the order found too low.
    """


class PointNotInSet(ValidationError):
    """The named point is not a member of the point set."""


class DensityOrderViolated(ValidationError):
    """Point-set density is on the wrong side of the critical density."""


class MissingSamples(ValidationError):
    """Sample data is absent for nodes inside the truncation radius."""
