"""Exception taxonomy shared across the package."""


class PrescurvError(Exception):
    """Base class for all package errors."""


class Inadmissible(PrescurvError):
    """A trial state is not admissible: the line search steps back from it, a chord step
    is dropped, jacobian_sparse raises AdmissibilityError and a predicted t-step halves dt."""


class DomainViolation(Inadmissible):
    """A radius left the warp profile's interval."""


class ProfileViolation(Inadmissible):
    """The warping function or its derivative is non-positive at a point."""


class NonFiniteField(Inadmissible, ValueError):
    """A node field holds an infinite or NaN value.

    Also a ValueError, which callers validating outside input catch.
    """


class ConeViolation(Inadmissible):
    """Eigenvalues left the admissibility cone (some sigma_j <= 0)."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class DegeneratePair(PrescurvError):
    """Two eigenvalues coincide where an identity divides by their gap."""


class AdmissibilityError(Inadmissible):
    """A field or target graph fails an admissibility precondition."""


class AssumptionFailure(PrescurvError):
    """The prescribed-curvature function violates a barrier/monotonicity assumption."""


class NewtonFailure(PrescurvError):
    """Newton iteration did not converge (max iterations or line-search exhaustion)."""


class ContinuationBreakdown(PrescurvError):
    """The homotopy step underflowed; carries the last good state."""

    def __init__(self, message, last_good=None, failed_interval=None):
        super().__init__(message)
        self.last_good = last_good
        self.failed_interval = failed_interval


class FParseError(PrescurvError):
    """Syntax or identifier error in a prescribed-function expression."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FEvalError(Inadmissible):
    """A prescribed-function expression produced a non-finite or non-positive value."""


class OutputError(PrescurvError):
    """An output directory or file of a run cannot be written."""


class ConfigError(PrescurvError):
    """A configuration file is malformed or inconsistent; carries the offending key."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
