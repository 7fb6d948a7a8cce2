"""Exception types shared across the package."""


class ContactRelError(Exception):
    """Base class for all errors raised by contactrel."""


# --- geometry ---------------------------------------------------------------

class NonFiniteMetric(ContactRelError):
    """Metric evaluation produced NaN, Inf or non-real entries."""


class NonFiniteDerivative(ContactRelError):
    """Metric derivative evaluation produced NaN, Inf or non-real entries."""


class BadSignature(ContactRelError):
    """Inverse metric does not have Lorentzian signature (-,+,+,+)."""


class SingularMetric(ContactRelError):
    """Inverse metric is numerically singular (condition number too large)."""


# --- dynamics ---------------------------------------------------------------

class NotTimelike(ContactRelError):
    """Momentum is not timelike, so no mass-shell rescaling exists."""


class MasslessProjection(ContactRelError):
    """Operation requires a positive rest mass but the mass vanishes."""


class TransversalityFailure(ContactRelError):
    """Reduction by phi is ill-defined because m(phi)^2 c^2 is (near) zero."""


class ShellSolveFailed(ContactRelError):
    """No admissible energy root exists for the requested shell constraint."""


# --- integrators ------------------------------------------------------------

class NotMonotone(ContactRelError):
    """Requested reparametrization variable is not strictly monotone."""


class InsufficientSamples(ContactRelError):
    """Trajectory holds too few samples for the requested operation."""


class StepSizeUnderflow(ContactRelError):
    """Adaptive step size fell below the configured minimum."""


class MaxStepsExceeded(ContactRelError):
    """Integration exceeded the configured step budget before stopping."""


# --- kinetic ----------------------------------------------------------------

class NonPositiveDensity(ContactRelError):
    """A marker carries a non-positive distribution value."""


class EmptyEnsemble(ContactRelError):
    """Ensemble has no markers."""


class UnnormalizableSpec(ContactRelError):
    """Initial density specification does not define a normalizable density."""


# --- scenario / cli ---------------------------------------------------------

class ParseError(ContactRelError):
    """Scenario input is not valid JSON."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(ContactRelError):
    """Scenario JSON is well-formed but violates the schema."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")
