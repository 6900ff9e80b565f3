"""Exception types shared across the package."""


class SlipStabError(Exception):
    """Base class for every error this package raises on purpose."""


class NotPositiveDefinite(SlipStabError, ValueError):
    """The anti-plane stiffness matrix (or a density) is not positive definite."""


class NonpositiveVelocity(SlipStabError, ValueError):
    """Slip velocity must be strictly positive for the logarithmic friction law."""


class DomainError(SlipStabError, ValueError):
    """Argument lies outside the mathematical domain of the operation."""


class VelocityStrengthening(SlipStabError, ValueError):
    """Operation is only meaningful for steady-state velocity weakening (b > a)."""


class BranchPole(SlipStabError, ArithmeticError):
    """Transfer-function denominator vanished; cannot happen for physical input."""


class ContourThroughZero(SlipStabError, ArithmeticError):
    """A characteristic root sits on (or hugs) the counting contour after retries."""


class StepFailure(SlipStabError, RuntimeError):
    """ODE integration failed: the step size underflowed or the evaluation
    budget ran out (carrying the last accepted state), or a trial step
    overflowed or divided by an underflowed zero (carrying none)."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class Inconclusive(SlipStabError, RuntimeError):
    """The stiffness regula falsi could not bracket or resolve the growth-decay
    threshold within its budget."""


class InputError(SlipStabError, ValueError):
    """Malformed run configuration. The message names the offending field."""
