"""Exception types shared across the package.

The second base of each type says whose fault the error is.  A ValueError
(InputError, DomainError, NotPositiveDefinite, NonpositiveVelocity,
VelocityStrengthening) rejects an input; the CLI reports it with exit 2.
Any other SlipStabError is a failure of the solver, exit 3.
"""

import math

__all__ = ["SlipStabError", "NotPositiveDefinite", "NonpositiveVelocity", "DomainError",
           "VelocityStrengthening", "BranchPole", "ContourThroughZero", "StepFailure",
           "Inconclusive", "InputError"]


class SlipStabError(Exception):
    """Base class for every error this package raises on purpose."""


class NotPositiveDefinite(SlipStabError, ValueError):
    """The anti-plane stiffness matrix (or a density) is not positive definite."""


class NonpositiveVelocity(SlipStabError, ValueError):
    """Slip velocity must be strictly positive for the logarithmic friction law."""


class DomainError(SlipStabError, ValueError):
    """Argument lies outside the mathematical domain of the operation."""


def _scale(text: str, value: float, may_vanish: bool = False, **operands: float) -> float:
    """value when it is positive and finite (or 0 with may_vanish); else a
    DomainError saying that the product `text` of `operands` left the float
    range.  A nan here is an intermediate overflow (inf/inf or inf*0)."""
    if not (0.0 < value < math.inf or (may_vanish and value == 0.0)):
        state = "underflows to 0" if value == 0.0 else f"overflows to {value}"
        named = ", ".join(f"{name} = {x!r}" for name, x in operands.items())
        raise DomainError(f"{text} {state} ({named})")
    return value


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
