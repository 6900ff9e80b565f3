"""Rate- and state-dependent friction.

The interface parameters, the constitutive law, the choice of state
evolution law (ageing or slip form), and the nondimensional sliding-velocity
parameter q that controls the continuum problem.  The evolution laws
themselves are written out in `simulate._rhs`, the one place that
integrates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, NonpositiveVelocity, VelocityStrengthening, _scale
from .materials import EffectiveMedium

__all__ = ["RateState", "EvolutionLaw", "friction_stress", "nondim_q"]


class EvolutionLaw(Enum):
    """State evolution law: Dieterich ageing form or Ruina slip form."""

    AGEING = "ageing"
    SLIP = "slip"


@dataclass(frozen=True)
class RateState:
    """Rate-and-state parameters of the interface.

    a, b are the direct and evolution sensitivities, L the state-evolution
    slip distance (m), sigma_o the normal stress (Pa), v_o the steady sliding
    velocity (m/s) at which the system is perturbed, and f the nominal
    friction coefficient defining the reference strength tau_o = f*sigma_o.
    Velocity weakening means b > a; b <= a is accepted (it makes several
    operations report unconditional stability instead).
    """

    a: float
    b: float
    L: float
    sigma_o: float
    v_o: float
    f: float = 0.6

    def __post_init__(self):
        if not 0.0 < self.a < math.inf:
            raise DomainError(
                f"direct-effect coefficient a must be positive and finite, got {self.a}")
        if not 0.0 < self.b < math.inf:
            raise DomainError(
                f"evolution coefficient b must be positive and finite, got {self.b}")
        if not 0.0 < self.L < math.inf:
            raise DomainError(
                f"state evolution distance L must be positive and finite, got {self.L}")
        if not 0.0 < self.sigma_o < math.inf:
            raise DomainError(
                f"normal stress sigma_o must be positive and finite, got {self.sigma_o}")
        if not 0.0 < self.v_o < math.inf:
            raise NonpositiveVelocity(
                f"reference velocity v_o must be positive and finite, got {self.v_o}")
        if not 0.0 <= self.f < math.inf:
            raise DomainError(
                f"friction coefficient f must be nonnegative and finite, got {self.f}")

    @property
    def tau_o(self) -> float:
        """Reference steady-state strength f*sigma_o at V = v_o."""
        return self.f * self.sigma_o

    @property
    def weakening(self) -> bool:
        """True for steady-state velocity weakening (b > a)."""
        return self.b > self.a


def friction_stress(p: RateState, v: float, theta: float) -> float:
    """Instantaneous strength tau_o + a*sigma_o*ln(V/v_o) + b*sigma_o*ln(v_o*theta/L)."""
    if not v > 0.0:
        raise NonpositiveVelocity(f"V must be positive, got {v}")
    if not theta > 0.0:
        raise DomainError(f"state variable theta must be positive, got {theta}")
    return (p.tau_o
            + p.a * p.sigma_o * math.log(v / p.v_o)
            + p.b * p.sigma_o * math.log(p.v_o * theta / p.L))


def nondim_q(p: RateState, slow: EffectiveMedium) -> float:
    """Nondimensional sliding velocity q = mu*v_o / (2*sqrt(a*(b-a))*sigma_o*c1).

    mu and c1 belong to the slow side.  Only defined for velocity weakening;
    b <= a raises VelocityStrengthening, and a denominator or a q that
    underflows to 0 or overflows raises DomainError naming it.
    """
    if not p.weakening:
        raise VelocityStrengthening(
            f"q requires b > a, got a={p.a}, b={p.b} (steady state does not weaken)"
        )
    den = _scale("q is undefined: 2*sqrt(a*(b-a))*sigma_o*c1",
                 2.0 * math.sqrt(p.a * (p.b - p.a)) * p.sigma_o * slow.c1,
                 a=p.a, b=p.b, sigma_o=p.sigma_o, c1=slow.c1)
    return _scale("q = mu*v_o/(2*sqrt(a*(b-a))*sigma_o*c1)", slow.mu * p.v_o / den,
                  mu=slow.mu, v_o=p.v_o, a=p.a, b=p.b, sigma_o=p.sigma_o, c1=slow.c1)
