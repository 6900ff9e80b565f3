"""Closed-form stability results used as anchors for the numerical solvers.

Spring-block critical stiffness (with and without inertia), the quasi-static
continuum limits (identical solids, dissimilar solids, orthotropic sliding on
isotropic), and the fully dynamic identical-isotropic solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .friction import RateState, nondim_q
from .materials import EffectiveMedium, ShearStiffness

__all__ = [
    "SpringBlockParams",
    "spring_block_critical",
    "quasistatic_continuum",
    "identical_isotropic_dynamic",
]


@dataclass(frozen=True)
class SpringBlockParams:
    """A block of mass m per unit area pulled through a spring of stiffness K
    (Pa/m) at constant load-point velocity, sliding under rate-state friction."""

    stiffness: float
    mass: float
    friction: RateState

    def __post_init__(self):
        if not self.stiffness > 0.0:
            raise DomainError(f"spring stiffness must be positive, got {self.stiffness}")
        if self.mass < 0.0:
            raise DomainError(f"mass must be nonnegative, got {self.mass}")


def spring_block_critical(p: RateState, mass: float = 0.0):
    """Critical spring stiffness and oscillation frequency, or None if b <= a.

    K_cr = sigma_o*(b-a)/L * [1 + m*v_o^2/(a*sigma_o*L)] and the frequency at
    neutral stability is omega = sqrt((b-a)/a)*v_o/L regardless of the mass.
    Velocity strengthening (b <= a) is stable at every stiffness: returns None.
    """
    if mass < 0.0:
        raise DomainError(f"mass must be nonnegative, got {mass}")
    if not p.weakening:
        return None
    k_cr = (p.sigma_o * (p.b - p.a) / p.L
            * (1.0 + mass * p.v_o ** 2 / (p.a * p.sigma_o * p.L)))
    omega = math.sqrt((p.b - p.a) / p.a) * p.v_o / p.L
    return k_cr, omega


def quasistatic_continuum(p: RateState, mu: float, mu_prime: float | None = None,
                          orthotropic: ShearStiffness | None = None):
    """Quasi-static critical wavenumber (k_cr, c, omega), or None if b <= a.

    A slip mode of wavenumber k loads the interface like a spring of
    stiffness mu*mu'*|k|/(mu + mu'), so the spring-block threshold translates
    directly:

    * identical solids (mu_prime omitted): k_cr = 2*(b-a)*sigma_o/(mu*L) and
      c = mu*v_o / (2*sqrt(a*(b-a))*sigma_o);
    * dissimilar: k_cr = (b-a)*sigma_o*(mu + mu') / (L*mu*mu');
    * orthotropic on isotropic (pass `orthotropic` with c45 = 0 for the
      other side): k_cr = sigma_o*(b-a)/L * (1 + mu/sqrt(c55*c44)) / mu.

    omega = k_cr*c = sqrt((b-a)/a)*v_o/L in every case, so c follows from
    omega/k_cr whenever the solids differ.
    """
    if not mu > 0.0:
        raise DomainError(f"mu must be positive, got {mu}")
    if not p.weakening:
        return None
    omega = math.sqrt((p.b - p.a) / p.a) * p.v_o / p.L
    if orthotropic is not None:
        if mu_prime is not None:
            raise DomainError("pass either mu_prime or orthotropic stiffnesses, not both")
        if orthotropic.c45 != 0.0:
            raise DomainError(
                f"orthotropic reduction assumes c45 = 0, got {orthotropic.c45}"
            )
        k_cr = (p.sigma_o * (p.b - p.a) / p.L
                * (1.0 + mu / math.sqrt(orthotropic.c55 * orthotropic.c44)) / mu)
        return k_cr, omega / k_cr, omega
    if mu_prime is None or mu_prime == mu:
        k_cr = 2.0 * (p.b - p.a) * p.sigma_o / (mu * p.L)
        c = mu * p.v_o / (2.0 * math.sqrt(p.a * (p.b - p.a)) * p.sigma_o)
        return k_cr, c, omega
    if not mu_prime > 0.0:
        raise DomainError(f"mu_prime must be positive, got {mu_prime}")
    k_cr = (p.b - p.a) * p.sigma_o * (mu + mu_prime) / (p.L * mu * mu_prime)
    return k_cr, omega / k_cr, omega


def identical_isotropic_dynamic(p: RateState, mu: float, c_s: float):
    """Dynamic critical mode for identical isotropic half-spaces, or None.

    With q = nondim_q(p, EffectiveMedium(mu, c_s)):
    k_cr = 2*(b-a)*sigma_o*sqrt(1+q^2)/(mu*L) and c = q*c_s/sqrt(1+q^2).
    Reduces to the quasi-static answer as q -> 0.
    """
    if not (mu > 0.0 and c_s > 0.0):
        raise DomainError(f"need mu > 0 and c_s > 0, got mu={mu}, c_s={c_s}")
    if not p.weakening:
        return None
    q = nondim_q(p, EffectiveMedium(mu=mu, c1=c_s))
    root = math.sqrt(1.0 + q * q)
    k_cr = 2.0 * (p.b - p.a) * p.sigma_o * root / (mu * p.L)
    c = q * c_s / root
    return k_cr, c

