"""Closed-form stability results used as anchors for the numerical solvers.

Spring-block critical stiffness (with and without inertia), the quasi-static
continuum limit (identical or dissimilar solids, orthotropic sliding on
isotropic through its effective modulus), and the fully dynamic
identical-isotropic solution.  Each formula is written once: omega in
spring_block_critical, k_cr in quasistatic_continuum, and the dynamic form
on top of the quasi-static one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .friction import RateState, nondim_q
from .materials import EffectiveMedium

__all__ = [
    "SpringBlockParams",
    "spring_block_critical",
    "quasistatic_continuum",
    "identical_isotropic_dynamic",
]


@dataclass(frozen=True)
class SpringBlockParams:
    """A block of mass m per unit area pulled through a spring of stiffness K
    (Pa/m) at constant load-point velocity, sliding under rate-state friction.
    Rejects (DomainError) a stiffness that is not positive and finite, a
    negative or infinite mass, then the scales the integration forms, in this
    order: a*sigma_o and v_o/L at 0 or inf, L/v_o and f*sigma_o at inf, and
    mass*v_o at inf or, for a positive mass, at 0."""

    stiffness: float
    mass: float
    friction: RateState

    def __post_init__(self):
        if not 0.0 < self.stiffness < math.inf:
            raise DomainError(
                f"spring stiffness must be positive and finite, got {self.stiffness}")
        _check_mass(self.mass)
        p, m = self.friction, self.mass
        for text, value, may_vanish, operands in (
                ("a*sigma_o", p.a * p.sigma_o, False, (p.a, p.sigma_o)),
                ("v_o/L", p.v_o / p.L, False, (p.v_o, p.L)),
                ("L/v_o", p.L / p.v_o, True, (p.L, p.v_o)),
                ("f*sigma_o", p.f * p.sigma_o, True, (p.f, p.sigma_o)),
                ("mass*v_o", m * p.v_o, m == 0.0, (m, p.v_o))):
            if value == math.inf or (value == 0.0 and not may_vanish):
                names = text.replace("/", "*").split("*")
                raise DomainError(
                    f"{text} {'overflows to inf' if value else 'underflows to 0'}"
                    f" ({names[0]} = {operands[0]!r}, {names[1]} = {operands[1]!r})")


def _check_mass(mass: float) -> None:
    if not 0.0 <= mass < math.inf:
        raise DomainError(f"mass must be nonnegative and finite, got {mass}")


def spring_block_critical(p: RateState, mass: float = 0.0):
    """Critical spring stiffness and oscillation frequency, or None if b <= a.

    K_cr = sigma_o*(b-a)/L * [1 + m*v_o^2/(a*sigma_o*L)] and the frequency at
    neutral stability is omega = sqrt((b-a)/a)*v_o/L regardless of the mass.
    Velocity strengthening (b <= a) is stable at every stiffness: returns None.
    With mass, an inertial term m*v_o^2/(a*sigma_o*L) that overflows or is
    undefined raises DomainError.  This omega is the one every other closed
    form and critical_mode use.
    """
    _check_mass(mass)
    if not p.weakening:
        return None
    k_cr = p.sigma_o * (p.b - p.a) / p.L
    if mass > 0.0:
        try:
            inertia = mass * p.v_o ** 2 / (p.a * p.sigma_o * p.L)
        except (OverflowError, ZeroDivisionError):
            inertia = math.inf
        if not inertia < math.inf:
            raise DomainError(f"the inertial term m*v_o^2/(a*sigma_o*L) is not finite "
                              f"(mass = {mass!r}, v_o = {p.v_o!r}, a = {p.a!r}, "
                              f"sigma_o = {p.sigma_o!r}, L = {p.L!r})")
        k_cr *= 1.0 + inertia
    omega = math.sqrt((p.b - p.a) / p.a) * (p.v_o / p.L)
    return k_cr, omega


def quasistatic_continuum(p: RateState, mu: float, mu_prime: float | None = None):
    """Quasi-static critical wavenumber (k_cr, c, omega), or None if b <= a.

    A slip mode of wavenumber k loads the interface like a spring of
    stiffness mu*mu'*|k|/(mu + mu'), so the spring-block threshold translates
    directly: k_cr = (b-a)*sigma_o*(mu + mu')/(L*mu*mu'), with mu' = mu
    (identical solids) when mu_prime is omitted.  Orthotropic sliding on
    isotropic takes mu' = effective_medium(orthotropic).mu, which is
    sqrt(c44*c55) when c45 = 0.  omega is spring_block_critical's, and
    c = omega/k_cr.
    """
    if mu_prime is None:
        mu_prime = mu
    if not mu > 0.0:
        raise DomainError(f"mu must be positive, got {mu}")
    if not mu_prime > 0.0:
        raise DomainError(f"mu_prime must be positive, got {mu_prime}")
    if not p.weakening:
        return None
    k_cr = (p.b - p.a) * p.sigma_o * (mu + mu_prime) / (p.L * mu * mu_prime)
    omega = spring_block_critical(p)[1]
    return k_cr, omega / k_cr, omega


def identical_isotropic_dynamic(p: RateState, mu: float, c_s: float):
    """Dynamic critical mode for identical isotropic half-spaces, or None.

    With q = nondim_q(p, EffectiveMedium(mu, c_s)): k_cr is the quasi-static
    identical-solids value times sqrt(1+q^2), that is
    2*(b-a)*sigma_o*sqrt(1+q^2)/(mu*L), and c = q*c_s/sqrt(1+q^2).
    Reduces to the quasi-static answer as q -> 0, and never falls below it.
    """
    if not (mu > 0.0 and c_s > 0.0):
        raise DomainError(f"need mu > 0 and c_s > 0, got mu={mu}, c_s={c_s}")
    if not p.weakening:
        return None
    q = nondim_q(p, EffectiveMedium(mu=mu, c1=c_s))
    root = math.sqrt(1.0 + q * q)
    return quasistatic_continuum(p, mu)[0] * root, q * c_s / root
