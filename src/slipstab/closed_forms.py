"""Closed-form stability results used as anchors for the numerical solvers.

Spring-block critical stiffness (with and without inertia), the quasi-static
continuum limit (identical or dissimilar solids, orthotropic sliding on
isotropic through its effective modulus), and the fully dynamic
identical-isotropic solution.  Each formula is written once: omega in
`_omega` (which critical_mode also calls), the quasi-static k_cr in
`_continuum_k_cr`, and the dynamic form on top of it.  A result that leaves
the float range raises DomainError naming the product that left it; a
finite result keeps the bits of the formula as written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, _scale
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
        _scale("a*sigma_o", p.a * p.sigma_o, a=p.a, sigma_o=p.sigma_o)
        _scale("v_o/L", p.v_o / p.L, v_o=p.v_o, L=p.L)
        _scale("L/v_o", p.L / p.v_o, may_vanish=True, L=p.L, v_o=p.v_o)
        _scale("f*sigma_o", p.f * p.sigma_o, may_vanish=True, f=p.f, sigma_o=p.sigma_o)
        _scale("mass*v_o", m * p.v_o, may_vanish=m == 0.0, mass=m, v_o=p.v_o)


def _check_mass(mass: float) -> None:
    if not 0.0 <= mass < math.inf:
        raise DomainError(f"mass must be nonnegative and finite, got {mass}")


def _omega(p: RateState) -> float:
    """Neutral frequency sqrt((b-a)/a)*(v_o/L) of a weakening interface,
    unchecked: critical_mode screens it with its |k|."""
    return math.sqrt((p.b - p.a) / p.a) * (p.v_o / p.L)


def _checked_omega(p: RateState) -> float:
    """_omega, or DomainError when it overflows or underflows."""
    return _scale("sqrt((b-a)/a)*v_o/L", _omega(p), a=p.a, b=p.b, v_o=p.v_o, L=p.L)


def spring_block_critical(p: RateState, mass: float = 0.0):
    """Critical spring stiffness and oscillation frequency, or None if b <= a.

    K_cr = sigma_o*(b-a)/L * [1 + m*v_o^2/(a*sigma_o*L)] and the frequency at
    neutral stability is omega = sqrt((b-a)/a)*v_o/L regardless of the mass.
    Velocity strengthening (b <= a) is stable at every stiffness: returns None.
    With mass, an inertial term m*v_o^2/(a*sigma_o*L) that overflows or is
    undefined raises DomainError, as does a K_cr or omega that overflows or
    underflows.  omega comes from `_omega`, as in every other closed form
    and critical_mode.
    """
    _check_mass(mass)
    if not p.weakening:
        return None
    k_cr = _scale("sigma_o*(b-a)/L", p.sigma_o * (p.b - p.a) / p.L,
                  sigma_o=p.sigma_o, a=p.a, b=p.b, L=p.L)
    if mass > 0.0:
        try:
            inertia = mass * p.v_o ** 2 / (p.a * p.sigma_o * p.L)
        except (OverflowError, ZeroDivisionError):
            inertia = math.inf
        if not inertia < math.inf:
            raise DomainError(f"the inertial term m*v_o^2/(a*sigma_o*L) is not finite "
                              f"(mass = {mass!r}, v_o = {p.v_o!r}, a = {p.a!r}, "
                              f"sigma_o = {p.sigma_o!r}, L = {p.L!r})")
        k_cr = _scale("K_cr*(1 + inertia)", k_cr * (1.0 + inertia),
                      K_cr=k_cr, inertia=inertia)
    return k_cr, _checked_omega(p)


def quasistatic_continuum(p: RateState, mu: float, mu_prime: float):
    """Quasi-static critical wavenumber (k_cr, c, omega), or None if b <= a.

    A slip mode of wavenumber k loads the interface like a spring of
    stiffness mu*mu'*|k|/(mu + mu'), so the spring-block threshold translates
    directly: k_cr = (b-a)*sigma_o*(mu + mu')/(L*mu*mu'); identical solids
    take mu' = mu.  Orthotropic sliding on isotropic takes
    mu' = effective_medium(orthotropic).mu, which is sqrt(c44*c55) when
    c45 = 0.  omega is `_omega`'s, and c = omega/k_cr.
    A k_cr, c or omega that overflows or underflows raises DomainError.
    """
    if not 0.0 < mu < math.inf:
        raise DomainError(f"mu must be positive and finite, got {mu}")
    if not 0.0 < mu_prime < math.inf:
        raise DomainError(f"mu_prime must be positive and finite, got {mu_prime}")
    if not p.weakening:
        return None
    k_cr = _continuum_k_cr(p, mu, mu_prime)
    omega = _checked_omega(p)
    return k_cr, _scale("c = omega/k_cr", omega / k_cr, omega=omega, k_cr=k_cr), omega


def _continuum_k_cr(p: RateState, mu: float, mu_prime: float) -> float:
    """Quasi-static k_cr of a weakening interface between valid moduli."""
    den = _scale("L*mu*mu'", p.L * mu * mu_prime, L=p.L, mu=mu, mu_prime=mu_prime)
    return _scale("(b-a)*sigma_o*(mu+mu')/(L*mu*mu')",
                  (p.b - p.a) * p.sigma_o * (mu + mu_prime) / den,
                  a=p.a, b=p.b, sigma_o=p.sigma_o, mu=mu, mu_prime=mu_prime, L=p.L)


def identical_isotropic_dynamic(p: RateState, mu: float, c_s: float):
    """Dynamic critical mode for identical isotropic half-spaces, or None.

    With q = nondim_q(p, EffectiveMedium(mu, c_s)): k_cr is the quasi-static
    identical-solids value times sqrt(1+q^2), that is
    2*(b-a)*sigma_o*sqrt(1+q^2)/(mu*L), and c = q*c_s/sqrt(1+q^2).
    Reduces to the quasi-static answer as q -> 0, and never falls below it.
    A q^2, k_cr or c that overflows or underflows raises DomainError.  Above
    q of about 7e7 to 1e8 (the bound depends on c_s), c rounds to nearest
    onto c_s; it is rounded down instead, so that c < c_s holds as it does
    exactly.
    """
    if not (0.0 < mu < math.inf and 0.0 < c_s < math.inf):
        raise DomainError(f"need finite mu > 0 and c_s > 0, got mu={mu}, c_s={c_s}")
    if not p.weakening:
        return None
    q = nondim_q(p, EffectiveMedium(mu=mu, c1=c_s))
    root = _scale("sqrt(1 + q^2)", math.sqrt(1.0 + q * q), q=q)
    k_cr = _continuum_k_cr(p, mu, mu)
    c = _scale("q*c_s/sqrt(1 + q^2)", q * c_s / root, q=q, c_s=c_s)
    return (_scale("k_cr*sqrt(1 + q^2)", k_cr * root, k_cr=k_cr, q=q),
            min(c, math.nextafter(c_s, 0.0)))
