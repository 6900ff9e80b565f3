"""Anti-plane elastic description of the two half-spaces.

For anti-plane shear the three stiffnesses c44, c55, c45 and the density of
each half-space enter the sliding-stability problem only through an effective
shear modulus mu = sqrt(c44*c55 - c45^2) and a single wave speed
c1 = mu / sqrt(c44*rho).  This module performs that reduction and orders
the two half-spaces into the pair (slow side first) that every solver
consumes; the pair's two ratios are derived from its media.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NotPositiveDefinite

__all__ = ["ShearStiffness", "EffectiveMedium", "BiMaterial",
           "effective_medium", "make_bimaterial"]


@dataclass(frozen=True)
class ShearStiffness:
    """Raw anti-plane stiffnesses (Pa) and density (kg/m^3) of one half-space.

    The 2x2 stiffness matrix [[c55, c45], [c45, c44]] must be positive
    definite and the density positive; violation raises NotPositiveDefinite
    at construction.
    """

    c44: float
    c45: float
    c55: float
    rho: float

    def __post_init__(self):
        if not (self.c44 > 0.0 and self.c55 > 0.0):
            raise NotPositiveDefinite(
                f"diagonal stiffnesses must be positive, got c44={self.c44}, c55={self.c55}"
            )
        if self.c44 * self.c55 - self.c45 * self.c45 <= 0.0:
            raise NotPositiveDefinite(
                f"c44*c55 - c45^2 = {self.c44 * self.c55 - self.c45 * self.c45} is not positive"
            )
        if not self.rho > 0.0:
            raise NotPositiveDefinite(f"density must be positive, got rho={self.rho}")

    @classmethod
    def isotropic(cls, mu: float, rho: float) -> "ShearStiffness":
        """Isotropic special case: c44 = c55 = mu, c45 = 0."""
        return cls(c44=mu, c45=0.0, c55=mu, rho=rho)


@dataclass(frozen=True)
class EffectiveMedium:
    """Effective shear modulus (Pa) and anti-plane wave speed (m/s) of one side."""

    mu: float
    c1: float

    def __post_init__(self):
        if not (0.0 < self.mu < math.inf and 0.0 < self.c1 < math.inf):
            raise NotPositiveDefinite(
                f"effective medium requires finite mu > 0 and c1 > 0, "
                f"got mu={self.mu}, c1={self.c1}"
            )


def effective_medium(s: ShearStiffness) -> EffectiveMedium:
    """Collapse raw stiffnesses into the effective modulus and wave speed.

    mu = sqrt(c44*c55 - c45^2) and c1 = mu / sqrt(c44*rho).  The sign of c45
    drops out, and scaling every stiffness by s scales mu by s and c1 by
    sqrt(s).
    """
    mu = math.sqrt(s.c44 * s.c55 - s.c45 * s.c45)
    c1 = mu / math.sqrt(s.c44 * s.rho)
    return EffectiveMedium(mu=mu, c1=c1)


@dataclass(frozen=True)
class BiMaterial:
    """Ordered pair of effective media: slow side first.

    The pair is its two media.  The solvers consume only the two ratios
    mu_ratio = fast.mu / slow.mu and speed_ratio = fast.c1 / slow.c1 >= 1,
    derived from the media at construction; they cannot be passed in.
    """

    slow: EffectiveMedium
    fast: EffectiveMedium
    mu_ratio: float = field(init=False)
    speed_ratio: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mu_ratio", self.fast.mu / self.slow.mu)
        object.__setattr__(self, "speed_ratio", self.fast.c1 / self.slow.c1)
        # the ratios of two valid media can still under- or overflow
        if not 0.0 < self.mu_ratio < math.inf:
            raise NotPositiveDefinite(
                f"mu_ratio must be positive and finite, got {self.mu_ratio}")
        if not self.speed_ratio >= 1.0:
            raise NotPositiveDefinite(
                f"speed_ratio must be >= 1 (slow side first), got {self.speed_ratio}"
            )
        if self.speed_ratio == math.inf:
            raise NotPositiveDefinite("speed_ratio must be finite, got inf")

    @classmethod
    def from_ratios(cls, mu_ratio: float, speed_ratio: float) -> "BiMaterial":
        """Synthetic pair with a unit slow side, for nondimensional runs."""
        for name, ratio in (("mu_ratio", mu_ratio), ("speed_ratio", speed_ratio)):
            if math.isinf(ratio):
                raise NotPositiveDefinite(f"{name} must be finite, got {ratio}")
        if not mu_ratio > 0.0:
            raise NotPositiveDefinite(f"mu_ratio must be positive, got {mu_ratio}")
        return cls(slow=EffectiveMedium(mu=1.0, c1=1.0),
                   fast=EffectiveMedium(mu=mu_ratio, c1=speed_ratio))


def make_bimaterial(one: EffectiveMedium, other: EffectiveMedium) -> BiMaterial:
    """Order two effective media into a BiMaterial (slow side first, ties
    keep input order)."""
    if other.c1 < one.c1:
        return BiMaterial(slow=other, fast=one)
    return BiMaterial(slow=one, fast=other)
