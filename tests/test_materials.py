"""Effective-medium reduction and bi-material ordering."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from slipstab import (
    BiMaterial,
    EffectiveMedium,
    NotPositiveDefinite,
    ShearStiffness,
    effective_medium,
    make_bimaterial,
)


def test_isotropic_effective_medium():
    s = ShearStiffness.isotropic(mu=30e9, rho=3000.0)
    em = effective_medium(s)
    assert em.mu == pytest.approx(30e9, rel=1e-15)
    assert em.c1 == pytest.approx(math.sqrt(30e9 / 3000.0), rel=1e-15)


def test_orthotropic_effective_medium():
    # c45 = 0: mu is the geometric mean of the two stiffnesses
    s = ShearStiffness(c44=28e9, c45=0.0, c55=40e9, rho=2700.0)
    em = effective_medium(s)
    assert em.mu == pytest.approx(math.sqrt(28e9 * 40e9), rel=1e-15)
    assert em.c1 == pytest.approx(em.mu / math.sqrt(28e9 * 2700.0), rel=1e-15)


def test_cross_term_reduces_modulus():
    base = effective_medium(ShearStiffness(c44=30e9, c45=0.0, c55=30e9, rho=2700.0))
    tilted = effective_medium(ShearStiffness(c44=30e9, c45=10e9, c55=30e9, rho=2700.0))
    assert tilted.mu < base.mu


@pytest.mark.parametrize("c44,c45,c55", [
    (-1e9, 0.0, 30e9),
    (30e9, 0.0, 0.0),
    (10e9, 20e9, 10e9),   # c44*c55 - c45^2 < 0
])
def test_not_positive_definite_rejected(c44, c45, c55):
    with pytest.raises(NotPositiveDefinite):
        ShearStiffness(c44=c44, c45=c45, c55=c55, rho=2700.0)


def test_nonpositive_density_rejected():
    with pytest.raises(ValueError):
        ShearStiffness(c44=30e9, c45=0.0, c55=30e9, rho=0.0)


stiffness_values = st.floats(min_value=1e8, max_value=1e12)


@st.composite
def stiffnesses(draw):
    c44 = draw(stiffness_values)
    c55 = draw(stiffness_values)
    # keep the determinant comfortably positive
    bound = 0.9 * math.sqrt(c44 * c55)
    c45 = draw(st.floats(min_value=-bound, max_value=bound))
    rho = draw(st.floats(min_value=100.0, max_value=20000.0))
    return ShearStiffness(c44=c44, c45=c45, c55=c55, rho=rho)


@given(stiffnesses())
def test_c45_sign_irrelevant(s):
    flipped = ShearStiffness(c44=s.c44, c45=-s.c45, c55=s.c55, rho=s.rho)
    a, b = effective_medium(s), effective_medium(flipped)
    assert a.mu == b.mu
    assert a.c1 == b.c1


@given(stiffnesses(), st.floats(min_value=1e-3, max_value=1e3))
def test_stiffness_scaling(s, lam):
    """Scaling every stiffness by lam scales mu by lam and c1 by sqrt(lam)."""
    scaled = ShearStiffness(c44=lam * s.c44, c45=lam * s.c45,
                            c55=lam * s.c55, rho=s.rho)
    a, b = effective_medium(s), effective_medium(scaled)
    assert b.mu == pytest.approx(lam * a.mu, rel=1e-12)
    assert b.c1 == pytest.approx(math.sqrt(lam) * a.c1, rel=1e-12)


class TestBiMaterial:
    def test_orders_by_wave_speed(self):
        slow = EffectiveMedium(mu=30e9, c1=3000.0)
        fast = EffectiveMedium(mu=10e9, c1=4500.0)
        for pair in ((slow, fast), (fast, slow)):
            bm = make_bimaterial(*pair)
            assert bm.slow is slow
            assert bm.fast is fast
            assert bm.speed_ratio == pytest.approx(1.5)
            assert bm.mu_ratio == pytest.approx(10e9 / 30e9)

    def test_tie_keeps_input_order(self):
        one = EffectiveMedium(mu=30e9, c1=3000.0)
        two = EffectiveMedium(mu=40e9, c1=3000.0)
        bm = make_bimaterial(one, two)
        assert bm.slow is one and bm.fast is two
        assert make_bimaterial(two, one).slow is two

    def test_from_ratios(self):
        bm = BiMaterial.from_ratios(0.1, 5.0)
        assert bm.slow.mu == 1.0 and bm.slow.c1 == 1.0
        assert bm.fast.mu == pytest.approx(0.1)
        assert bm.fast.c1 == pytest.approx(5.0)

    def test_from_ratios_rejects_slowdown(self):
        with pytest.raises(ValueError):
            BiMaterial.from_ratios(1.0, 0.8)

    @pytest.mark.parametrize("field", ["mu_ratio", "speed_ratio"])
    def test_from_ratios_rejects_infinite(self, field):
        ratios = {"mu_ratio": 1.0, "speed_ratio": 1.2, field: math.inf}
        with pytest.raises(NotPositiveDefinite, match=f"{field} must be finite"):
            BiMaterial.from_ratios(**ratios)

    @pytest.mark.parametrize("mu,c1", [(math.inf, 1.0), (1.0, math.inf)])
    def test_effective_medium_rejects_infinite(self, mu, c1):
        with pytest.raises(NotPositiveDefinite, match="finite"):
            EffectiveMedium(mu=mu, c1=c1)

    SLOW = EffectiveMedium(mu=30e9, c1=3000.0)
    FAST = EffectiveMedium(mu=36e9, c1=3600.0)

    def test_order_of_arguments_does_not_matter(self):
        assert (make_bimaterial(self.SLOW, self.FAST)
                == make_bimaterial(self.FAST, self.SLOW))

    def test_ratios_are_derived_from_the_media(self):
        bm = BiMaterial(slow=self.SLOW, fast=self.FAST)
        assert bm.mu_ratio == self.FAST.mu / self.SLOW.mu
        assert bm.speed_ratio == self.FAST.c1 / self.SLOW.c1
        with pytest.raises(TypeError, match="mu_ratio"):
            BiMaterial(slow=self.SLOW, fast=self.FAST, mu_ratio=5.0)

    def test_flipped_pair_is_rejected(self):
        with pytest.raises(NotPositiveDefinite,
                           match=r"^speed_ratio must be >= 1 \(slow side first\)"):
            BiMaterial(slow=self.FAST, fast=self.SLOW)

    def test_overflowing_speed_ratio_is_rejected(self):
        # the solvers took speed_ratio = inf and blamed q or the search range
        with pytest.raises(NotPositiveDefinite, match="^speed_ratio must be finite"):
            make_bimaterial(EffectiveMedium(mu=1.0, c1=1e-300),
                            EffectiveMedium(mu=1.0, c1=1e300))

    def test_speed_ratio_at_least_one(self):
        bm = make_bimaterial(EffectiveMedium(mu=1.0, c1=2.0),
                             EffectiveMedium(mu=1.0, c1=1.0))
        assert bm.speed_ratio >= 1.0
