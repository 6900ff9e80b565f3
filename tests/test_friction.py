"""Rate-state constitutive pieces and the nondimensional loading parameter."""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, strategies as st

from slipstab import (
    DomainError,
    EffectiveMedium,
    NonpositiveVelocity,
    RateState,
    VelocityStrengthening,
    friction_stress,
    nondim_q,
)


@pytest.fixture
def weakening():
    return RateState(a=0.01, b=0.015, L=1e-4, sigma_o=1e6, v_o=1e-3)


def test_tau_o_is_reference_strength(weakening):
    assert weakening.tau_o == pytest.approx(0.6 * 1e6)
    custom = RateState(a=0.01, b=0.015, L=1e-4, sigma_o=1e6, v_o=1e-3, f=0.4)
    assert custom.tau_o == pytest.approx(0.4 * 1e6)


def test_weakening_flag():
    assert RateState(a=0.01, b=0.015, L=1e-4, sigma_o=1e6, v_o=1e-3).weakening
    assert not RateState(a=0.01, b=0.01, L=1e-4, sigma_o=1e6, v_o=1e-3).weakening
    assert not RateState(a=0.01, b=0.008, L=1e-4, sigma_o=1e6, v_o=1e-3).weakening


@pytest.mark.parametrize("field,value", [
    ("a", 0.0), ("a", -0.01), ("L", 0.0), ("sigma_o", -1e6), ("v_o", 0.0),
])
def test_invalid_parameters_rejected(field, value):
    kwargs = dict(a=0.01, b=0.015, L=1e-4, sigma_o=1e6, v_o=1e-3)
    kwargs[field] = value
    with pytest.raises(ValueError):
        RateState(**kwargs)


@pytest.mark.parametrize("field", ["a", "b", "L", "sigma_o", "v_o", "f"])
def test_infinite_parameters_rejected(field):
    kwargs = dict(a=0.01, b=0.015, L=1e-4, sigma_o=1e6, v_o=1e-3)
    kwargs[field] = math.inf
    with pytest.raises(ValueError, match=f"{field} must be .* finite"):
        RateState(**kwargs)


def test_friction_stress_at_reference_point(weakening):
    p = weakening
    # V = v_o and theta = L/v_o zero both logarithms
    assert friction_stress(p, p.v_o, p.L / p.v_o) == pytest.approx(p.tau_o)


def test_friction_stress_direct_and_state_terms(weakening):
    p = weakening
    tau = friction_stress(p, math.e * p.v_o, p.L / p.v_o)
    assert tau == pytest.approx(p.tau_o + p.a * p.sigma_o, rel=1e-12)
    tau = friction_stress(p, p.v_o, math.e * p.L / p.v_o)
    assert tau == pytest.approx(p.tau_o + p.b * p.sigma_o, rel=1e-12)


@pytest.mark.parametrize("v", [0.0, -1e-3, math.nan])
def test_friction_stress_rejects_nonpositive_velocity(weakening, v):
    with pytest.raises(NonpositiveVelocity, match="V must be positive"):
        friction_stress(weakening, v, weakening.L / weakening.v_o)


@pytest.mark.parametrize("theta", [0.0, -1.0, math.nan])
def test_friction_stress_rejects_nonpositive_state(weakening, theta):
    with pytest.raises(DomainError, match="theta must be positive"):
        friction_stress(weakening, weakening.v_o, theta)


def test_nondim_q_worked_example():
    # mu = 30 GPa, c1 = sqrt(mu/rho) with rho = 3000, sigma_o = 100 MPa,
    # v_o = 1 cm/s, a = 0.01, b = 0.015: q comes out near 0.067
    p = RateState(a=0.01, b=0.015, L=1e-4, sigma_o=1e8, v_o=1e-2)
    slow = EffectiveMedium(mu=30e9, c1=math.sqrt(30e9 / 3000.0))
    q = nondim_q(p, slow)
    ref = 30e9 * 1e-2 / (2.0 * math.sqrt(0.01 * 0.005) * 1e8 * slow.c1)
    assert q == pytest.approx(ref, rel=1e-15)
    assert q == pytest.approx(0.0670820393249937, rel=1e-13)
    assert q == pytest.approx(0.0671, rel=1e-3)


def test_nondim_q_rejects_strengthening():
    p = RateState(a=0.01, b=0.008, L=1e-4, sigma_o=1e6, v_o=1e-3)
    with pytest.raises(VelocityStrengthening):
        nondim_q(p, EffectiveMedium(mu=30e9, c1=3000.0))


@pytest.mark.parametrize("p, slow, text", [
    (RateState(a=0.01, b=0.015, L=1e-4, sigma_o=1e-300, v_o=1e10),
     EffectiveMedium(mu=1e300, c1=1.0),
     "q = mu*v_o/(2*sqrt(a*(b-a))*sigma_o*c1) overflows to inf"),
    (RateState(a=0.01, b=0.015, L=1e-4, sigma_o=1e300, v_o=1e-300),
     EffectiveMedium(mu=1e-300, c1=1e300),
     "q is undefined: 2*sqrt(a*(b-a))*sigma_o*c1 overflows to inf"),
])
def test_nondim_q_names_a_product_that_leaves_the_float_range(p, slow, text):
    # these used to return inf and 0.0
    with pytest.raises(DomainError, match=f"^{re.escape(text)} "):
        nondim_q(p, slow)


@given(st.floats(min_value=1e-6, max_value=1.0),
       st.floats(min_value=1.01, max_value=3.0),
       st.floats(min_value=1e-9, max_value=1e3))
def test_nondim_q_scales_linearly_in_velocity(a, ratio, v_o):
    p = RateState(a=a, b=ratio * a, L=1e-4, sigma_o=1e6, v_o=v_o)
    doubled = RateState(a=a, b=ratio * a, L=1e-4, sigma_o=1e6, v_o=2.0 * v_o)
    slow = EffectiveMedium(mu=30e9, c1=3000.0)
    assert nondim_q(doubled, slow) == pytest.approx(2.0 * nondim_q(p, slow),
                                                    rel=1e-12)
