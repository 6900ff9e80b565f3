"""Closed-form anchors: spring block, quasi-static continuum, dynamic identical
solids, rate-only verdict.  Hand-checkable numbers throughout."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slipstab import (
    DomainError,
    EffectiveMedium,
    RateState,
    ShearStiffness,
    SpringBlockParams,
    critical_mode,
    effective_medium,
    identical_isotropic_dynamic,
    make_bimaterial,
    quasistatic_continuum,
    spring_block_critical,
)

WEAK = RateState(a=0.01, b=0.02, L=1e-4, sigma_o=1e6, v_o=1e-3)
LAB = RateState(a=0.01, b=0.015, L=1e-4, sigma_o=1e8, v_o=1e-3)


class TestSpringBlock:
    def test_massless_values(self):
        k_cr, omega = spring_block_critical(WEAK)
        assert k_cr == pytest.approx(1e8, rel=1e-15)
        assert omega == pytest.approx(WEAK.v_o / WEAK.L, rel=1e-15)

    def test_inertia_raises_threshold_not_frequency(self):
        k0, w0 = spring_block_critical(WEAK)
        k1, w1 = spring_block_critical(WEAK, mass=1.0)
        # m*v_o^2/(a*sigma_o*L) = 1e-6/(0.01*1e6*1e-4) = 1e-6
        assert k1 == pytest.approx(k0 * (1.0 + 1e-6), rel=1e-15)
        assert w1 == w0

    def test_strengthening_returns_none(self):
        p = RateState(a=0.01, b=0.005, L=1e-4, sigma_o=1e6, v_o=1e-3)
        assert spring_block_critical(p) is None

    def test_negative_mass_rejected(self):
        with pytest.raises(DomainError):
            spring_block_critical(WEAK, mass=-1.0)

    def test_params_validation(self):
        SpringBlockParams(stiffness=1e8, mass=0.0, friction=WEAK)
        with pytest.raises(DomainError):
            SpringBlockParams(stiffness=0.0, mass=0.0, friction=WEAK)
        with pytest.raises(DomainError):
            SpringBlockParams(stiffness=1e8, mass=-1.0, friction=WEAK)

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_non_finite_mass_rejected(self, mass):
        with pytest.raises(DomainError, match="mass"):
            spring_block_critical(WEAK, mass=mass)
        with pytest.raises(DomainError, match="mass"):
            SpringBlockParams(stiffness=1e8, mass=mass, friction=WEAK)

    @pytest.mark.parametrize("stiffness", [math.nan, math.inf])
    def test_non_finite_stiffness_rejected(self, stiffness):
        with pytest.raises(DomainError, match="stiffness"):
            SpringBlockParams(stiffness=stiffness, mass=0.0, friction=WEAK)

    @pytest.mark.parametrize("p,mass", [
        # a*sigma_o*L underflows to 0: this was a bare ZeroDivisionError
        (RateState(a=0.01, b=0.015, L=1e-300, sigma_o=1e-30, v_o=1e-3), 1.0),
        # v_o**2 overflows: this was a bare OverflowError
        (RateState(a=0.01, b=0.015, L=1e-5, sigma_o=1e6, v_o=1e200), 1e200),
    ])
    def test_unresolvable_inertial_term_rejected(self, p, mass):
        with pytest.raises(DomainError, match="inertial term"):
            spring_block_critical(p, mass)
        # the massless value never forms the term, and keeps its bits
        assert spring_block_critical(p)[0] == p.sigma_o * (p.b - p.a) / p.L

    def test_overflowing_mass_times_velocity_rejected(self):
        p = RateState(a=0.01, b=0.02, L=1e-4, sigma_o=1e6, v_o=1e10)
        text = "mass*v_o overflows to inf (mass = 1e+300, v_o = 10000000000.0)"
        with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
            SpringBlockParams(stiffness=1e8, mass=1e300, friction=p)


class TestQuasistatic:
    def test_identical_solids_values(self):
        k_cr, c, omega = quasistatic_continuum(LAB, mu=30e9, mu_prime=30e9)
        assert k_cr == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert c == pytest.approx(30e9 * 1e-3 / (2.0 * math.sqrt(5e-5) * 1e8),
                                  rel=1e-15)
        assert c == pytest.approx(21.2132034, rel=1e-8)
        assert omega == pytest.approx(math.sqrt(0.5) * 10.0, rel=1e-15)
        assert omega == pytest.approx(k_cr * c, rel=1e-15)

    def test_dissimilar_reduces_and_is_symmetric(self):
        ab = quasistatic_continuum(LAB, mu=30e9, mu_prime=45e9)
        ba = quasistatic_continuum(LAB, mu=45e9, mu_prime=30e9)
        assert ab[0] == pytest.approx(ba[0], rel=1e-15)
        k_ref = 0.005 * 1e8 * (30e9 + 45e9) / (1e-4 * 30e9 * 45e9)
        assert ab[0] == pytest.approx(k_ref, rel=1e-15)

    def test_softer_partner_destabilizes(self):
        # k_cr = (b-a)*sigma_o/L * (1/mu + 1/mu'): a rigid partner leaves the
        # single-half-space floor, a compliant one raises k_cr without bound
        k_soft = quasistatic_continuum(LAB, mu=30e9, mu_prime=3e9)[0]
        k_same = quasistatic_continuum(LAB, mu=30e9, mu_prime=30e9)[0]
        k_rigid = quasistatic_continuum(LAB, mu=30e9, mu_prime=3e15)[0]
        floor = 0.005 * 1e8 / (1e-4 * 30e9)
        assert k_soft > k_same > k_rigid > floor
        assert k_rigid == pytest.approx(floor, rel=2e-5)

    def test_orthotropic_matches_identical_when_geometric_mean_equals_mu(self):
        ortho = ShearStiffness(c44=30e9, c45=0.0, c55=30e9, rho=2700.0)
        k_o, c_o, w_o = quasistatic_continuum(
            LAB, mu=30e9, mu_prime=effective_medium(ortho).mu)
        k_i, c_i, w_i = quasistatic_continuum(LAB, mu=30e9, mu_prime=30e9)
        assert k_o == pytest.approx(k_i, rel=1e-15)
        assert w_o == w_i

    def test_orthotropic_general_value(self):
        ortho = ShearStiffness(c44=20e9, c45=0.0, c55=45e9, rho=2700.0)
        k_o, c_o, w_o = quasistatic_continuum(
            LAB, mu=32e9, mu_prime=effective_medium(ortho).mu)
        k_ref = 1e8 * 0.005 / 1e-4 * (1.0 + 32e9 / 30e9) / 32e9
        assert k_o == pytest.approx(k_ref, rel=1e-15)
        assert w_o == pytest.approx(k_o * c_o, rel=1e-15)

    def test_argument_screening(self):
        with pytest.raises(DomainError):
            quasistatic_continuum(LAB, mu=-30e9, mu_prime=-30e9)
        with pytest.raises(DomainError):
            quasistatic_continuum(LAB, mu=30e9, mu_prime=-1.0)

    def test_strengthening_returns_none(self):
        p = RateState(a=0.01, b=0.005, L=1e-4, sigma_o=1e6, v_o=1e-3)
        assert quasistatic_continuum(p, mu=30e9, mu_prime=30e9) is None


class TestDynamicIdentical:
    @staticmethod
    def _friction_for_q(q, mu=30e9, c_s=3000.0, a=0.01, b=0.015, sigma_o=1e8,
                        L=1e-4):
        v_o = q * 2.0 * math.sqrt(a * (b - a)) * sigma_o * c_s / mu
        return RateState(a=a, b=b, L=L, sigma_o=sigma_o, v_o=v_o)

    def test_q_one(self):
        p = self._friction_for_q(1.0)
        k_dyn, c = identical_isotropic_dynamic(p, mu=30e9, c_s=3000.0)
        k_qs = quasistatic_continuum(p, mu=30e9, mu_prime=30e9)[0]
        assert k_dyn == pytest.approx(k_qs * math.sqrt(2.0), rel=1e-14)
        assert c == pytest.approx(3000.0 / math.sqrt(2.0), rel=1e-14)

    def test_q_sqrt_three(self):
        p = self._friction_for_q(math.sqrt(3.0))
        k_dyn, c = identical_isotropic_dynamic(p, mu=30e9, c_s=3000.0)
        k_qs = quasistatic_continuum(p, mu=30e9, mu_prime=30e9)[0]
        assert k_dyn == pytest.approx(2.0 * k_qs, rel=1e-14)
        assert c == pytest.approx(3000.0 * math.sqrt(3.0) / 2.0, rel=1e-14)

    def test_quasistatic_limit(self):
        p = self._friction_for_q(1e-8)
        k_dyn, c = identical_isotropic_dynamic(p, mu=30e9, c_s=3000.0)
        assert k_dyn == pytest.approx(quasistatic_continuum(p, mu=30e9, mu_prime=30e9)[0],
                                      rel=1e-15)

    def test_matches_general_solver(self):
        """The closed form must agree with the bimaterial neutral-mode solver
        specialized to identical isotropic half-spaces."""
        side = EffectiveMedium(mu=30e9, c1=3000.0)
        bm = make_bimaterial(side, side)
        for q in np.logspace(-3, 3, 25):
            p = self._friction_for_q(float(q))
            k_cf, c_cf = identical_isotropic_dynamic(p, mu=30e9, c_s=3000.0)
            mode = critical_mode(p, bm).mode
            assert mode.k_mag == pytest.approx(k_cf, rel=1e-10)
            assert mode.c_over_c1 * 3000.0 == pytest.approx(c_cf, rel=1e-10)

    def test_input_screening(self):
        p = self._friction_for_q(1.0)
        with pytest.raises(DomainError):
            identical_isotropic_dynamic(p, mu=0.0, c_s=3000.0)
        with pytest.raises(DomainError):
            identical_isotropic_dynamic(p, mu=30e9, c_s=-1.0)
        soft = RateState(a=0.01, b=0.005, L=1e-4, sigma_o=1e6, v_o=1e-3)
        assert identical_isotropic_dynamic(soft, mu=30e9, c_s=3000.0) is None


# sigma_o*(b-a)/L overflows; with a 1e305 mass K_cr*(1 + inertia) does
HUGE = RateState(a=0.01, b=0.015, L=1e-300, sigma_o=1e300, v_o=1e-3)
HEAVY = RateState(a=0.01, b=0.015, L=1e-5, sigma_o=1e300, v_o=1e-3)


class TestFloatRange:
    """A closed form that leaves the float range raises DomainError naming
    the product that left it, instead of returning inf or 0 or raising a
    bare ZeroDivisionError."""

    @pytest.mark.parametrize("call,text", [
        (lambda: spring_block_critical(HUGE),
         "sigma_o*(b-a)/L overflows to inf (sigma_o = 1e+300, a = 0.01, "
         "b = 0.015, L = 1e-300)"),
        (lambda: spring_block_critical(HEAVY, mass=1e305),
         "K_cr*(1 + inertia) overflows to inf (K_cr = 4.9999999999999985e+302, "
         "inertia = 999999.9999999998)"),
        (lambda: spring_block_critical(
            RateState(a=0.01, b=0.015, L=1e-300, sigma_o=1e-300, v_o=1e10)),
         "sqrt((b-a)/a)*v_o/L overflows to inf (a = 0.01, b = 0.015, "
         "v_o = 10000000000.0, L = 1e-300)"),
        (lambda: spring_block_critical(
            RateState(a=0.01, b=0.015, L=1e300, sigma_o=1e6, v_o=1e-30)),
         "sqrt((b-a)/a)*v_o/L underflows to 0 (a = 0.01, b = 0.015, "
         "v_o = 1e-30, L = 1e+300)"),
        (lambda: quasistatic_continuum(HUGE, 30e9, 30e9),
         "(b-a)*sigma_o*(mu+mu')/(L*mu*mu') overflows to inf (a = 0.01, "
         "b = 0.015, sigma_o = 1e+300, mu = 30000000000.0, "
         "mu_prime = 30000000000.0, L = 1e-300)"),
        (lambda: quasistatic_continuum(HUGE, 1e-300, 1e-300),
         "L*mu*mu' underflows to 0 (L = 1e-300, mu = 1e-300, mu_prime = 1e-300)"),
        (lambda: quasistatic_continuum(
            RateState(a=0.01, b=0.015, L=1e-200, sigma_o=1e-150, v_o=1e-3), 1e250, 1e250),
         "c = omega/k_cr overflows to inf"),
        (lambda: identical_isotropic_dynamic(
            RateState(a=0.01, b=0.015, L=1e-4, sigma_o=1e-150, v_o=1e-3),
            30e9, 3000.0),
         "sqrt(1 + q^2) overflows to inf"),
    ])
    def test_out_of_range_result_is_domain_error(self, call, text):
        with pytest.raises(DomainError, match=f"^{re.escape(text)}"):
            call()

    def test_unbounded_moduli_rejected(self):
        with pytest.raises(DomainError, match="mu must be positive and finite"):
            quasistatic_continuum(LAB, mu=math.inf, mu_prime=math.inf)
        with pytest.raises(DomainError, match="need finite mu > 0"):
            identical_isotropic_dynamic(LAB, mu=math.inf, c_s=3000.0)

    def test_finite_results_keep_the_formulas_bits(self):
        p, mu, mu_p = LAB, 30e9, 45e9
        omega = math.sqrt((p.b - p.a) / p.a) * (p.v_o / p.L)
        assert spring_block_critical(p) == (p.sigma_o * (p.b - p.a) / p.L, omega)
        k_cr = (p.b - p.a) * p.sigma_o * (mu + mu_p) / (p.L * mu * mu_p)
        assert quasistatic_continuum(p, mu, mu_p) == (k_cr, omega / k_cr, omega)


rate_states = st.builds(
    RateState,
    a=st.floats(min_value=1e-3, max_value=0.1),
    b=st.floats(min_value=2e-3, max_value=0.2),
    L=st.floats(min_value=1e-6, max_value=1e-2),
    sigma_o=st.floats(min_value=1e4, max_value=1e9),
    v_o=st.floats(min_value=1e-9, max_value=1.0),
).filter(lambda p: p.weakening)


@given(rate_states, st.floats(min_value=1e8, max_value=1e11),
       st.floats(min_value=1e8, max_value=1e11))
def test_omega_shared_across_closed_forms(p, mu, mu_prime):
    _, w_block = spring_block_critical(p)
    k, c, w_cont = quasistatic_continuum(p, mu=mu, mu_prime=mu_prime)
    bm = make_bimaterial(EffectiveMedium(mu=mu, c1=3000.0),
                         EffectiveMedium(mu=mu_prime, c1=3600.0))
    assert w_cont == w_block
    assert critical_mode(p, bm).mode.omega == w_block
    assert k * c == pytest.approx(w_cont, rel=1e-12)


@given(rate_states, st.floats(min_value=1e8, max_value=1e11),
       st.floats(min_value=100.0, max_value=10000.0))
def test_dynamic_never_below_quasistatic(p, mu, c_s):
    k_dyn, c = identical_isotropic_dynamic(p, mu=mu, c_s=c_s)
    k_qs = quasistatic_continuum(p, mu=mu, mu_prime=mu)[0]
    assert k_dyn >= k_qs
    assert 0.0 < c < c_s


def test_dynamic_phase_velocity_stays_below_c_s_at_large_q():
    # q = 7.3e7: q*c_s/sqrt(1 + q^2) rounds to nearest onto c_s = 100
    p = RateState(a=0.0019880509872241795, b=0.002, L=0.0078125, sigma_o=1e4, v_o=1.0)
    _, c = identical_isotropic_dynamic(p, mu=22469666495.0, c_s=100.0)
    assert c == math.nextafter(100.0, 0.0)
