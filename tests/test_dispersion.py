"""Characteristic equation and argument-principle root counting."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from slipstab import (
    CharParams,
    DomainError,
    EffectiveMedium,
    RateState,
    RootCount,
    SlipStabError,
    certify_crossing,
    characteristic_residual,
    count_unstable,
    critical_mode,
    make_bimaterial,
    polish_root,
)


def pair(q, b_over_a=1.2, speed_ratio=1.2, mu_ratio=1.0, *,
         a=0.01, sigma_o=1e6, L=1e-4, mu=30e9, c1=3000.0):
    b = a * b_over_a
    v_o = q * 2.0 * math.sqrt(a * (b - a)) * sigma_o * c1 / mu
    fr = RateState(a=a, b=b, L=L, sigma_o=sigma_o, v_o=v_o)
    bm = make_bimaterial(EffectiveMedium(mu=mu, c1=c1),
                         EffectiveMedium(mu=mu * mu_ratio, c1=c1 * speed_ratio))
    return fr, bm


@pytest.fixture(scope="module")
def q_one():
    fr, bm = pair(1.0)
    mode = critical_mode(fr, bm).mode
    return fr, bm, mode


def test_char_params_rejects_zero_k(q_one):
    fr, bm, _ = q_one
    with pytest.raises(DomainError):
        CharParams(k=0.0, friction=fr, bimaterial=bm)


def test_root_count_must_be_even():
    with pytest.raises(SlipStabError):
        RootCount(n_unstable=1, contour=(0.0, 1.0, 1.0), samples=4096)
    with pytest.raises(SlipStabError):
        RootCount(n_unstable=-2, contour=(0.0, 1.0, 1.0), samples=4096)


def test_residual_vanishes_at_neutral_mode():
    for q in (0.1, 1.0, 10.0):
        fr, bm = pair(q)
        mode = critical_mode(fr, bm).mode
        cp = CharParams(k=mode.k_mag, friction=fr, bimaterial=bm)
        res = characteristic_residual(cp, complex(0.0, mode.omega))
        scale = fr.sigma_o * fr.a * (mode.k_mag * mode.c_over_c1
                                     * bm.slow.c1) ** 2 / fr.v_o
        assert abs(res) < 1e-12 * scale


def test_residual_conjugate_symmetry(q_one):
    fr, bm, mode = q_one
    cp = CharParams(k=mode.k_mag, friction=fr, bimaterial=bm)
    for p in (complex(2.0, 7.0), complex(0.3, -1.0), complex(0.0, 4.0)):
        lhs = characteristic_residual(cp, p.conjugate())
        rhs = characteristic_residual(cp, p).conjugate()
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_residual_on_axis_ignores_zero_sign(q_one):
    """p = -0.0 + i*omega is the imaginary axis, taken as the limit from
    Re(p) > 0 like f_laplace; Re(p) < 0 is outside the domain."""
    fr, bm, mode = q_one
    cp = CharParams(k=mode.k_mag, friction=fr, bimaterial=bm)
    for omega in (0.5 * mode.omega, -mode.omega, 3.0 * bm.fast.c1 * mode.k_mag):
        assert (characteristic_residual(cp, complex(-0.0, omega))
                == characteristic_residual(cp, complex(0.0, omega)))
    with pytest.raises(DomainError):
        characteristic_residual(cp, complex(-1e-300, mode.omega))


def test_count_flips_across_critical_wavenumber(q_one):
    fr, bm, mode = q_one
    above = count_unstable(CharParams(k=1.05 * mode.k_mag,
                                      friction=fr, bimaterial=bm))
    below = count_unstable(CharParams(k=0.95 * mode.k_mag,
                                      friction=fr, bimaterial=bm))
    assert above.n_unstable == 0
    assert below.n_unstable == 2
    assert below.samples >= 4096
    re_lo, re_hi, im_max = below.contour
    assert 0.0 < re_lo < re_hi and im_max > 0.0


def test_count_uses_wavenumber_magnitude(q_one):
    fr, bm, mode = q_one
    k = 0.95 * mode.k_mag
    plus = count_unstable(CharParams(k=k, friction=fr, bimaterial=bm))
    minus = count_unstable(CharParams(k=-k, friction=fr, bimaterial=bm))
    assert plus.n_unstable == minus.n_unstable == 2


def test_polish_root_frozen(q_one):
    """Unstable root just below k_cr, refined from a rough seed.  Expected
    value frozen from an mpmath Muller solve of the same equation."""
    fr, bm, mode = q_one
    lam = fr.v_o / fr.L
    cp = CharParams(k=0.95 * mode.k_mag, friction=fr, bimaterial=bm)
    root = polish_root(cp, complex(0.02 * lam, mode.omega))
    assert root / lam == pytest.approx(
        complex(0.004312228961247262, 0.43174058229793816), rel=1e-10)
    scale = fr.sigma_o * fr.a * (mode.k_mag * mode.c_over_c1
                                 * bm.slow.c1) ** 2 / fr.v_o
    assert abs(characteristic_residual(cp, root)) < 1e-12 * scale


def test_polished_root_decay_above_critical(q_one):
    fr, bm, mode = q_one
    cp = CharParams(k=1.05 * mode.k_mag, friction=fr, bimaterial=bm)
    root = polish_root(cp, complex(0.0, mode.omega))
    assert root.real <= 0.0


def test_certify_crossing(q_one):
    fr, bm, _ = q_one
    assert certify_crossing(fr, bm)


def test_certify_crossing_strengthening_trivial(q_one):
    _, bm, _ = q_one
    soft = RateState(a=0.01, b=0.008, L=1e-4, sigma_o=1e6, v_o=1e-3)
    assert certify_crossing(soft, bm)


def test_no_supersonic_neutral_modes():
    """For phase velocities above the faster shear speed both terms of the
    characteristic equation keep strictly negative real part, so no root
    reaches the imaginary axis there."""
    for q in (0.1, 1.0, 10.0):
        fr, bm = pair(q)
        for k in (1e-3, 1.0, 1e3):
            cp = CharParams(k=k, friction=fr, bimaterial=bm)
            worst = -math.inf
            for ratio in (1.0 + 1e-9, 1.01, 1.5, 5.0, 50.0):
                res = characteristic_residual(
                    cp, complex(0.0, ratio * k * bm.fast.c1))
                worst = max(worst, res.real)
            assert worst < 0.0


@given(st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=1.05, max_value=2.0))
@settings(max_examples=10, deadline=None)
def test_counts_certify_random_presets(q, b_over_a):
    fr, bm = pair(q, b_over_a=b_over_a, speed_ratio=1.5, mu_ratio=2.0)
    mode = critical_mode(fr, bm).mode
    above = count_unstable(CharParams(k=1.1 * mode.k_mag,
                                      friction=fr, bimaterial=bm))
    below = count_unstable(CharParams(k=0.9 * mode.k_mag,
                                      friction=fr, bimaterial=bm))
    assert above.n_unstable == 0
    assert below.n_unstable >= 2
