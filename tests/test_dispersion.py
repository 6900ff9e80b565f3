"""Characteristic equation and argument-principle root counting."""

from __future__ import annotations

import hashlib
import math
import re
import warnings

import numpy as np
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
import slipstab.dispersion as dispersion
from slipstab.dispersion import CROSSING_MARGIN, _hat_params, _residual


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


@pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan, 1e300, 1e-300])
def test_unresolvable_k_is_domain_error(q_one, k):
    """A k that is not finite, or at which the residual overflows on the
    contour, raises DomainError without a RuntimeWarning on the way."""
    fr, bm, _ = q_one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="k"):
            count_unstable(CharParams(k=k, friction=fr, bimaterial=bm))


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


def test_residual_conjugate_symmetric_bit_for_bit():
    """The counter walks only the upper half of its rectangle, which is
    exact only if residual(conj p) == conj(residual(p)) and the residual is
    real on the real axis, to the last bit."""
    rng = np.random.default_rng(20261018)
    for _ in range(40):
        params = (10.0 ** rng.uniform(-4.0, 4.0), 10.0 ** rng.uniform(-4.0, 4.0),
                  rng.uniform(-0.9, 3.0), 10.0 ** rng.uniform(-1.0, 1.0),
                  rng.uniform(1.0, 5.0))
        re = 10.0 ** rng.uniform(-10.0, 3.0, 500)
        im = rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(-6.0, 4.0, 500)
        p_hat = re + 1j * im
        resid, scale = _residual(p_hat, *params)
        resid_c, scale_c = _residual(np.conj(p_hat), *params)
        assert np.array_equal(resid_c, np.conj(resid))
        assert np.array_equal(scale_c, scale)
        on_axis, _ = _residual(re + 0j, *params)
        assert np.all(on_axis.imag == 0.0)


@pytest.mark.parametrize("k", [1e300, 1e-300])
def test_unresolvable_k_residual_is_domain_error(k):
    """At a k where the residual overflows or is nan, characteristic_residual
    and polish_root raise DomainError naming k, with no RuntimeWarning."""
    fr = RateState(a=0.010, b=0.012, L=1e-4, sigma_o=1e6, v_o=1e-3)
    bm = make_bimaterial(EffectiveMedium(mu=30e9, c1=3000.0),
                         EffectiveMedium(mu=36e9, c1=3600.0))
    cp = CharParams(k=k, friction=fr, bimaterial=bm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(f"k = {k!r}")):
            characteristic_residual(cp, 1 + 1j)
        with pytest.raises(DomainError, match=re.escape(f"k = {k!r}")):
            polish_root(cp, 1 + 1j)


def test_underflowing_rate_is_domain_error():
    """v_o/L = 0 (it underflows) is rejected on the way to the residual and
    the counter alike, not divided by: CharParams refuses it."""
    fr = RateState(a=0.010, b=0.012, L=1e300, sigma_o=1e6, v_o=8.94e-314)
    bm = make_bimaterial(EffectiveMedium(mu=30e9, c1=3000.0),
                         EffectiveMedium(mu=36e9, c1=3600.0))
    for call in (lambda cp: characteristic_residual(cp, 1 + 1j), count_unstable):
        with pytest.raises(DomainError, match="v_o/L underflows to 0"):
            call(CharParams(k=1e10, friction=fr, bimaterial=bm))


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


def _full_contour_winding(cp, contour, n_per_edge):
    """Winding number of the residual around all four edges of contour, each
    sampled at n_per_edge uniform points, and the largest phase increment."""
    lam = cp.friction.v_o / cp.friction.L
    re_lo, re_hi, im_max = (x / lam for x in contour)
    corners = [complex(re_lo, -im_max), complex(re_hi, -im_max),
               complex(re_hi, im_max), complex(re_lo, im_max)]
    s = np.arange(n_per_edge) / n_per_edge
    pts = np.concatenate([a + (b - a) * s
                          for a, b in zip(corners, corners[1:] + corners[:1])])
    vals, _ = _residual(pts, *_hat_params(cp))
    incs = np.angle(np.roll(vals, -1) / vals)
    return float(np.sum(incs)) / (2.0 * math.pi), float(np.max(np.abs(incs)))


def test_count_matches_full_contour_reference():
    """count_unstable agrees with a dense uniform count over the whole
    boundary of the same rectangle, at k/k_cr in {0.3, 0.95, 1.05, 3}.
    Preset (1.2, 1) at q = 10 has 4 unstable roots at 0.3*k_cr."""
    rng = np.random.default_rng(7)
    sets = [(10.0, 1.2, 1.2, 1.0)]
    for _ in range(5):
        sets.append((10.0 ** rng.uniform(-1.3, 0.7), rng.uniform(1.1, 3.0),
                     rng.uniform(1.05, 5.0), 10.0 ** rng.uniform(-1.0, 1.0)))
    seen = set()
    for q, b_over_a, speed_ratio, mu_ratio in sets:
        fr, bm = pair(q, b_over_a, speed_ratio, mu_ratio)
        k_cr = critical_mode(fr, bm).mode.k_mag
        for factor in (0.3, 0.95, 1.05, 3.0):
            cp = CharParams(k=factor * k_cr, friction=fr, bimaterial=bm)
            count = count_unstable(cp)
            n = 2 ** 14
            winding, worst = _full_contour_winding(cp, count.contour, n)
            while worst >= 0.25 * math.pi:
                n *= 2
                assert n <= 2 ** 18, "reference did not resolve the phase"
                winding, worst = _full_contour_winding(cp, count.contour, n)
            assert abs(winding - round(winding)) < 1e-6
            assert count.n_unstable == round(winding)
            seen.add(count.n_unstable)
    assert seen == {0, 2, 4}


# (speed ratio, modulus ratio, q): (n_unstable, samples) of count_unstable
# at (1 + CROSSING_MARGIN)*k_cr and at (1 - CROSSING_MARGIN)*k_cr, b/a = 1.2.
# The first 12 are verify's crossing cases, the rest certify's hard set;
# several of those miss the root pair below k_cr (ROADMAP item 1).  These
# pin today's sample set, wrong counts included: a change that only speeds
# the counter up keeps them, and one that changes the contour says so.
PINNED_COUNTS = {
    (1.2, 1.0, 0.1): ((0, 4103), (2, 4101)),
    (1.2, 1.0, 1.0): ((0, 4097), (2, 4097)),
    (1.2, 1.0, 10.0): ((0, 4111), (2, 4113)),
    (5.0, 1.0, 0.1): ((0, 4105), (2, 4103)),
    (5.0, 1.0, 1.0): ((0, 4099), (2, 4101)),
    (5.0, 1.0, 10.0): ((0, 4109), (2, 4113)),
    (5.0, 10.0, 0.1): ((0, 4103), (2, 4105)),
    (5.0, 10.0, 1.0): ((0, 4099), (2, 4101)),
    (5.0, 10.0, 10.0): ((0, 4113), (2, 4111)),
    (5.0, 0.1, 0.1): ((0, 4109), (2, 4111)),
    (5.0, 0.1, 1.0): ((0, 4105), (2, 4103)),
    (5.0, 0.1, 10.0): ((0, 8203), (2, 8207)),
    (1.2, 1.0, 30.0): ((0, 4125), (2, 4125)),
    (1.2, 1.0, 100.0): ((0, 4115), (0, 4117)),
    (1.2, 1.0, 1e3): ((0, 4127), (0, 4131)),
    (5.0, 1.0, 30.0): ((0, 4097), (0, 4097)),
    (5.0, 1.0, 100.0): ((0, 4099), (0, 4099)),
    (5.0, 1.0, 1e3): ((0, 4111), (0, 4113)),
    (5.0, 10.0, 30.0): ((0, 4125), (2, 4125)),
    (5.0, 10.0, 100.0): ((0, 8265), (2, 4143)),
    (5.0, 10.0, 1e3): ((0, 4125), (0, 4125)),
    (5.0, 0.1, 30.0): ((0, 4097), (0, 4097)),
    (5.0, 0.1, 100.0): ((0, 4097), (0, 4097)),
    (5.0, 0.1, 1e3): ((0, 4099), (0, 4099)),
}


@pytest.mark.parametrize("case", sorted(PINNED_COUNTS))
def test_counter_sample_set_pinned(case, monkeypatch):
    """The pinned counts, and every sample evaluated exactly once: the
    residual receives as many points as the count reports samples."""
    speed_ratio, mu_ratio, q = case
    fr, bm = pair(q, 1.2, speed_ratio, mu_ratio)
    k_cr = critical_mode(fr, bm).mode.k_mag
    received = []

    def counting_residual(p_hat, *args):
        received.append(np.size(p_hat))
        return _residual(p_hat, *args)

    monkeypatch.setattr(dispersion, "_residual", counting_residual)
    counts = []
    for factor in (1.0 + CROSSING_MARGIN, 1.0 - CROSSING_MARGIN):
        received.clear()
        c = count_unstable(CharParams(k=factor * k_cr, friction=fr, bimaterial=bm))
        assert sum(received) == c.samples
        counts.append((c.n_unstable, c.samples))
    assert tuple(counts) == PINNED_COUNTS[case]


@pytest.mark.parametrize("case", [(1.2, 1.0, 1.0), (5.0, 0.1, 10.0),
                                  (5.0, 10.0, 100.0)])
def test_kernel_hook_sees_every_contour_sample(case, monkeypatch):
    """The benchmark's tracer times the transfer kernel by rebinding
    dispersion.f_normalized and counts its points per count: that binding
    must receive every contour sample, as many as the count reports."""
    speed_ratio, mu_ratio, q = case
    fr, bm = pair(q, 1.2, speed_ratio, mu_ratio)
    k_cr = critical_mode(fr, bm).mode.k_mag
    kernel, received = dispersion.f_normalized, []

    def counting_kernel(z, *args):
        received.append(np.size(z))
        return kernel(z, *args)

    monkeypatch.setattr(dispersion, "f_normalized", counting_kernel)
    for factor in (1.0 + CROSSING_MARGIN, 1.0 - CROSSING_MARGIN):
        received.clear()
        c = count_unstable(CharParams(k=factor * k_cr, friction=fr, bimaterial=bm))
        assert sum(received) == c.samples


def _counter_outcomes():
    """(n_unstable, repr(contour), samples), or (exception type, text), of
    400 count_unstable calls: the four presets at six q and 74 seeded draws,
    each at k/k_cr in {0.3, 0.95, 1.05, 3}, and k = 1e-300 and 1e300 on
    every 25th set."""
    rng = np.random.default_rng(2024)
    sets = [(q, 1.2, r, m)
            for r, m in ((1.2, 1.0), (5.0, 1.0), (5.0, 10.0), (5.0, 0.1))
            for q in (0.1, 1.0, 10.0, 30.0, 100.0, 1e3)]
    for _ in range(74):
        sets.append((10.0 ** rng.uniform(-2.0, math.log10(5.0)),
                     rng.uniform(1.1, 3.0), rng.uniform(1.05, 5.0),
                     10.0 ** rng.uniform(-1.0, 1.0)))
    for i, (q, b_over_a, speed_ratio, mu_ratio) in enumerate(sets):
        fr, bm = pair(q, b_over_a, speed_ratio, mu_ratio)
        k_cr = critical_mode(fr, bm).mode.k_mag
        ks = [factor * k_cr for factor in (0.3, 0.95, 1.05, 3.0)]
        if i % 25 == 0:
            ks += [1e-300, 1e300]
        for k in ks:
            try:
                c = count_unstable(CharParams(k=k, friction=fr, bimaterial=bm))
            except SlipStabError as exc:
                yield type(exc).__name__, str(exc)
            else:
                yield c.n_unstable, repr(c.contour), c.samples


# SHA-256 of the outcomes above, recorded before the confirm round was
# interleaved: a change that only speeds the counter up keeps it
COUNTER_OUTCOMES_SHA256 = (
    "d64932ea41e71ca60d15d1e74a38f3a83ee8fc6b75690e7f614ac137a23b8db0")


def test_counter_outcomes_pinned():
    digest = hashlib.sha256()
    for outcome in _counter_outcomes():
        digest.update(repr(outcome).encode())
    assert digest.hexdigest() == COUNTER_OUTCOMES_SHA256
