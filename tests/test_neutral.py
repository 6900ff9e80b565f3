"""Neutral-mode solvers: subsonic branch, intersonic windows, sweeps.

Expected values were frozen from an independent oracle: the bifurcation
equation solved in plain velocity space with scipy.optimize.brentq and
refined with 50-digit mpmath arithmetic.  The library's internal solver
uses a different parametrization, so agreement is meaningful.
"""

from __future__ import annotations

import hashlib
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from slipstab import (
    BiMaterial,
    Branch,
    DomainError,
    EffectiveMedium,
    RateState,
    critical_mode,
    critical_mode_q,
    f_laplace,
    make_bimaterial,
    nondim_q,
    solve_intersonic,
    solve_subsonic,
    sweep_q,
)
from slipstab import SlipStabError, neutral
from slipstab.neutral import _subsonic_modes

MILD = BiMaterial.from_ratios(1.0, 1.2)
PRESETS = ((1.2, 1.0), (5.0, 1.0), (5.0, 10.0), (5.0, 0.1))


def f_axis(x: float, bm: BiMaterial) -> float:
    """Subsonic F at c/c1 = x from the Laplace form at p = i*x (unit
    slow-side c1, as from_ratios builds): no code shared with the solver."""
    return f_laplace(1.0, 1j * x, bm).real


def dimensional(q, b_over_a=1.2, mu_ratio=1.0, speed_ratio=1.2, *,
                a=0.01, sigma_o=1e6, L=1e-4, mu=30e9, c1=3000.0):
    b = a * b_over_a
    v_o = q * 2.0 * math.sqrt(a * (b - a)) * sigma_o * c1 / mu
    friction = RateState(a=a, b=b, L=L, sigma_o=sigma_o, v_o=v_o)
    bm = make_bimaterial(EffectiveMedium(mu=mu, c1=c1),
                         EffectiveMedium(mu=mu * mu_ratio, c1=c1 * speed_ratio))
    return friction, bm


class TestSubsonic:
    def test_frozen_mild_contrast(self):
        mode = solve_subsonic(1.0, MILD)
        assert mode.branch is Branch.SUBSONIC
        assert mode.c_over_c1 == pytest.approx(0.732350989067, rel=1e-10)
        assert mode.k_hat == pytest.approx(1.365465487080149, rel=1e-10)

    def test_published_rounding(self):
        # four-digit values quoted for this parameter set
        mode = solve_subsonic(1.0, MILD)
        assert mode.c_over_c1 == pytest.approx(0.7322, rel=1e-3)
        assert mode.k_hat == pytest.approx(1.3657, rel=1e-3)

    def test_identical_media_closed_form(self):
        bm = BiMaterial.from_ratios(1.0, 1.0)
        for q in np.logspace(-3, 3, 25):
            q = float(q)
            mode = solve_subsonic(q, bm)
            assert mode.c_over_c1 == pytest.approx(q / math.sqrt(1 + q * q),
                                                   rel=1e-12)
            assert mode.k_hat == pytest.approx(math.sqrt(1 + q * q), rel=1e-12)

    @pytest.mark.parametrize("mu_ratio,speed_ratio,q", [
        (1.0, 1.2, 0.3), (1.0, 5.0, 1.0), (10.0, 5.0, 2.0),
        (0.1, 5.0, 10.0), (3.0, 1.01, 0.5),
    ])
    def test_against_velocity_space_oracle(self, mu_ratio, speed_ratio, q):
        """Re-solve x/F(x) = q directly in x with brentq."""
        bm = BiMaterial.from_ratios(mu_ratio, speed_ratio)
        x = brentq(lambda v: v / f_axis(v, bm) - q, 1e-15, 1.0 - 1e-15,
                   xtol=1e-15, rtol=8.9e-16)
        mode = solve_subsonic(q, bm)
        assert mode.c_over_c1 == pytest.approx(x, rel=1e-12)
        f0 = f_axis(0.0, bm)
        assert mode.k_hat == pytest.approx(f0 / f_axis(x, bm), rel=1e-12)

    def test_dimensional_fields(self):
        friction, bm = dimensional(1.0)
        mode = critical_mode(friction, bm).mode
        w_ref = math.sqrt((friction.b - friction.a) / friction.a) \
            * friction.v_o / friction.L
        assert mode.omega == pytest.approx(w_ref, rel=1e-14)
        assert mode.k_mag * mode.c_over_c1 * bm.slow.c1 == pytest.approx(
            w_ref, rel=1e-12)

    def test_nondimensional_leaves_dimensional_fields_empty(self):
        mode = solve_subsonic(1.0, MILD)
        assert mode.k_mag is None and mode.omega is None

    def test_rejects_bad_q(self):
        with pytest.raises(DomainError):
            solve_subsonic(0.0, MILD)
        with pytest.raises(DomainError):
            solve_subsonic(-1.0, MILD)

    @pytest.mark.parametrize("mu_ratio,q", [(1e-300, 0.5), (1e-100, 1e-60)])
    def test_range_error_names_the_condition(self, mu_ratio, q):
        # q itself is moderate here: it is F(0)*q = 2mq/(1 + m) that falls
        # below about 1e-154, where the root t = x^2/(1 - x^2) underflows
        with pytest.raises(DomainError) as info:
            solve_subsonic(q, BiMaterial.from_ratios(mu_ratio, 1.2))
        text = str(info.value)
        assert f"mu_ratio = {mu_ratio!r}" in text
        assert "2*mu_ratio*q/(1 + mu_ratio) >= 1e-154" in text and "q <= 1e154" in text

    def test_small_mu_ratio_inside_the_range_solves(self):
        # F(0)*q = 2e-150, inside the range although mu_ratio is 1e-150
        mode = solve_subsonic(1.0, BiMaterial.from_ratios(1e-150, 1.0))
        assert mode.c_over_c1 == pytest.approx(2e-150, rel=1e-12)
        assert mode.k_hat == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("q", [1e-170, 1e-150, 1e150, 1e160])
    def test_extreme_q_answers_or_refuses_quickly(self, q):
        # 1e-170 used to hang (4q^2 underflowed to 0) and 1e160 to raise
        # a bare OverflowError (the square of the bracket overflowed)
        t0 = time.perf_counter()
        try:
            mode = solve_subsonic(q, MILD)
        except DomainError:
            mode = None
        assert time.perf_counter() - t0 < 0.5
        if mode is not None:
            # far from c1 the mode is quasi-static, near it c -> c1 and
            # k_hat -> F(0)*q
            if q < 1.0:
                assert mode.c_over_c1 == pytest.approx(q, rel=1e-12)
                assert mode.k_hat == pytest.approx(1.0, rel=1e-12)
            else:
                assert mode.k_hat == pytest.approx(q, rel=1e-12)

    # at q = 1e150 a sweep with r = 1.2 raises: its intersonic solve is out
    # of range, so the sweep there runs at equal wave speeds
    @pytest.mark.parametrize("q, speed_ratio", [(7e7, 1.2), (1e8, 1.2), (1e10, 1.2),
                                                (1e150, 1.0)])
    def test_c_stays_below_c1_at_large_q(self, q, speed_ratio):
        # sqrt(t/(1 + t)) rounds onto 1 from q of about 7e7, which `kcr`
        # printed as a subsonic mode at c = c1; the one-q solve and the
        # sweep round it down to the float below 1 alike
        bm = BiMaterial.from_ratios(1.0, speed_ratio)
        mode = solve_subsonic(q, bm)
        assert mode.c_over_c1 < 1.0
        table = sweep_q([q], 1.2, bm)
        assert table.branch[0] is Branch.SUBSONIC
        assert table.c_over_c1[0] == mode.c_over_c1

    @given(st.floats(min_value=0.05, max_value=20.0),
           st.floats(min_value=1.0, max_value=8.0),
           st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=300, deadline=None)
    def test_mode_properties(self, mu_ratio, speed_ratio, q):
        bm = BiMaterial.from_ratios(mu_ratio, speed_ratio)
        mode = solve_subsonic(q, bm)
        assert 0.0 < mode.c_over_c1 < 1.0
        assert mode.k_hat >= 1.0
        # the mode satisfies the defining equation in velocity space
        resid = mode.c_over_c1 / f_axis(mode.c_over_c1, bm) - q
        assert abs(resid) <= 1e-9 * q


class TestIntersonic:
    def test_empty_below_window(self):
        assert solve_intersonic(0.01, 1.2, MILD) == []
        assert solve_intersonic(0.9, 1.2, MILD) == []

    def test_frozen_pair_at_q_ten(self):
        modes = solve_intersonic(10.0, 1.2, MILD)
        assert len(modes) == 2
        lo, hi = modes
        assert lo.c_over_c1 == pytest.approx(1.0002507794268176, rel=1e-10)
        assert lo.k_hat == pytest.approx(0.1510137649840233, rel=1e-10)
        assert hi.c_over_c1 == pytest.approx(1.1981328505118842, rel=1e-10)
        assert hi.k_hat == pytest.approx(7.4536058340331115, rel=1e-10)

    def test_sorted_by_velocity_and_inside_window(self):
        modes = solve_intersonic(2.0, 1.2, MILD)
        assert len(modes) == 2
        assert modes[0].c_over_c1 < modes[1].c_over_c1
        for mo in modes:
            assert 1.0 < mo.c_over_c1 < 1.2
            assert mo.branch is Branch.INTERSONIC

    def test_below_subsonic_wavenumber(self):
        for q in (1.0, 2.0, 10.0):
            sub = solve_subsonic(q, MILD)
            for mo in solve_intersonic(q, 1.2, MILD):
                assert mo.k_hat < sub.k_hat

    def test_tiny_weakening_resolves_near_c1(self):
        # b/a = 1 + 1e-6 puts the slow root at c/c1 - 1 = 1.25e-7, which
        # a c/c1-space solve could not hold to a 1e-10 residual
        modes = solve_intersonic(1.0, 1.0 + 1e-6, MILD)
        assert len(modes) == 2
        assert modes[0].c_over_c1 == pytest.approx(1.0 + 1.25e-7, rel=1e-9)
        for mo in modes:
            assert 0.0 < mo.k_hat < 1.0

    @pytest.mark.parametrize("mu_ratio,speed_ratio,b_over_a,q_w,factor", [
        (1.0, 1.2, 1.2, 0.9666852207402846, 1.0 + 1e-8),
        (0.1, 5.0, 1.1, 2.955456428683422, 1.001),
    ])
    def test_pair_just_above_the_window(self, mu_ratio, speed_ratio,
                                        b_over_a, q_w, factor):
        # q_w from an independent golden-section minimum of the phase
        # equation; pairs this close used to slip between scan points
        bm = BiMaterial.from_ratios(mu_ratio, speed_ratio)
        assert len(solve_intersonic(q_w * factor, b_over_a, bm)) == 2
        assert solve_intersonic(q_w * (1.0 - 1e-8), b_over_a, bm) == []

    def test_underflowing_window_terms_end_off_the_range(self):
        # at m = 1e-290 F1 and F2 underflow, and Q is 0/0 on Python floats:
        # the window takes it as numpy's nan, and its search ends off range
        bm = BiMaterial.from_ratios(1.014151791893588e-290, 1.0000000000027636)
        with pytest.raises(SlipStabError, match="off the search range"):
            solve_intersonic(1e3, 8.062203220539252e+83, bm)

    @pytest.mark.parametrize("solve", [lambda: sweep_q([1e150], 1.2, MILD),
                                       lambda: sweep_q([1.0, 1e150], 1.2, MILD),
                                       lambda: solve_intersonic(1e150, 1.2, MILD)],
                             ids=["sweep", "sweep-grid", "one-q"])
    def test_q_beyond_the_tau_range_is_refused(self, solve):
        # Q at tau = -600 is 6.9e129 here: the tau search brackets no root
        with pytest.raises(DomainError,
                           match=r"^q = 1e\+150 is beyond the intersonic solve's range$"):
            solve()

    def test_identical_speeds_return_empty(self):
        bm = BiMaterial.from_ratios(1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_intersonic(1.0, 1.2, bm) == []


class TestCriticalMode:
    def test_strengthening_always_stable(self):
        friction, bm = dimensional(1.0)
        soft = RateState(a=friction.a, b=0.8 * friction.a, L=friction.L,
                         sigma_o=friction.sigma_o, v_o=friction.v_o)
        verdict = critical_mode(soft, bm)
        assert verdict.mode is None

    def test_subsonic_wins(self):
        for q in (0.1, 1.0, 10.0):
            friction, bm = dimensional(q)
            verdict = critical_mode(friction, bm)
            assert verdict.mode is not None
            assert verdict.mode.branch is Branch.SUBSONIC
            assert verdict.mode.c_over_c1 < 1.0

    @pytest.mark.parametrize("speed_ratio,mu_ratio", PRESETS)
    @pytest.mark.parametrize("q", [1e3, 1e4])
    def test_fast_sliding_presets_stay_subsonic(self, speed_ratio, mu_ratio, q):
        # at q = 1e3 the intersonic solve used to raise a residual error
        # from inside critical_mode
        friction, bm = dimensional(q, speed_ratio=speed_ratio,
                                   mu_ratio=mu_ratio)
        mode = critical_mode(friction, bm).mode
        assert mode.branch is Branch.SUBSONIC
        assert mode.c_over_c1 < 1.0
        assert replace(mode, k_mag=None, omega=None) == solve_subsonic(
            nondim_q(friction, bm.slow), bm)

    def test_nondimensional_entry_matches(self):
        friction, bm = dimensional(2.0)
        verdict = critical_mode_q(2.0, 1.2, bm)
        assert verdict.mode.k_hat == critical_mode(friction, bm).mode.k_hat
        assert critical_mode_q(2.0, 1.0, bm).mode is None

    @pytest.mark.parametrize("b_over_a", [math.nan, 0.0, -1.0])
    def test_nonpositive_b_over_a_rejected(self, b_over_a):
        # no RateState gives such a b/a
        with pytest.raises(DomainError, match="b/a"):
            critical_mode_q(1.0, b_over_a, MILD)

    @pytest.mark.parametrize("b_over_a", [0.5, 1.2])
    @pytest.mark.parametrize("q", [math.nan, -1.0, 0.0, math.inf])
    def test_bad_q_rejected_whatever_b_over_a(self, q, b_over_a):
        # b/a <= 1 used to return always-stable without looking at q
        with pytest.raises(DomainError, match=f"^q must be positive and finite, got {q}$"):
            critical_mode_q(q, b_over_a, MILD)

    def test_infinite_q_rejected_by_the_one_q_solvers(self):
        # solve_intersonic used to take q = inf into its brackets
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (lambda q: solve_subsonic(q, MILD),
                          lambda q: solve_intersonic(q, 1.2, MILD)):
                with pytest.raises(DomainError, match="^q must be positive and finite"):
                    solve(math.inf)

    @pytest.mark.parametrize("solve", [critical_mode_q, solve_intersonic])
    def test_infinite_b_over_a_rejected(self, solve):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                solve(1.0, math.inf, MILD)
        assert "b/a" in str(info.value) and "finite" in str(info.value)

    @staticmethod
    def contract_cases():
        """The 4 presets at q in {0.1, 1, 10}, then 200 seeded weakening sets."""
        for speed_ratio, mu_ratio in PRESETS:
            for q in (0.1, 1.0, 10.0):
                yield dimensional(q, speed_ratio=speed_ratio, mu_ratio=mu_ratio)
        rng = np.random.default_rng(8)
        for _ in range(200):
            a = 10.0 ** rng.uniform(-3.0, -1.0)
            yield (RateState(a=a, b=a * rng.uniform(1.001, 3.0),
                             L=10.0 ** rng.uniform(-6.0, -2.0),
                             sigma_o=10.0 ** rng.uniform(5.0, 8.0),
                             v_o=10.0 ** rng.uniform(-9.0, 1.0)),
                   make_bimaterial(*(EffectiveMedium(
                       mu=10.0 ** rng.uniform(9.0, 11.0),
                       c1=rng.uniform(500.0, 8000.0)) for _ in range(2))))

    def test_dimensional_fields_attached_exactly(self):
        # the nondimensional subsonic mode, with omega = sqrt((b-a)/a)*v_o/L
        # and |k| = omega/c, to the last bit
        for friction, bm in self.contract_cases():
            mode = critical_mode(friction, bm).mode
            sub = solve_subsonic(nondim_q(friction, bm.slow), bm)
            assert (mode.q, mode.branch, mode.c_over_c1, mode.k_hat) == (
                sub.q, sub.branch, sub.c_over_c1, sub.k_hat)
            omega = math.sqrt((friction.b - friction.a) / friction.a) * (
                friction.v_o / friction.L)
            assert mode.omega == omega
            assert mode.k_mag == omega / (mode.c_over_c1 * bm.slow.c1)

    def test_quasistatic_dimensional_value(self):
        friction, bm = dimensional(1e-6)
        verdict = critical_mode(friction, bm)
        mu, mu_p = bm.slow.mu, bm.fast.mu
        k_ref = (friction.b - friction.a) * friction.sigma_o \
            * (mu + mu_p) / (friction.L * mu * mu_p)
        assert verdict.mode.k_mag == pytest.approx(k_ref, rel=1e-4)


def table_rows(table):
    """The rows of a SweepTable, after checking its four columns line up."""
    columns = (table.q, table.branch, table.c_over_c1, table.k_hat)
    assert all(isinstance(col, tuple) for col in columns)
    assert len({len(col) for col in columns}) == 1
    return list(zip(*columns))


class TestSweep:
    def test_rows_in_grid_order_subsonic_first(self):
        table = sweep_q([0.5, 1.0, 2.0], 1.2, MILD)
        assert list(table.q) == sorted(table.q)
        by_q = {}
        for q, branch, _, _ in table_rows(table):
            by_q.setdefault(q, []).append(branch)
        assert by_q[0.5] == [Branch.SUBSONIC]
        assert by_q[1.0] == [Branch.SUBSONIC, Branch.INTERSONIC, Branch.INTERSONIC]
        assert all(branch is Branch.SUBSONIC or branch is Branch.INTERSONIC
                   for branch in table.branch)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            sweep_q([], 1.2, MILD)
        with pytest.raises(DomainError):
            sweep_q([1.0, 0.5], 1.2, MILD)
        with pytest.raises(DomainError):
            sweep_q([-1.0, 0.5], 1.2, MILD)
        with pytest.raises(DomainError):
            sweep_q([0.5, 1.0], 1.0, MILD)

    def test_rows_equal_single_solves(self):
        """Every row is, to the bit, the one-q solvers' mode: a log grid on
        the mild pair, then 16 seeded pairs (every fourth with r = 1) on
        grids that straddle their window, with q_w and the floats beside it."""
        cases = [(MILD, 1.2, [float(v) for v in np.logspace(-2, 1, 40)])]
        rng = np.random.default_rng(31)
        for i in range(16):
            m = float(10.0 ** rng.uniform(-2.0, 2.0))
            r = 1.0 if i % 4 == 0 else float(rng.uniform(1.001, 32.6))
            b_over_a = float(1.0 + 10.0 ** rng.uniform(-3.0, 1.0))
            q_w = (neutral._intersonic_window(m, r, b_over_a)[1] if r > 1.0
                   else float(10.0 ** rng.uniform(-1.0, 1.0)))
            grid = (q_w * 10.0 ** rng.uniform(-2.0, 2.0, 12)).tolist()
            grid += [q_w, math.nextafter(q_w, 0.0), math.nextafter(q_w, math.inf)]
            cases.append((BiMaterial.from_ratios(m, r), b_over_a, sorted(grid)))
        for bm, b_over_a, grid in cases:
            table = sweep_q(grid, b_over_a, bm)
            expected = []
            for q in grid:
                for mo in ([solve_subsonic(q, bm)]
                           + solve_intersonic(q, b_over_a, bm)):
                    expected.append((q, mo.branch, mo.c_over_c1.hex(),
                                     mo.k_hat.hex()))
            assert [(q, branch, x.hex(), k.hex()) for q, branch, x, k
                    in table_rows(table)] == expected
            # Python floats, whose repr the CSV writer relies on
            assert {type(v) for col in (table.q, table.c_over_c1, table.k_hat)
                    for v in col} == {float}

    def test_identical_media_no_intersonic_rows(self):
        bm = BiMaterial.from_ratios(1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = sweep_q([0.5, 1.0], 1.2, bm)
        assert table.branch == (Branch.SUBSONIC, Branch.SUBSONIC)
        assert table.q == (0.5, 1.0)

    @pytest.mark.parametrize("grid,b_over_a,named", [
        ([0.5, math.inf], 1.2, "finite"), ([math.nan, 1.0], 1.2, "finite"),
        ([0.5, 1.0], math.inf, "b/a"), ([0.5, 1.0], math.nan, "b/a")])
    def test_non_finite_input_rejected(self, grid, b_over_a, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=named):
                sweep_q(grid, b_over_a, MILD)

    @pytest.mark.parametrize("solve", [
        solve_intersonic, lambda q, b_over_a, bm: sweep_q([q], b_over_a, bm)])
    def test_b_over_a_bound(self, solve):
        # above about 1e154 the window's phase equation overflows; the
        # solvers take b/a up to 1e100 and refuse more
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve(2.0, 1e100, MILD)
            with pytest.raises(DomainError, match="b/a"):
                solve(2.0, 1.0000000000000002e100, MILD)


def scan_phase_q(tau, m, r, b_over_a):
    """Intersonic phase-equation left side at tau = ln(u/v), written from
    F1, F2 in velocity form (no rationalized root difference)."""
    u = (r - 1.0) / (1.0 + np.exp(-tau))
    v = (r - 1.0) / (1.0 + np.exp(tau))
    x = 1.0 + u
    s = np.sqrt(u * (2.0 + u))
    beta_fast = np.sqrt(v * (r + x)) / r
    d = (m * beta_fast) ** 2 + s ** 2
    f1 = 2.0 * m * beta_fast * s ** 2 / d
    f2 = 2.0 * (m * beta_fast) ** 2 * s / d
    w = b_over_a - 1.0
    half = 0.5 * b_over_a * f2
    return math.sqrt(w) * x / (np.sqrt(half ** 2 + w * f1 ** 2) - half + f2)


def dense_scan(m, r, b_over_a):
    """(tau samples, Q samples): 20001 points over |tau| <= 45 plus 20001
    around the coarse minimum, fine enough to split any pair of roots that
    lies more than 1e-6 (relative) above the minimum."""
    coarse = np.linspace(-45.0, 45.0, 20001)
    i = int(np.argmin(scan_phase_q(coarse, m, r, b_over_a)))
    fine = np.linspace(coarse[max(i - 1, 0)], coarse[min(i + 1, 20000)], 20001)
    tau = np.union1d(coarse, fine)
    return tau, scan_phase_q(tau, m, r, b_over_a)


log_uniform = lambda lo, hi: st.floats(math.log10(lo), math.log10(hi)).map(
    lambda e: 10.0 ** e)


class TestIntersonicWindowProperties:
    """Over m in [1e-2, 1e2], r - 1 in [1e-3, 31.6], b/a - 1 in [1e-3, 10]
    and q in [1e-3, 1e3]."""

    @given(log_uniform(1e-2, 1e2), log_uniform(1e-3, 31.6),
           log_uniform(1e-3, 10.0), st.floats(-5.9, 0.5), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_root_count_matches_dense_scan(self, m, r_minus_1, w, e, above):
        r, b_over_a = 1.0 + r_minus_1, 1.0 + w
        _, q_scan = dense_scan(m, r, b_over_a)
        q_w = float(q_scan.min())
        # q at a log-distance 10^e from the window, on either side
        q = q_w * 10.0 ** (10.0 ** e if above else -(10.0 ** e))
        assume(1e-3 <= q <= 1e3 and abs(q / q_w - 1.0) > 1e-6)
        signs = np.sign(q_scan - q)
        crossings = int(np.count_nonzero(signs[1:] != signs[:-1]))
        modes = solve_intersonic(q, b_over_a, BiMaterial.from_ratios(m, r))
        assert crossings == (2 if q > q_w else 0)
        assert len(modes) == crossings

    @given(log_uniform(1e-2, 1e2), log_uniform(1e-3, 31.6),
           log_uniform(1e-3, 10.0), log_uniform(1e-3, 1e3))
    @settings(max_examples=300, deadline=None)
    def test_intersonic_wavenumbers_below_subsonic(self, m, r_minus_1, w, q):
        bm = BiMaterial.from_ratios(m, 1.0 + r_minus_1)
        f0 = 2.0 * m / (1.0 + m)
        sub = solve_subsonic(q, bm)
        assert f0 * q < sub.k_hat
        for mo in solve_intersonic(q, 1.0 + w, bm):
            assert 1.0 < mo.c_over_c1 < bm.speed_ratio
            assert mo.k_hat < f0 * q


def _subsonic_outcome(solve):
    """A solve's result, or the text of the DomainError it raised."""
    try:
        return solve()
    except DomainError as exc:
        return str(exc)


class TestRootFinderForms:
    """The np.float64 loop of one-q solves against the array loop of sweeps,
    and the regula falsi's work per step."""

    def test_scalar_path_is_array_path(self):
        rng = np.random.default_rng(20261019)
        n = 1000
        ms = 10.0 ** rng.uniform(-2.0, 2.0, n)
        rs = np.where(np.arange(n) % 4 == 0, 1.0, rng.uniform(1.001, 32.6, n))
        qs = 10.0 ** rng.uniform(-154.0, 154.0, n)
        cases = list(zip(ms.tolist(), rs.tolist(), qs.tolist()))
        # both ends of the range, and beyond them, for both kinds of pair
        cases += [(m, r, q) for m, r in ((0.01, 1.0), (100.0, 32.6), (1.0, 1.2))
                  for q in (1e-154, 1e154, 1e-170, 1e170)]
        refused = 0
        for m, r, q in cases:
            bm = BiMaterial.from_ratios(m, r)

            def one():
                mode = solve_subsonic(q, bm)
                return mode.c_over_c1, mode.k_hat

            def row():
                xs, k_hats = _subsonic_modes(np.array([q]), m, r)
                return xs[0], k_hats[0]

            scalar, array = _subsonic_outcome(one), _subsonic_outcome(row)
            if isinstance(array, str):
                refused += 1
                assert scalar == array
                continue
            assert [type(v) for v in scalar + array] == [float] * 4
            assert [v.hex() for v in scalar] == [v.hex() for v in array]
        assert refused >= 6   # at least the q = 1e-170 and 1e170 cases

    @pytest.mark.parametrize("solve", [
        lambda: solve_subsonic(3.0, MILD),
        lambda: solve_intersonic(3.0, 1.2, MILD),
        lambda: sweep_q([0.5, 1.0, 2.0, 3.0], 1.2, MILD)],
        ids=["subsonic", "intersonic", "sweep"])
    def test_one_evaluation_per_step(self, monkeypatch, solve):
        """Every evaluation of f inside _bracketed_roots is at a point not
        seen before (an evaluation after the loop would repeat an end), and
        n of them mean n steps that evaluate plus the step that stops: a
        step cap of n + 1 reaches the same root and a cap of n does not."""
        seen = []
        bracketed = neutral._bracketed_roots

        def counting(f, a, fa, b, fb, rtol):
            seen[:] = [np.atleast_1d(a), np.atleast_1d(b)]

            def f_counted(x):
                x1 = np.atleast_1d(x)
                assert not any(np.array_equal(x1, y) for y in seen)
                seen.append(x1)
                return f(x)
            return bracketed(f_counted, a, fa, b, fb, rtol)

        monkeypatch.setattr(neutral, "_bracketed_roots", counting)
        expected = solve()
        n = len(seen) - 2
        assert n > 0
        monkeypatch.setattr(neutral, "_MAX_STEPS", n + 1)
        assert solve() == expected
        monkeypatch.setattr(neutral, "_MAX_STEPS", n)
        with pytest.raises(SlipStabError, match="did not converge"):
            solve()

    @pytest.mark.parametrize("grid,bm", [
        ([0.5, 1.0, 2.0, 3.0], MILD), ([0.1, 0.5, 0.9], MILD),
        ([0.5, 1.0, 2.0], BiMaterial.from_ratios(1.0, 1.0))],
        ids=["straddling", "below-window", "equal-speeds"])
    def test_sweep_makes_one_root_search(self, monkeypatch, grid, bm):
        calls = []
        bracketed = neutral._bracketed_roots

        def counting(*args):
            calls.append(args)
            return bracketed(*args)

        monkeypatch.setattr(neutral, "_bracketed_roots", counting)
        table = sweep_q(grid, 1.2, bm)
        assert len(calls) == 1
        assert np.size(calls[0][1]) == len(grid) + table.branch.count(
            Branch.INTERSONIC)

    def test_mixed_rtol_matches_each_element_alone(self):
        """A per-element rtol gives every element the bits of its own solve
        with that rtol as a scalar, and rtol = 0 gives the float loop's
        bits.  On every fourth element f = x - 0.5, whose first regula
        falsi point is the root: f(b) = 0 stops an rtol > 0 element there,
        while rtol = 0 runs on, to the float above 0.5, as bisection does."""
        rng = np.random.default_rng(7)
        n = 60
        exact_root = np.arange(n) % 4 == 0
        root = np.where(exact_root, 0.5, rng.uniform(0.01, 0.99, n))
        power = np.where(exact_root, 1.0, rng.choice([1.0, 3.0, 0.3], n))
        rtol = np.where(np.arange(n) % 8 < 4, 0.0,
                        rng.choice([2.0 * np.finfo(float).eps, 1e-9, 1e-3], n))
        seen = []

        def solve(i, a, b, tol):
            def f(x):
                seen.append(np.atleast_1d(x).copy())
                return np.sign(x - root[i]) * np.abs(x - root[i]) ** power[i]
            return neutral._bracketed_roots(f, a, f(a), b, f(b), tol)

        together = solve(np.arange(n), np.zeros(n), np.ones(n), rtol)
        evaluated = np.array(seen)
        for i in range(n):
            alone = solve(np.array([i]), np.zeros(1), np.ones(1), float(rtol[i]))
            assert together[i].hex() == alone[0].hex()
            if rtol[i] == 0.0:
                scalar = solve(i, np.float64(0.0), np.float64(1.0), 0.0)
                assert float(scalar).hex() == alone[0].hex()
        past_root = (evaluated == math.nextafter(0.5, 1.0)).any(axis=0)
        assert np.array_equal(past_root[exact_root], rtol[exact_root] == 0.0)
        assert (exact_root & (rtol > 0.0)).any() and (exact_root & (rtol == 0.0)).any()
        assert np.all(together[exact_root] == 0.5)

    def test_window_terms_on_floats_are_array_terms(self):
        """The golden section's Python-float Q is the array Q, to the bit."""
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = float(10.0 ** rng.uniform(-3.0, 3.0))
            r = float(1.0 + 10.0 ** rng.uniform(-12.0, 2.0))
            b_over_a = float(1.0 + 10.0 ** rng.uniform(-12.0, 100.0))
            taus = rng.uniform(-40.0, 40.0, 8)
            arrays = neutral._intersonic_terms(taus, m, r, b_over_a)
            for k, tau in enumerate(taus.tolist()):
                floats = neutral._intersonic_terms(tau, m, r, b_over_a)
                assert [type(v) for v in floats] == [float] * 5
                assert [v.hex() for v in floats] == [
                    float(col[k]).hex() for col in arrays]


def _sweep_inputs():
    """(m, r, b/a, grid) of 200 seeded sweeps: m in [1e-2, 1e2], every fifth
    pair with r = 1, b/a - 1 in [1e-3, 1e2] (b/a = 1e100 on four), grids of
    1 to 30 q in [1e-6, 1e60]; every third grid straddles the window with
    q_w itself, the floats beside it and a repeated q.  Then two grids whose
    root search does not converge and one whose modes round onto c1 and c1'."""
    rng = np.random.default_rng(19)
    for i in range(200):
        m = float(10.0 ** rng.uniform(-2.0, 2.0))
        r = 1.0 if i % 5 == 0 else float(1.0 + 10.0 ** rng.uniform(-3.0, 1.5))
        b_over_a = (1e100 if i % 50 == 7
                    else float(1.0 + 10.0 ** rng.uniform(-3.0, 2.0)))
        lo = rng.uniform(-6.0, 3.0)
        hi = rng.uniform(lo, 60.0 if i % 4 == 0 else 4.0)
        grid = (10.0 ** rng.uniform(lo, hi, rng.integers(1, 31))).tolist()
        if i % 3 == 0 and r > 1.0:
            q_w = neutral._intersonic_window(m, r, b_over_a)[1]
            grid += [q_w, math.nextafter(q_w, 0.0), math.nextafter(q_w, math.inf),
                     2.0 * q_w, 2.0 * q_w, 0.5 * q_w]
        yield m, r, b_over_a, sorted(grid)
    yield from [(1.0, 1.2, 1e100, [1e50]), (1.0, 1.2, 1e100, [1.0, 1e50]),
                (1.0, 1.2, 1.2, [1e8])]


def _sweep_outcomes():
    """repr(table), or (exception type, text), of every sweep above."""
    for m, r, b_over_a, grid in _sweep_inputs():
        try:
            table = sweep_q(grid, b_over_a, BiMaterial.from_ratios(m, r))
        except SlipStabError as exc:
            yield type(exc).__name__, str(exc)
        else:
            yield repr(table)


# SHA-256 of the outcomes above, recorded before both branches of a sweep
# shared one root search: a change that only speeds sweeps up keeps it.
# Re-recorded when a subsonic c/c1 that rounds onto 1 was rounded down to
# the float below 1: that moved 423 subsonic rows of 40 of the 203 sweeps,
# the [1e8] grid among them, from c/c1 = 1.0 to 0.9999999999999999, and
# no q, branch, k_hat or error text.
SWEEP_OUTCOMES_SHA256 = (
    "3ac247fb65539c45df4d45a5a6da9c92de81202113fbcc681b8fa62399d31f26")


def test_sweep_outcomes_pinned():
    digest = hashlib.sha256()
    for outcome in _sweep_outcomes():
        digest.update(repr(outcome).encode())
    assert digest.hexdigest() == SWEEP_OUTCOMES_SHA256
