"""Nonlinear spring-block integration and the stiffness estimator."""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

import slipstab
from slipstab import (
    BlockState,
    DomainError,
    EvolutionLaw,
    Inconclusive,
    RateState,
    SpringBlockParams,
    StepFailure,
    VelocityStrengthening,
    estimate_critical_stiffness,
    friction_stress,
    simulate_spring_block,
    spring_block_critical,
)
from slipstab import _dop853, simulate

FR = RateState(a=0.01, b=0.015, L=1e-5, sigma_o=1e6, v_o=1e-3)
K_CR, W_CR = spring_block_critical(FR)


def mass_unit(fr):
    """a*sigma_o*L/v_o^2: the mass per area that doubles K_cr."""
    return fr.a * fr.sigma_o * fr.L / fr.v_o ** 2


INERTIAL_MASS = 0.5 * mass_unit(FR)
LIGHT_MASS = 0.05 * mass_unit(FR)


def perturbed(rel=1e-3):
    v = (1.0 + rel) * FR.v_o
    return BlockState(v=v, theta=FR.L / FR.v_o,
                      tau=friction_stress(FR, v, FR.L / FR.v_o))


def test_block_state_validation():
    with pytest.raises(DomainError):
        BlockState(v=0.0, theta=1.0, tau=0.0)
    with pytest.raises(DomainError):
        BlockState(v=1e-3, theta=-1.0, tau=0.0)


def test_argument_validation():
    sb = SpringBlockParams(stiffness=K_CR, mass=0.0, friction=FR)
    with pytest.raises(DomainError):
        simulate_spring_block(sb, EvolutionLaw.AGEING, duration=0.0)
    with pytest.raises(DomainError):
        simulate_spring_block(sb, EvolutionLaw.AGEING, tol=0.0)


@pytest.mark.parametrize("law", [EvolutionLaw.AGEING, EvolutionLaw.SLIP])
@pytest.mark.parametrize("mass", [0.0, INERTIAL_MASS])
def test_steady_state_is_a_fixed_point(law, mass):
    sb = SpringBlockParams(stiffness=K_CR, mass=mass, friction=FR)
    traj = simulate_spring_block(sb, law)
    # the log-variable right side is exactly zero at steady sliding
    assert np.max(np.abs(traj.v / FR.v_o - 1.0)) < 1e-12
    assert np.max(np.abs(traj.theta * FR.v_o / FR.L - 1.0)) < 1e-12
    assert not traj.blew_up


def test_stiff_spring_decays():
    sb = SpringBlockParams(stiffness=2.0 * K_CR, mass=0.0, friction=FR)
    traj = simulate_spring_block(sb, EvolutionLaw.AGEING, init=perturbed())
    x = np.abs(traj.v - FR.v_o)
    n = x.size
    assert not traj.blew_up
    assert np.max(x[-n // 10:]) < 1e-3 * np.max(x[: n // 10])


def test_soft_spring_runs_away():
    sb = SpringBlockParams(stiffness=0.5 * K_CR, mass=0.0, friction=FR)
    traj = simulate_spring_block(sb, EvolutionLaw.AGEING, init=perturbed())
    assert traj.blew_up
    # terminated early, well before the nominal duration
    assert traj.t[-1] < 200.0 * FR.L / FR.v_o


@pytest.mark.parametrize("law", [EvolutionLaw.AGEING, EvolutionLaw.SLIP])
def test_slip_and_ageing_agree_on_the_verdict(law):
    stiff = SpringBlockParams(stiffness=2.0 * K_CR, mass=0.0, friction=FR)
    traj = simulate_spring_block(stiff, law, init=perturbed())
    assert not traj.blew_up
    soft = SpringBlockParams(stiffness=0.5 * K_CR, mass=0.0, friction=FR)
    traj = simulate_spring_block(soft, law, init=perturbed())
    assert traj.blew_up


def test_metadata_and_sampling():
    sb = SpringBlockParams(stiffness=2.0 * K_CR, mass=0.0, friction=FR)
    traj = simulate_spring_block(sb, EvolutionLaw.SLIP, init=perturbed())
    md = traj.metadata
    assert md["law"] == "slip"
    assert md["stiffness"] == 2.0 * K_CR
    assert md["mass"] == 0.0
    assert md["blew_up"] is False
    assert md["nfev"] > 0
    assert np.all(np.diff(traj.t) > 0.0)
    assert traj.t.shape == traj.v.shape == traj.theta.shape == traj.tau.shape
    # dense enough to resolve the linear oscillation
    assert traj.t[1] - traj.t[0] <= 2.0 * np.pi / W_CR / 64.0


def test_massless_stress_follows_strength():
    sb = SpringBlockParams(stiffness=2.0 * K_CR, mass=0.0, friction=FR)
    traj = simulate_spring_block(sb, EvolutionLaw.AGEING, init=perturbed())
    for i in (0, len(traj.t) // 2, -1):
        assert traj.tau[i] == pytest.approx(
            friction_stress(FR, traj.v[i], traj.theta[i]), rel=1e-9)


def test_tolerance_convergence():
    sb = SpringBlockParams(stiffness=2.0 * K_CR, mass=0.0, friction=FR)
    ref = simulate_spring_block(sb, EvolutionLaw.AGEING, init=perturbed(),
                                tol=1e-12)
    errs = []
    for tol in (1e-6, 1e-8, 1e-10):
        traj = simulate_spring_block(sb, EvolutionLaw.AGEING, init=perturbed(),
                                     tol=tol)
        errs.append(np.max(np.abs(traj.v - ref.v)) / FR.v_o)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-11


def test_estimator_matches_linear_theory():
    k_est, w_est = estimate_critical_stiffness(FR, EvolutionLaw.AGEING)
    assert k_est == pytest.approx(K_CR, rel=0.02)
    assert w_est == pytest.approx(W_CR, rel=0.02)


def test_estimator_insensitive_to_perturbation_size(monkeypatch):
    assert simulate.ESTIMATE_PERTURBATION == 1e-3
    k1, _ = estimate_critical_stiffness(FR, EvolutionLaw.AGEING)
    monkeypatch.setattr(simulate, "ESTIMATE_PERTURBATION", 1e-2)
    k2, _ = estimate_critical_stiffness(FR, EvolutionLaw.AGEING)
    assert abs(k2 - k1) <= 5e-3 * k1


def test_estimator_rejects_strengthening():
    soft = RateState(a=0.01, b=0.008, L=1e-5, sigma_o=1e6, v_o=1e-3)
    with pytest.raises(VelocityStrengthening):
        estimate_critical_stiffness(soft, EvolutionLaw.AGEING)


@pytest.mark.parametrize("law", list(EvolutionLaw))
def test_slow_time_scale_keeps_the_error_control(law):
    """At v_o = 1e-303 the time scale L/v_o is 1e298 s, and every error term
    of a step squares to below the smallest float: such steps were accepted
    with error 0 and growing tenfold, until a trial step overflowed.  In
    units of v_o and L/v_o the run is the one at v_o = 1e-3, and it costs
    as many evaluations within 1%: the fallback starting step is measured
    in units of the span."""
    runs, nfev = [], []
    for v_o in (1e-3, 1e-303):
        fr = RateState(a=FR.a, b=FR.b, L=FR.L, sigma_o=FR.sigma_o, v_o=v_o)
        v0 = 1.001 * v_o
        init = BlockState(v=v0, theta=fr.L / v_o, tau=friction_stress(fr, v0, fr.L / v_o))
        traj = simulate_spring_block(SpringBlockParams(stiffness=K_CR, mass=0.0, friction=fr),
                                     law, init=init)
        runs.append((traj.t * (v_o / fr.L), traj.v / v_o, traj.theta * (v_o / fr.L)))
        nfev.append(traj.metadata["nfev"])
    (t, v, theta), (t_slow, v_slow, theta_slow) = runs
    assert abs(nfev[1] - nfev[0]) <= 0.01 * nfev[0]
    assert np.allclose(t, t_slow, rtol=1e-15, atol=0.0)
    assert np.max(np.abs(np.log(v / v_slow))) <= LN_TOL
    assert np.max(np.abs(np.log(theta / theta_slow))) <= LN_TOL


def _raising_rhs(monkeypatch, exception) -> list:
    """Rebind simulate._rhs so that every `exception` the right side raises
    is recorded, and re-raised, in the returned list."""
    raised = []
    rhs = simulate._rhs

    def recording(*args):
        fun = rhs(*args)

        def recorded(*y):
            try:
                return fun(*y)
            except exception as exc:
                raised.append(exc)
                raise
        return recorded
    monkeypatch.setattr(simulate, "_rhs", recording)
    return raised


def test_overflowing_trial_step_is_rejected(monkeypatch):
    # a light slip-law block on a soft spring overflows exp(u) in trial
    # steps; each used to end the run in StepFailure, and is now rejected
    # like a step whose error is too large, so the run reaches its end
    raised = _raising_rhs(monkeypatch, OverflowError)
    k_soft = 0.1 * spring_block_critical(FR, LIGHT_MASS)[0]
    sb = SpringBlockParams(stiffness=k_soft, mass=LIGHT_MASS, friction=FR)
    traj = simulate_spring_block(sb, EvolutionLaw.SLIP, init=perturbed(), tol=1e-8)
    assert raised
    assert not traj.blew_up and traj.t.size == 1442
    assert traj.metadata["nfev"] == 452_141
    assert np.max(traj.v) == pytest.approx(82.8 * FR.v_o, rel=1e-3)


def test_runaway_factor_halts_early(monkeypatch):
    sb = SpringBlockParams(stiffness=0.5 * K_CR, mass=0.0, friction=FR)
    full = simulate_spring_block(sb, EvolutionLaw.AGEING, init=perturbed())
    monkeypatch.setattr(simulate, "RUNAWAY_FACTOR", 1.01)
    capped = simulate_spring_block(sb, EvolutionLaw.AGEING, init=perturbed())
    assert capped.blew_up and full.blew_up
    assert capped.t[-1] < full.t[-1]
    assert np.max(capped.v) < 1.01 * FR.v_o
    assert capped.metadata["nfev"] < full.metadata["nfev"]
    # the prefix before the cap is the same trajectory
    n = capped.t.size
    assert np.array_equal(capped.t, full.t[:n])


@pytest.mark.parametrize("rel, factor", [(999999.0, simulate.RUNAWAY_FACTOR),
                                         (1e7, simulate.RUNAWAY_FACTOR),
                                         (0.02, 1.01)])
def test_start_at_the_runaway_threshold_is_domain_error(monkeypatch, rel, factor):
    # V0 = 1e6*v_o used to return a trajectory with no samples, and a start
    # above the threshold integrated on until a step overflowed
    sb = SpringBlockParams(stiffness=0.5 * K_CR, mass=0.0, friction=FR)
    monkeypatch.setattr(simulate, "RUNAWAY_FACTOR", factor)
    with pytest.raises(DomainError, match="runaway threshold"):
        simulate_spring_block(sb, EvolutionLaw.AGEING, init=perturbed(rel))


@pytest.mark.parametrize("law", list(EvolutionLaw))
@pytest.mark.parametrize("mass, theta, tau, text", [
    (0.0, math.inf, 0.0, "initial theta must be finite, got inf"),
    (INERTIAL_MASS, math.inf, 0.0, "initial theta must be finite, got inf"),
    (INERTIAL_MASS, 1e-2, math.nan, "initial tau must be finite with inertia, got nan"),
    (INERTIAL_MASS, 1e-2, math.inf, "initial tau must be finite with inertia, got inf"),
    (INERTIAL_MASS, 1e-2, -math.inf, "initial tau must be finite with inertia, got -inf"),
])
def test_unintegrable_start_is_domain_error(law, mass, theta, tau, text):
    # each used to spend MAX_EVALUATIONS at t = 0 and end in StepFailure
    sb = SpringBlockParams(stiffness=K_CR, mass=mass, friction=FR)
    init = BlockState(v=FR.v_o, theta=theta, tau=tau)
    with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
        simulate_spring_block(sb, law, init=init)


@pytest.mark.parametrize("law", list(EvolutionLaw))
def test_massless_start_ignores_tau(law):
    sb = SpringBlockParams(stiffness=2.0 * K_CR, mass=0.0, friction=FR)
    start = perturbed()
    ref = simulate_spring_block(sb, law, init=start, duration=10.0 * FR.L / FR.v_o)
    traj = simulate_spring_block(sb, law, init=BlockState(start.v, start.theta, math.nan),
                                 duration=10.0 * FR.L / FR.v_o)
    assert np.array_equal(traj.v, ref.v) and np.array_equal(traj.tau, ref.tau)


def test_estimator_on_light_slip_block():
    # the soft-end bracket run at this mass overflows exp(u) in trial steps
    # (test above); the seeded bracket never makes it
    k_est, w_est = estimate_critical_stiffness(FR, EvolutionLaw.SLIP,
                                               mass=LIGHT_MASS)
    assert k_est == pytest.approx(spring_block_critical(FR, LIGHT_MASS)[0], rel=0.02)
    assert w_est == pytest.approx(W_CR, rel=0.02)


@pytest.mark.parametrize("law, b, mass_factor", [
    # unstable at 0.1*K_cr: the soft-end check used to report no growth
    (EvolutionLaw.SLIP, 0.018, 0.2),
    (EvolutionLaw.SLIP, 0.0269, 0.30),
    # the 0.1*K_cr run fell into stick-slip and took minutes
    (EvolutionLaw.AGEING, 0.02, 0.2),
])
def test_estimator_on_inertial_blocks(law, b, mass_factor):
    fr = RateState(a=0.01, b=b, L=1e-5, sigma_o=1e6, v_o=1e-3)
    mass = mass_factor * mass_unit(fr)
    k_ref, w_ref = spring_block_critical(fr, mass)
    k_est, w_est = estimate_critical_stiffness(fr, law, mass=mass)
    assert k_est == pytest.approx(k_ref, rel=0.02)
    assert w_est == pytest.approx(w_ref, rel=0.02)


# The edges the run duration must hold: b/a = 1.02 and 1.05, where six
# linear periods outlast ESTIMATE_SPAN*L/v_o, and 3 and 10, where
# ESTIMATE_SPAN*L/v_o spans tens to a hundred and more periods.  Set before
# the duration was shortened: K within 0.5% of the closed form, omega within
# 0.1%.
@pytest.mark.parametrize("law", [EvolutionLaw.AGEING, EvolutionLaw.SLIP])
@pytest.mark.parametrize("b_over_a", [1.02, 1.05, 3.0, 10.0])
@pytest.mark.parametrize("mass_factor", [0.0, 0.5])
def test_estimator_accuracy_at_the_duration_edges(law, b_over_a, mass_factor):
    fr = RateState(a=FR.a, b=FR.a * b_over_a, L=FR.L, sigma_o=FR.sigma_o, v_o=FR.v_o)
    mass = mass_factor * mass_unit(fr)
    k_ref, w_ref = spring_block_critical(fr, mass)
    k_est, w_est = estimate_critical_stiffness(fr, law, mass=mass)
    assert k_est == pytest.approx(k_ref, rel=5e-3)
    assert w_est == pytest.approx(w_ref, rel=1e-3)


def test_omega_fit_skips_the_settling_peaks():
    """The maxima of a sinusoid of period 1 whose first two peaks come
    0.0955 late (a phase lag of 0.6 rad): the mean peak spacing,
    (last - first)/(n - 1), reads 0.9% short, while the least-squares fit
    without those two peaks recovers omega."""
    lag = 0.6 / (2.0 * np.pi)
    t_pk = np.array([lag, 1.0 + lag, *range(2, 12)], dtype=float)
    assert abs(1.0 / np.mean(np.diff(t_pk)) - 1.0) > 8e-3
    run = simulate._Run(K_CR, t_pk, np.full(t_pk.size, 1e-3 * FR.v_o), 1e-3 * FR.v_o,
                        12.0, 1e-3 * FR.v_o, False, 0)
    assert simulate._measure_omega(run, FR) == pytest.approx(2.0 * np.pi, rel=1e-9)


def _count_runs(monkeypatch) -> list:
    stiffnesses = []
    run = simulate._estimate_run

    def counted(sb, *args, **kwargs):
        stiffnesses.append(sb.stiffness)
        return run(sb, *args, **kwargs)
    monkeypatch.setattr(simulate, "_estimate_run", counted)
    return stiffnesses


@pytest.mark.parametrize("law", [EvolutionLaw.AGEING, EvolutionLaw.SLIP])
@pytest.mark.parametrize("mass", [0.0, INERTIAL_MASS])
def test_estimator_run_count(monkeypatch, law, mass):
    runs = _count_runs(monkeypatch)
    estimate_critical_stiffness(FR, law, mass=mass)
    assert len(runs) == 3


@pytest.mark.parametrize("mass", [0.0, INERTIAL_MASS])
def test_seed_does_not_steer_the_estimate(monkeypatch, mass):
    k_true, w_true = spring_block_critical(FR, mass)
    monkeypatch.setattr(simulate, "spring_block_critical",
                        lambda p, m=0.0: (3.0 * k_true, w_true))
    runs = _count_runs(monkeypatch)
    k_est, w_est = estimate_critical_stiffness(FR, EvolutionLaw.AGEING, mass=mass)
    assert k_est == pytest.approx(k_true, rel=0.02)
    assert w_est == pytest.approx(w_true, rel=0.02)
    # the bracket had to widen below the seeded [0.9, 1.1]*3*K_cr
    assert min(runs) < 0.9 * k_true


def test_unbracketed_seed_is_inconclusive(monkeypatch):
    k_true, w_true = spring_block_critical(FR)
    monkeypatch.setattr(simulate, "spring_block_critical",
                        lambda p, m=0.0: (20.0 * k_true, w_true))
    with pytest.raises(Inconclusive, match="no growth at the soft end"):
        estimate_critical_stiffness(FR, EvolutionLaw.AGEING)


def _synthetic_growth(monkeypatch, rate):
    """Bind rate(K/K_cr) (1/s) as the estimator's growth rate in place of
    the envelope fit, keyed on each run's stiffness; the runs stay real."""
    monkeypatch.setattr(simulate, "_growth_rate",
                        lambda run, p: rate(run.stiffness / K_CR))


def test_stiff_end_widens_until_it_decays(monkeypatch):
    # both seeded ends grow: the stiff end doubles once, then regula falsi
    # lands on the linear rate's zero
    _synthetic_growth(monkeypatch, lambda x: 1.5 - x)
    runs = _count_runs(monkeypatch)
    k_est, w_est = estimate_critical_stiffness(FR, EvolutionLaw.AGEING)
    assert k_est == pytest.approx(1.5 * K_CR, rel=1e-9)
    assert runs[:3] == [0.9 * K_CR, 1.1 * K_CR, 2.2 * K_CR]
    assert 0.0 < w_est < math.inf


def test_stiff_end_that_never_decays_is_inconclusive(monkeypatch):
    _synthetic_growth(monkeypatch, lambda x: 1.0)
    with pytest.raises(Inconclusive,
                       match=f"^no decay at the stiff end K = {10.0 * K_CR}$"):
        estimate_critical_stiffness(FR, EvolutionLaw.AGEING)


def test_narrow_bracket_gives_its_midpoint(monkeypatch):
    # a rate that jumps at 1.09*K_cr never enters the dead band: the soft end
    # is kept twice running (Illinois halves the stiff end's rate) and the
    # bracket closes to below 1e-3*K_cr, whose midpoint is then run afresh
    _synthetic_growth(monkeypatch, lambda x: 1.0 if x < 1.09 else -1.0)
    runs = _count_runs(monkeypatch)
    k_est, w_est = estimate_critical_stiffness(FR, EvolutionLaw.AGEING)
    assert abs(k_est - 1.09 * K_CR) < 1e-3 * K_CR
    assert runs[-1] == k_est and runs.count(k_est) == 1
    assert 0.0 < w_est < math.inf


def test_regula_falsi_step_budget_is_inconclusive(monkeypatch):
    _synthetic_growth(monkeypatch, lambda x: 1.0 if x < 1.09 else -1.0)
    monkeypatch.setattr(simulate, "ESTIMATE_MAX_STEPS", 2)
    with pytest.raises(Inconclusive, match="^regula falsi spent 2 steps without "
                                           "entering the dead band$"):
        estimate_critical_stiffness(FR, EvolutionLaw.AGEING)


def test_capped_estimate_run_is_rerun_uncapped(monkeypatch):
    # the neutral seeded soft end at 0.9*K_cr grew into the estimator's cap,
    # so the frequency comes from a second run there at RUNAWAY_FACTOR
    _synthetic_growth(monkeypatch, lambda x: 0.9 - x)
    runs = _count_runs(monkeypatch)
    k_est, w_est = estimate_critical_stiffness(FR, EvolutionLaw.AGEING)
    assert k_est == 0.9 * K_CR
    assert runs == [k_est, 1.1 * K_CR, k_est]
    assert 0.0 < w_est < math.inf


def test_too_few_peaks_at_the_estimate_is_inconclusive(monkeypatch):
    # at 0.3*K_cr the uncapped run reaches runaway within two peaks
    _synthetic_growth(monkeypatch, lambda x: 0.3 - x)
    with pytest.raises(Inconclusive,
                       match="^too few oscillation peaks to measure a period$"):
        estimate_critical_stiffness(FR, EvolutionLaw.AGEING)


@pytest.mark.parametrize("p, mass, text", [
    (RateState(a=0.01, b=0.015, L=1e-300, sigma_o=1e300, v_o=1e-3), 0.0,
     "sigma_o*(b-a)/L overflows to inf"),
    (RateState(a=0.01, b=0.015, L=1e-5, sigma_o=1e300, v_o=1e-3), 1e305,
     "K_cr*(1 + inertia) overflows to inf"),
    (RateState(a=0.01, b=0.015, L=1e300, sigma_o=1e6, v_o=1e-7), 0.0,
     "the estimator's run duration max(ESTIMATE_SPAN, 6 periods)*L/v_o overflows to inf"),
])
def test_estimator_names_an_overflowing_critical_value(p, mass, text):
    with pytest.raises(DomainError, match=f"^{re.escape(text)} "):
        estimate_critical_stiffness(p, EvolutionLaw.AGEING, mass=mass)


def test_integrator_hook_is_the_module_global(monkeypatch):
    """simulate_spring_block calls the module-level solve_ivp at run time,
    once per run, so rebinding it (as a tracer does) sees every integration
    and changes no sample."""
    sb = SpringBlockParams(stiffness=2.0 * K_CR, mass=0.0, friction=FR)
    plain = simulate_spring_block(sb, EvolutionLaw.AGEING, init=perturbed())
    calls = []
    original = simulate.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)
    monkeypatch.setattr(simulate, "solve_ivp", counted)
    traced = simulate_spring_block(sb, EvolutionLaw.AGEING, init=perturbed())
    assert len(calls) == 1 and callable(calls[0])
    for name in ("t", "v", "theta", "tau"):
        assert np.array_equal(getattr(traced, name), getattr(plain, name))
    assert traced.metadata == plain.metadata


@pytest.mark.parametrize("error, text", [(OverflowError, "overflowed"),
                                         (ZeroDivisionError, "underflowed")])
def test_error_outside_a_trial_step_is_step_failure(monkeypatch, error, text):
    """An overflow or a division by an underflowed zero that escapes the
    integrator (at the start, or in an interpolant) raises StepFailure
    without a state, with the original error chained."""
    def raising(*_args, **_kwargs):
        raise error("math range error")
    monkeypatch.setattr(simulate, "solve_ivp", raising)
    sb = SpringBlockParams(stiffness=2.0 * K_CR, mass=0.0, friction=FR)
    with pytest.raises(StepFailure) as exc:
        simulate_spring_block(sb, EvolutionLaw.AGEING, init=perturbed())
    assert str(exc.value) == f"integrator step {text}: math range error"
    assert exc.value.last_state is None
    assert isinstance(exc.value.__cause__, error)


def test_evaluation_budget_bounds_each_run(monkeypatch):
    """A run may use exactly MAX_EVALUATIONS right-side evaluations; one
    fewer raises StepFailure carrying the last accepted state."""
    sb = SpringBlockParams(stiffness=2.0 * K_CR, mass=0.0, friction=FR)
    plain = simulate_spring_block(sb, EvolutionLaw.AGEING, init=perturbed())
    nfev = plain.metadata["nfev"]
    assert nfev < simulate.MAX_EVALUATIONS
    monkeypatch.setattr(simulate, "MAX_EVALUATIONS", nfev)
    exact = simulate_spring_block(sb, EvolutionLaw.AGEING, init=perturbed())
    assert np.array_equal(exact.v, plain.v) and exact.metadata == plain.metadata
    monkeypatch.setattr(simulate, "MAX_EVALUATIONS", nfev - 1)
    with pytest.raises(StepFailure, match="evaluation budget") as exc:
        simulate_spring_block(sb, EvolutionLaw.AGEING, init=perturbed())
    last = exc.value.last_state
    assert isinstance(last, BlockState)
    # the stiff spring damps the perturbation, so by the last step the block
    # slides near steady state
    assert abs(last.v / FR.v_o - 1.0) < 1e-3
    assert last.tau == pytest.approx(friction_stress(FR, last.v, last.theta), rel=1e-12)


# (K, omega) of the four ODE-oracle gate cases, as repr, and the evaluation
# count of each estimator run, at the tolerance 1e-8 and the run duration
# 200*L/v_o the estimator used before ESTIMATE_TOL and ESTIMATE_SPAN; the
# generated kernels must repeat the arithmetic bit for bit.  Re-recorded
# when the runs stopped sampling a grid and the fits moved to the maxima of
# V located on the interpolant: the estimates moved by at most 9.5e-8 in K
# and 1.2e-7 in omega (relative), and the runs take 16-17% fewer
# evaluations (they were [1415, 3140, 3494], [2675, 3341, 3713],
# [1415, 3140, 3521] and [2573, 3341, 3701]).  Once the maxima runs stopped
# building interpolants for output times, every run took 6 fewer, the
# estimates unchanged: [1184, 2636, 2885], [2237, 2804, 3113],
# [1184, 2636, 2909] and [2162, 2804, 3101] before.
PINNED_ESTIMATES = [
    (EvolutionLaw.AGEING, 0.0,
     "(500077990.1390331, 70.71618563593975)", [1178, 2630, 2879]),
    (EvolutionLaw.AGEING, INERTIAL_MASS,
     "(749731368.326954, 70.69666818202816)", [2231, 2798, 3107]),
    (EvolutionLaw.SLIP, 0.0,
     "(500094426.4527028, 70.71734317568941)", [1178, 2630, 2903]),
    (EvolutionLaw.SLIP, INERTIAL_MASS,
     "(749736760.3957808, 70.69694811996558)", [2156, 2798, 3095]),
]


# The same at ESTIMATE_TOL = 1e-7: every case still takes three runs.
# Re-recorded with the maxima: the estimates moved by at most 9.8e-8 in K
# and 1.3e-7 in omega (relative) from the grid's, whose runs took
# [1187, 2609, 3050], [2171, 2729, 2963], [1187, 2609, 3086] and
# [2159, 2729, 2951] evaluations.  With no interpolant for output times,
# every run takes 6 fewer, the estimates unchanged: [1016, 2240, 2597],
# [1853, 2336, 2525], [1016, 2240, 2633] and [1841, 2336, 2513] before.
PINNED_ESTIMATES_AT_1E7 = [
    (EvolutionLaw.AGEING, 0.0,
     "(500078004.2701472, 70.71618622567365)", [1010, 2234, 2591]),
    (EvolutionLaw.AGEING, INERTIAL_MASS,
     "(749731357.9183869, 70.69666588323801)", [1847, 2330, 2519]),
    (EvolutionLaw.SLIP, 0.0,
     "(500094433.3558364, 70.71734314125544)", [1010, 2234, 2627]),
    (EvolutionLaw.SLIP, INERTIAL_MASS,
     "(749741108.6563487, 70.69717340818532)", [1835, 2330, 2507]),
]


# The same at the run duration ESTIMATE_SPAN*L/v_o = 100*L/v_o (the four
# cases have b/a = 1.5, so six linear periods are shorter): still three
# runs each.  Re-recorded with the maxima: the estimates moved by at most
# 1.6e-7 in K and 8.9e-8 in omega (relative) from the grid's, whose runs
# took [1187, 1430, 1526], [1535, 1511, 1526], [1187, 1430, 1526] and
# [1523, 1511, 1514] evaluations.  With no interpolant for output times,
# each run takes 6 fewer, or 3 where its last step holds a maximum, the
# estimates unchanged: [1016, 1220, 1301], [1313, 1292, 1304],
# [1016, 1220, 1301] and [1301, 1292, 1292] before.
PINNED_ESTIMATES_AT_SPAN = [
    (EvolutionLaw.AGEING, 0.0,
     "(500074379.1697638, 70.71592990341838)", [1010, 1214, 1298]),
    (EvolutionLaw.AGEING, INERTIAL_MASS,
     "(749716264.2994142, 70.69588249512134)", [1307, 1286, 1298]),
    (EvolutionLaw.SLIP, 0.0,
     "(500090127.11475474, 70.71703873859532)", [1010, 1214, 1298]),
    (EvolutionLaw.SLIP, INERTIAL_MASS,
     "(749722853.7117345, 70.69622382233119)", [1295, 1286, 1286]),
]


def _pin_ids(table) -> list[str]:
    """Test ids from the law and the mass only, so that a re-recorded
    estimate keeps its test's name."""
    return [f"{law.value}-{'inertial' if mass else 'massless'}" for law, mass, *_ in table]


def _counted_estimate(monkeypatch, law, mass) -> tuple[str, list[int]]:
    """repr of the estimate and the evaluation count of each of its runs."""
    counts = []
    estimate_run = simulate._estimate_run

    def counted(*args, **kwargs):
        run = estimate_run(*args, **kwargs)
        counts.append(run.nfev)
        return run
    monkeypatch.setattr(simulate, "_estimate_run", counted)
    return repr(estimate_critical_stiffness(FR, law, mass=mass)), counts


@pytest.mark.parametrize("law, mass, estimate, nfev", PINNED_ESTIMATES,
                         ids=_pin_ids(PINNED_ESTIMATES))
def test_estimator_is_bit_identical(monkeypatch, law, mass, estimate, nfev):
    monkeypatch.setattr(simulate, "ESTIMATE_TOL", 1e-8)
    monkeypatch.setattr(simulate, "ESTIMATE_SPAN", 200.0)
    assert _counted_estimate(monkeypatch, law, mass) == (estimate, nfev)


@pytest.mark.parametrize("law, mass, estimate, nfev", PINNED_ESTIMATES_AT_1E7,
                         ids=_pin_ids(PINNED_ESTIMATES_AT_1E7))
def test_estimator_at_estimate_tol_is_pinned(monkeypatch, law, mass, estimate, nfev):
    assert simulate.ESTIMATE_TOL == 1e-7
    monkeypatch.setattr(simulate, "ESTIMATE_SPAN", 200.0)
    assert _counted_estimate(monkeypatch, law, mass) == (estimate, nfev)


@pytest.mark.parametrize("law, mass, estimate, nfev", PINNED_ESTIMATES_AT_SPAN,
                         ids=_pin_ids(PINNED_ESTIMATES_AT_SPAN))
def test_estimator_at_estimate_span_is_pinned(monkeypatch, law, mass, estimate, nfev):
    assert (simulate.ESTIMATE_TOL, simulate.ESTIMATE_SPAN) == (1e-7, 100.0)
    assert _counted_estimate(monkeypatch, law, mass) == (estimate, nfev)


# The budget that sets ESTIMATE_TOL: on an estimator run (its tolerance,
# duration and cap) the growth rate sigma at ESTIMATE_TOL differs from
# sigma at 1e-11 by at most 10% of the dead band 1e-4*v_o/L.  The cases
# are the four ODE-oracle gate cases and massless blocks at b/a = 1.05 and
# 3, at 0.9, 1 and 1.1 times K_cr.  The budget is measured for b/a <= 3
# only: at b/a = 10 it does not hold (see simulate.ESTIMATE_TOL).
BUDGET_CASES = [(law, b_over_a, mass_factor)
                for law in EvolutionLaw
                for b_over_a, mass_factor in ((1.5, 0.0), (1.5, 0.5), (1.05, 0.0),
                                              (3.0, 0.0))]


@pytest.mark.parametrize("law, b_over_a, mass_factor", BUDGET_CASES)
def test_estimate_tol_keeps_the_growth_rate_within_its_budget(law, b_over_a,
                                                              mass_factor):
    fr = RateState(a=FR.a, b=FR.a * b_over_a, L=FR.L, sigma_o=FR.sigma_o, v_o=FR.v_o)
    mass = mass_factor * mass_unit(fr)
    budget = 0.1 * 1e-4 * fr.v_o / fr.L
    v0 = 1.001 * fr.v_o
    init = BlockState(v=v0, theta=fr.L / fr.v_o, tau=friction_stress(fr, v0, fr.L / fr.v_o))
    cap = math.exp(simulate.CAP_GROWTH * abs(math.log1p(1e-3)))
    duration = simulate._estimate_duration(fr)
    k_ref = spring_block_critical(fr, mass)[0]
    for factor in (0.9, 1.0, 1.1):
        sb = SpringBlockParams(stiffness=factor * k_ref, mass=mass, friction=fr)
        sigma = [simulate._growth_rate(simulate._estimate_run(
                     sb, law, init, duration, tol, cap), fr)
                 for tol in (simulate.ESTIMATE_TOL, 1e-11)]
        assert abs(sigma[0] - sigma[1]) <= budget, factor


# Prints the number of kernel pairs built after `import slipstab`, after a
# kcr and a sweep through the CLI, after two massless runs and after one
# run with inertia.
_KERNEL_BUILDS = """
import json
from slipstab import (RateState, EvolutionLaw, SpringBlockParams, _dop853, cli,
                      simulate_spring_block, spring_block_critical)
built = [_dop853._kernels.cache_info().currsize]
assert cli.main(["kcr", "--q", "1", "--b-over-a", "1.2", "--speed-ratio", "1.2"]) == 0
assert cli.main(["sweep", "--q-min", "0.5", "--q-max", "2.0", "--q-points", "5",
                 "--b-over-a", "1.2", "--speed-ratio", "1.2", "--out", "sweep.csv"]) == 0
built.append(_dop853._kernels.cache_info().currsize)
fr = RateState(a=0.01, b=0.015, L=1e-5, sigma_o=1e6, v_o=1e-3)
for mass in (0.0, 0.0, 5e4):
    sb = SpringBlockParams(stiffness=spring_block_critical(fr, mass)[0], mass=mass,
                           friction=fr)
    simulate_spring_block(sb, EvolutionLaw.AGEING)
    built.append(_dop853._kernels.cache_info().misses)
print(json.dumps(built))
"""


def test_kernels_are_built_once_per_state_count_on_first_use(tmp_path):
    """Commands that integrate nothing build no kernel, so importing slipstab
    and the neutral-mode commands do not pay for the code generation; each
    state count is built once, by its first integration."""
    proc = subprocess.run(
        [sys.executable, "-c", _KERNEL_BUILDS], cwd=tmp_path, capture_output=True,
        text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(slipstab.__file__).parents[1])})
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 1, 1, 2]


def test_step_underflow_stops_the_integrator():
    # at t = 1e15 the minimum step, 10 ulp(t), is 1.25, far longer than a
    # decay rate of 1e6 allows, so every trial step is rejected until the
    # step falls below it
    sol = _dop853.solve_ivp(lambda y: (-1e6 * y,), [1e15, 1e15 + 1e3],
                            [1.0], 1e-8, 1e-11, 10.0, simulate.MAX_EVALUATIONS)
    assert sol.failure.startswith("step size") and "below 10 ulp" in sol.failure
    assert sol.y_end == [1.0] and len(sol.y) == 1 and len(sol.y[0]) == 0
    assert not sol.capped and sol.nfev < 100


def test_underflowing_trial_step_is_rejected(monkeypatch):
    # m*v_o*exp(u) underflows to 0 in a trial step of this heavy, stiff
    # slip-law block; that used to end the run in StepFailure, and the step
    # is now rejected and retried shorter
    raised = _raising_rhs(monkeypatch, ZeroDivisionError)
    sb = SpringBlockParams(stiffness=5.0025e8, mass=50.0, friction=FR)
    init = BlockState(v=1.001e-3, theta=1e-2, tau=friction_stress(FR, 1.001e-3, 1e-2))
    traj = simulate_spring_block(sb, EvolutionLaw.SLIP, init=init, tol=1e-10,
                                 duration=2e-3)
    assert raised
    assert not traj.blew_up and traj.t.size == 401 and traj.t[-1] == 2e-3
    assert traj.metadata["nfev"] == 2210


def digest(*arrays):
    """SHA-256 of the float64 bytes of the arrays, one after the other."""
    return hashlib.sha256(b"".join(np.asarray(a, dtype=np.float64).tobytes()
                                   for a in arrays)).hexdigest()


# SHA-256 of the t, v, theta and tau bytes of the estimator's soft bracket
# run on each ODE-oracle gate case (0.9 K_cr, stopped at the estimator's
# cap, at the tolerance 1e-8 the estimator used then), recorded from the
# integrator that evaluated each step's interpolant as it went: the last
# step's samples stop at the cap.
PINNED_CAPPED_RUNS = [
    (EvolutionLaw.AGEING, 0.0, 545,
     "95846af353af8ad41ad786344e368338308c8c83744d8f6cd342e2c337143b44"),
    (EvolutionLaw.AGEING, INERTIAL_MASS, 1022,
     "a83f4bace02192441e167da196b9e3ff4167132d07ef2d2241971d53731dcb80"),
    (EvolutionLaw.SLIP, 0.0, 545,
     "9fd0ad69a82be60b1a72438b30b30f7b5a06dc02edc91beaa8193b9b2448a8bf"),
    (EvolutionLaw.SLIP, INERTIAL_MASS, 959,
     "c8a77bbeae8822893bfe0803e1c8b7894c532c740ea3599792d758f76da42909"),
]


@pytest.mark.parametrize("law, mass, samples, sha256", PINNED_CAPPED_RUNS)
def test_capped_run_is_bit_identical(monkeypatch, law, mass, samples, sha256):
    sb = SpringBlockParams(stiffness=0.9 * spring_block_critical(FR, mass)[0],
                           mass=mass, friction=FR)
    cap = math.exp(simulate.CAP_GROWTH * abs(math.log1p(1e-3)))
    monkeypatch.setattr(simulate, "RUNAWAY_FACTOR", cap)
    traj = simulate_spring_block(sb, law, init=perturbed(), tol=1e-8)
    assert traj.blew_up and traj.t.size == samples
    assert digest(traj.t, traj.v, traj.theta, traj.tau) == sha256


def _stiff_block_run(t_eval, max_nfev=simulate.MAX_EVALUATIONS):
    """A perturbed massless ageing block on 2 K_cr, over 200 L/v_o."""
    rhs = simulate._rhs(FR, 2.0 * K_CR, 0.0, EvolutionLaw.AGEING)
    return _dop853.solve_ivp(rhs, t_eval, [math.log(1.001), 0.0], 1e-8, 1e-11,
                             100.0, max_nfev)


DURATION = 200.0 * FR.L / FR.v_o
DENSE_T = np.linspace(0.0, DURATION, 2001).tolist()


def test_sparse_output_is_bit_identical():
    """Six output times, far fewer than the steps.  Both runs take the same
    steps (they end in the same state), and the sparse one builds the
    interpolant (3 evaluations) only on the steps that hold an output
    time, 69 fewer than the run with 2001.  The samples and nfev were
    recorded from the integrator that evaluated each interpolant as it
    went."""
    sparse = _stiff_block_run([i * DURATION / 5 for i in range(6)])
    dense = _stiff_block_run(DENSE_T)
    assert sparse.failure is None and dense.failure is None
    assert (sparse.nfev, dense.nfev) == (980, 980 + 3 * 69)
    assert sparse.y_end == dense.y_end
    assert digest(sparse.y) == (
        "0556b3ca6dda083ef56ead0a7f44245be7f76185ab54eb56088cfb847340ed0a")


def test_budget_stop_keeps_the_sample_prefix():
    """A run stopped by its evaluation budget returns the samples of every
    step it completed, bit for bit as recorded from the integrator that
    evaluated each interpolant as it went, and they are a prefix of the
    full run's."""
    full = _stiff_block_run(DENSE_T)
    cut = _stiff_block_run(DENSE_T, max_nfev=593)
    assert cut.failure == "evaluation budget 593 spent at t = 0.360472941782686"
    assert cut.nfev == 587 and cut.y.shape == (2, 361)
    assert digest(cut.y) == (
        "f86cfd89c014937dc8b049f55076e1e6f691f371f65cfa4c549c4c6ad97f9606")
    assert np.array_equal(cut.y, full.y[:, :361])


def _protocol_runs():
    """(right side, start, cap) for n = 1, 2 and 3 states over 200 L/v_o:
    an exponential decay, and the perturbed ageing block on K_cr without
    and with mass, both oscillating."""
    yield pytest.param(lambda y: (-FR.v_o / FR.L * y,), [1.0], 10.0, id="n1")
    for mass, name in ((0.0, "n2"), (INERTIAL_MASS, "n3")):
        sb = SpringBlockParams(stiffness=spring_block_critical(FR, mass)[0], mass=mass,
                               friction=FR)
        rhs, y0, cap = simulate._start(sb, EvolutionLaw.AGEING, perturbed(), DURATION,
                                       1e-8, simulate.RUNAWAY_FACTOR)
        yield pytest.param(rhs, y0, cap, id=name)


@pytest.mark.parametrize("maxima", [False, True], ids=["sampled", "maxima"])
@pytest.mark.parametrize("fun, y0, cap", _protocol_runs())
def test_right_side_gets_the_states_as_floats_and_no_time(fun, y0, cap, maxima):
    """Every call of the right side, at the start, in the steps and in the
    interpolants, passes the n states as positional floats and nothing
    else; on a run where no trial step raises, the calls are Solution.nfev."""
    calls = []

    def recorded(*y):
        calls.append(y)
        return fun(*y)
    sol = _dop853.solve_ivp(recorded, DENSE_T, y0, 1e-8, 1e-11, cap,
                            simulate.MAX_EVALUATIONS, maxima=maxima)
    assert sol.failure is None and not sol.capped
    assert len(calls) == sol.nfev
    assert all(len(y) == len(y0) and all(type(v) is float for v in y) for y in calls)
    if maxima and len(y0) > 1:   # the interpolants were evaluated too
        assert sol.maxima.shape[1] > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernels_form_no_stage_time_and_no_state_list(n):
    """The generated step and dense output call the autonomous right side
    12 and 3 times on float expressions: no time, no list."""
    for source, calls in ((_dop853._step_source(n), 12), (_dop853._dense_source(n), 3)):
        names = {token.string for token in
                 tokenize.generate_tokens(io.StringIO(source).readline)
                 if token.type == tokenize.NAME}
        assert not names & {"t", "t_new", "t_old"}
        assert "[" not in source and source.count("fun(") == calls


# Agreement with scipy's DOP853, which the integrator reproduces step for
# step.  Set before the integrator was tuned: equal evaluation counts and
# sample times, |d ln V| and |d ln theta| within 1e-9, tau within 1e-11
# relative.
LN_TOL = 1e-9
TAU_TOL = 1e-11


def scipy_dop853(fun, t_eval, y0, rtol, atol, cap, max_nfev, maxima=False):
    """simulate.solve_ivp's contract for a sampled run, on
    scipy.integrate.solve_ivp."""
    from scipy.integrate import solve_ivp
    assert not maxima

    def runaway(_t, y):
        return y[0] - cap
    runaway.terminal = True
    runaway.direction = 1.0
    sol = solve_ivp(lambda _t, y: fun(*y), (t_eval[0], t_eval[-1]), y0, method="DOP853",
                    t_eval=t_eval, rtol=rtol, atol=atol, events=runaway)
    assert sol.status >= 0, sol.message
    return _dop853.Solution([list(c) for c in sol.y], list(sol.y[:, -1]),
                            sol.nfev, sol.status == 1, None, float(sol.t[-1]), None)


def _gate_runs():
    """The estimator's seeded bracket runs on the ODE-oracle gate cases."""
    cap = math.exp(simulate.CAP_GROWTH * abs(math.log1p(1e-3)))
    for law in EvolutionLaw:
        for mass in (0.0, INERTIAL_MASS):
            k_ref = spring_block_critical(FR, mass)[0]
            for factor in (0.9, 1.1):
                yield pytest.param(
                    SpringBlockParams(stiffness=factor * k_ref, mass=mass, friction=FR),
                    law, perturbed(), simulate.ESTIMATE_TOL, cap,
                    id=f"{law.value}-m{mass:g}-K{factor}")
    # the README's `slipstab simulate` example
    v0 = 1.001 * FR.v_o
    yield pytest.param(
        SpringBlockParams(stiffness=5e8, mass=0.0, friction=FR), EvolutionLaw.AGEING,
        BlockState(v=v0, theta=FR.L / FR.v_o,
                   tau=friction_stress(FR, FR.v_o, FR.L / FR.v_o)),
        1e-10, simulate.RUNAWAY_FACTOR, id="readme")


@pytest.mark.parametrize("sb, law, init, tol, runaway_factor", _gate_runs())
def test_integrator_matches_scipy_dop853(monkeypatch, sb, law, init, tol,
                                         runaway_factor):
    pytest.importorskip("scipy.integrate")
    monkeypatch.setattr(simulate, "RUNAWAY_FACTOR", runaway_factor)
    ours = simulate_spring_block(sb, law, init=init, tol=tol)
    monkeypatch.setattr(simulate, "solve_ivp", scipy_dop853)
    ref = simulate_spring_block(sb, law, init=init, tol=tol)
    assert ours.metadata == ref.metadata
    assert np.array_equal(ours.t, ref.t)
    assert np.max(np.abs(np.log(ours.v / ref.v))) <= LN_TOL
    assert np.max(np.abs(np.log(ours.theta / ref.theta))) <= LN_TOL
    assert np.max(np.abs(ours.tau / ref.tau - 1.0)) <= TAU_TOL


@pytest.mark.parametrize("sb, law, init, tol, runaway_factor",
                         [run for run in _gate_runs() if run.id != "readme"])
def test_maxima_run_samples_nothing(sb, law, init, tol, runaway_factor):
    """A maxima run over the estimator's duration takes the steps of the
    sampled run with the same arguments and ends where it ends, returns no
    sample, and builds an interpolant (3 evaluations) only in the steps that
    hold a maximum: none for the output times or the crossing."""
    duration = simulate._estimate_duration(FR)
    rhs, y0, cap = simulate._start(sb, law, init, duration, tol, runaway_factor)
    args = (rhs, [0.0, duration], y0, tol, tol * 1e-3, cap, simulate.MAX_EVALUATIONS)
    sampled = _dop853.solve_ivp(*args)
    located = _dop853.solve_ivp(*args, maxima=True)
    assert located.failure is None and sampled.failure is None
    assert located.capped == sampled.capped
    assert [v.hex() for v in (located.t_end, *located.y_end)] == [
        v.hex() for v in (sampled.t_end, *sampled.y_end)]
    assert located.y.shape == (len(y0), 0)
    assert located.maxima.shape[1] > 0
    assert (located.nfev - 2 - 3 * located.maxima.shape[1]) % 12 == 0


def _cubic_row():
    """P(x) - y_old = x*(1 - x)*(1 + 0.3*x) = x - 0.7*x^2 - 0.3*x^3: slope 1 at
    x = 0 and -1.3 at x = 1, maximum at the root of 1 - 1.4*x - 0.9*x^2."""
    return (0.0, 1.0, 0.3, 0.0, 0.0, 0.0, 0.0), (math.sqrt(5.56) - 1.4) / 1.8


def _septic_row():
    """Seven nonzero coefficients, the maximum found by mpmath at 50 digits
    on the same nested form."""
    mpmath = pytest.importorskip("mpmath")
    f = (0.2, 0.9, -0.4, 0.7, -0.3, 0.5, -0.8)

    def p(x):
        xm = 1 - x
        return ((((((f[6] * x + f[5]) * xm + f[4]) * x + f[3]) * xm + f[2]) * x
                 + f[1]) * xm + f[0]) * x
    with mpmath.workdps(50):
        return f, float(mpmath.findroot(lambda x: mpmath.diff(p, x), 0.5))


@pytest.mark.parametrize("row", [_cubic_row, _septic_row])
def test_argmax_locates_a_known_maximum(row):
    f, x_max = row()
    _, slope0, _ = _dop853._interpolant(0.0, 0.0, f)
    _, slope1, _ = _dop853._interpolant(1.0, 0.0, f)
    assert slope0 > 0.0 >= slope1
    assert abs(_dop853._argmax(f, slope0, slope1) - x_max) <= 1e-12


def _grid_maxima(v):
    """The local maxima of the samples v."""
    return v[np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:])) + 1]


def _maxima_cases():
    """Estimator runs (law, b/a, mass in a*sigma_o*L/v_o^2, K/K_cr) on the
    four ODE-oracle gate cases at 0.9, 1 and 1.1 K_cr, and on seeded
    massless blocks."""
    for law in EvolutionLaw:
        for mass_factor in (0.0, 0.5):
            for factor in (0.9, 1.0, 1.1):
                yield pytest.param(law, 1.5, mass_factor, factor,
                                   id=f"gate-{law.value}-m{mass_factor}-K{factor}")
    rng = np.random.default_rng(28)
    for i in range(6):
        law = list(EvolutionLaw)[i % 2]
        b_over_a, factor = rng.uniform(1.1, 3.0), rng.uniform(0.9, 1.1)
        yield pytest.param(law, float(b_over_a), 0.0, float(factor),
                           id=f"seeded-{law.value}-{b_over_a:.3f}-K{factor:.3f}")


@pytest.mark.parametrize("law, b_over_a, mass_factor, factor", _maxima_cases())
def test_located_maxima_match_the_sampled_ones(monkeypatch, law, b_over_a, mass_factor,
                                               factor):
    """The run takes the steps of the sampled run with the same arguments,
    so each located maximum sits on the interpolant the samples are taken
    from: it is as high as any sample near it, and the maxima above each
    fit's floor are as many as the grid's."""
    fr = RateState(a=FR.a, b=FR.a * b_over_a, L=FR.L, sigma_o=FR.sigma_o, v_o=FR.v_o)
    mass = mass_factor * mass_unit(fr)
    v0 = (1.0 + simulate.ESTIMATE_PERTURBATION) * fr.v_o
    init = BlockState(v=v0, theta=fr.L / fr.v_o, tau=friction_stress(fr, v0, fr.L / fr.v_o))
    cap = math.exp(simulate.CAP_GROWTH * math.log1p(simulate.ESTIMATE_PERTURBATION))
    duration = simulate._estimate_duration(fr)
    sb = SpringBlockParams(stiffness=factor * spring_block_critical(fr, mass)[0],
                           mass=mass, friction=fr)
    run = simulate._estimate_run(sb, law, init, duration, simulate.ESTIMATE_TOL, cap)
    monkeypatch.setattr(simulate, "RUNAWAY_FACTOR", cap)
    traj = simulate_spring_block(sb, law, init=init, duration=duration,
                                 tol=simulate.ESTIMATE_TOL)
    x_grid = _grid_maxima(traj.v) - fr.v_o
    x_start = traj.v[0] - fr.v_o
    for floor in (max(1e-11 * fr.v_o, 1e-4 * abs(x_start)), 1e-12 * fr.v_o):
        assert np.count_nonzero(run.x_peak > floor) == np.count_nonzero(x_grid > floor)
    dt_out = traj.t[1] - traj.t[0]
    for t_pk, x_pk in zip(run.t_peak, run.x_peak):
        v_near = traj.v[np.abs(traj.t - t_pk) <= dt_out]
        assert x_pk + fr.v_o >= np.max(v_near) * (1.0 - 1e-12)


@pytest.mark.parametrize("run", [
    # steady sliding: no maximum, and V - v_o is 0 at both ends
    lambda: simulate._estimate_run(
        SpringBlockParams(stiffness=K_CR, mass=0.0, friction=FR), EvolutionLaw.AGEING,
        BlockState(v=FR.v_o, theta=FR.L / FR.v_o, tau=FR.tau_o),
        simulate._estimate_duration(FR), simulate.ESTIMATE_TOL, 1.01),
    # a run with no span
    lambda: simulate._Run(K_CR, np.empty(0), np.empty(0), 1e-3 * FR.v_o, 0.0,
                          1e-2 * FR.v_o, True, 0),
], ids=["steady", "no-span"])
def test_growth_rate_without_a_deviation_or_a_span_is_inconclusive(run):
    with pytest.raises(Inconclusive, match="^no growth rate: "):
        simulate._growth_rate(run(), FR)
