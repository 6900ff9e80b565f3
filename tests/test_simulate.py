"""Nonlinear spring-block integration and the stiffness estimator."""

from __future__ import annotations

import math

import numpy as np
import pytest

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


def test_estimator_insensitive_to_perturbation_size():
    k1, _ = estimate_critical_stiffness(FR, EvolutionLaw.AGEING,
                                        perturbation=1e-3)
    k2, _ = estimate_critical_stiffness(FR, EvolutionLaw.AGEING,
                                        perturbation=1e-2)
    assert abs(k2 - k1) <= 5e-3 * k1


def test_estimator_rejects_strengthening():
    soft = RateState(a=0.01, b=0.008, L=1e-5, sigma_o=1e6, v_o=1e-3)
    with pytest.raises(VelocityStrengthening):
        estimate_critical_stiffness(soft, EvolutionLaw.AGEING)


def test_overflowing_step_raises_step_failure():
    # a light slip-law block on a soft spring overflows exp(u) in a trial
    # step; that used to escape as a bare OverflowError
    k_soft = 0.1 * spring_block_critical(FR, LIGHT_MASS)[0]
    sb = SpringBlockParams(stiffness=k_soft, mass=LIGHT_MASS, friction=FR)
    with pytest.raises(StepFailure, match="integrator step overflowed"):
        simulate_spring_block(sb, EvolutionLaw.SLIP, init=perturbed(), tol=1e-8)


def test_runaway_factor_halts_early():
    sb = SpringBlockParams(stiffness=0.5 * K_CR, mass=0.0, friction=FR)
    full = simulate_spring_block(sb, EvolutionLaw.AGEING, init=perturbed())
    capped = simulate_spring_block(sb, EvolutionLaw.AGEING, init=perturbed(),
                                   runaway_factor=1.01)
    assert capped.blew_up and full.blew_up
    assert capped.t[-1] < full.t[-1]
    assert np.max(capped.v) < 1.01 * FR.v_o
    assert capped.metadata["nfev"] < full.metadata["nfev"]
    # the prefix before the cap is the same trajectory
    n = capped.t.size
    assert np.array_equal(capped.t, full.t[:n])


@pytest.mark.parametrize("factor", [1.0, 0.5, float("nan")])
def test_runaway_factor_validation(factor):
    sb = SpringBlockParams(stiffness=K_CR, mass=0.0, friction=FR)
    with pytest.raises(DomainError):
        simulate_spring_block(sb, EvolutionLaw.AGEING, runaway_factor=factor)


def test_estimator_rejects_zero_perturbation():
    with pytest.raises(DomainError):
        estimate_critical_stiffness(FR, EvolutionLaw.AGEING, perturbation=0.0)


def test_estimator_on_light_slip_block():
    # the soft-end bracket run at this mass overflows (test above); the
    # seeded bracket never makes it
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


def _count_runs(monkeypatch) -> list:
    stiffnesses = []
    run = simulate.simulate_spring_block

    def counted(sb, *args, **kwargs):
        stiffnesses.append(sb.stiffness)
        return run(sb, *args, **kwargs)
    monkeypatch.setattr(simulate, "simulate_spring_block", counted)
    return stiffnesses


@pytest.mark.parametrize("law", [EvolutionLaw.AGEING, EvolutionLaw.SLIP])
@pytest.mark.parametrize("mass", [0.0, INERTIAL_MASS])
def test_estimator_run_count(monkeypatch, law, mass):
    runs = _count_runs(monkeypatch)
    estimate_critical_stiffness(FR, law, mass=mass)
    assert len(runs) <= 5


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


def test_step_underflow_stops_the_integrator():
    # at t = 1e15 the minimum step, 10 ulp(t), is 1.25, far longer than a
    # decay rate of 1e6 allows, so every trial step is rejected until the
    # step falls below it
    sol = _dop853.solve_ivp(lambda _t, y: (-1e6 * y[0],), [1e15, 1e15 + 1e3],
                            [1.0], 1e-8, 1e-11, 10.0, simulate.MAX_EVALUATIONS)
    assert sol.failure.startswith("step size") and "below 10 ulp" in sol.failure
    assert sol.y_end == [1.0] and sol.y == [[]] and not sol.capped
    assert sol.nfev < 100


# Agreement with scipy's DOP853, which the integrator reproduces step for
# step.  Set before the integrator was tuned: equal evaluation counts and
# sample times, |d ln V| and |d ln theta| within 1e-9, tau within 1e-11
# relative.
LN_TOL = 1e-9
TAU_TOL = 1e-11


def scipy_dop853(fun, t_eval, y0, rtol, atol, cap, max_nfev):
    """simulate.solve_ivp's contract, on scipy.integrate.solve_ivp."""
    from scipy.integrate import solve_ivp

    def runaway(_t, y):
        return y[0] - cap
    runaway.terminal = True
    runaway.direction = 1.0
    sol = solve_ivp(fun, (t_eval[0], t_eval[-1]), y0, method="DOP853",
                    t_eval=t_eval, rtol=rtol, atol=atol, events=runaway)
    assert sol.status >= 0, sol.message
    return _dop853.Solution([list(c) for c in sol.y], list(sol.y[:, -1]),
                            sol.nfev, sol.status == 1, None)


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
    ours = simulate_spring_block(sb, law, init=init, tol=tol,
                                 runaway_factor=runaway_factor)
    monkeypatch.setattr(simulate, "solve_ivp", scipy_dop853)
    ref = simulate_spring_block(sb, law, init=init, tol=tol,
                                runaway_factor=runaway_factor)
    assert ours.metadata == ref.metadata
    assert np.array_equal(ours.t, ref.t)
    assert np.max(np.abs(np.log(ours.v / ref.v))) <= LN_TOL
    assert np.max(np.abs(np.log(ours.theta / ref.theta))) <= LN_TOL
    assert np.max(np.abs(ours.tau / ref.tau - 1.0)) <= TAU_TOL
