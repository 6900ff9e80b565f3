"""Nonlinear spring-block integration: an oracle for the linearized theory.

A block loaded through a spring at constant load-point velocity obeys the full
rate-and-state equations; integrating them and watching whether a small
perturbation of steady sliding grows or decays gives an estimate of the
critical spring stiffness that never touches the linearization.  The
integration runs in (ln V, ln theta) so the logarithmic friction law stays
exactly linear in the state and positivity is automatic; the inertial case
adds the spring stress as a third state.  The integrator is Hairer's DOP853
on Python floats (`_dop853`), with the autonomous right side of `_rhs` on the
states as plain floats; the runs call it through the module global
`solve_ivp`.  The estimator's runs sample no grid: they ask the integrator
for the maxima of V, each located on the interpolant of the step that holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._dop853 import Solution, solve_ivp
from .errors import DomainError, Inconclusive, StepFailure, VelocityStrengthening, _scale
from .friction import EvolutionLaw, RateState, friction_stress
from .closed_forms import SpringBlockParams, spring_block_critical

__all__ = [
    "BlockState",
    "BlockTrajectory",
    "simulate_spring_block",
    "estimate_critical_stiffness",
]

RUNAWAY_FACTOR = 1e6   # V above this multiple of v_o counts as instability
ESTIMATE_PERTURBATION = 1e-3   # estimator runs start from V = (1 + this)*v_o
# estimator runs stop at ln(V/v_o) = CAP_GROWTH*ln(1 + ESTIMATE_PERTURBATION)
CAP_GROWTH = 10.0
# Integrator tolerance of the estimator runs.  Budget: the growth rate
# sigma that a run yields at ESTIMATE_TOL differs from sigma at 1e-11 by at
# most 10% of the estimator's dead band 1e-4*v_o/L.  Measured for b/a <= 3
# only (both laws, b/a in {1.05, 1.5, 3}, mass 0 and 0.5*a*sigma_o*L/v_o^2,
# K/K_cr in [0.9, 1.1]): at most 3.7% at 1e-7 over 200*L/v_o (1.5% at
# 1e-8, 9.1% at 3e-7, 86% at 1e-6) and 1.9% over the estimator's duration,
# and at most 0.02% within 4e-4 of K_cr.  It does not hold at b/a = 10:
# at 1.1*K_cr it reads 15.2% (slip law) and 7.4% (ageing law) massless,
# 11.7% and 7.8% with mass, at both durations.
ESTIMATE_TOL = 1e-7
# Duration of each estimator run, in L/v_o, and never less than six linear
# periods 2*pi/omega_ref.  Budget: over ESTIMATE_SPAN*L/v_o a growth rate
# of one dead band, 1e-4*v_o/L, changes the envelope by 1%, so a longer run
# resolves sigma no better than the dead band accepts it.  The floor keeps
# six peaks for the fits where the period is long (b/a below about 1.14).
ESTIMATE_SPAN = 100.0
ESTIMATE_MAX_STEPS = 40   # regula falsi steps before the estimator gives up
MAX_EVALUATIONS = 1_000_000   # right-side evaluations allowed per integration
MAX_SAMPLES = 1_000_000   # output samples allowed per run; a default run takes ~1,440


@dataclass(frozen=True)
class BlockState:
    """Velocity (m/s), state variable (s), and spring stress (Pa) of the block.

    `tau` is the stress transmitted by the loading system.  Without inertia it
    equals the frictional strength at (V, theta) identically, so it is ignored
    as an initial condition; with inertia it is the third degree of freedom
    (the imbalance tau - tau_friction accelerates the block).
    """

    v: float
    theta: float
    tau: float

    def __post_init__(self):
        if not self.v > 0.0:
            raise DomainError(f"V must be positive, got {self.v}")
        if not self.theta > 0.0:
            raise DomainError(f"theta must be positive, got {self.theta}")


@dataclass
class BlockTrajectory:
    """Sampled solution: strictly increasing times and the state series."""

    t: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    tau: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def blew_up(self) -> bool:
        return bool(self.metadata.get("blew_up", False))


def _rhs(p: RateState, stiffness: float, mass: float, law: EvolutionLaw):
    """Autonomous right side `massless(u, w)` in (u, w) = (ln(V/v_o),
    ln(v_o*theta/L)), or `inertial(u, w, tau)` with the spring stress tau."""
    a_sig = p.a * p.sigma_o
    b_sig = p.b * p.sigma_o
    k_vo = stiffness * p.v_o
    lam = p.v_o / p.L
    tau_o = p.tau_o
    m_vo = mass * p.v_o
    ageing = law is EvolutionLaw.AGEING
    exp = math.exp

    def massless(u, w):
        eu = exp(u)
        if ageing:
            dw = lam * (exp(-w) - eu)
        else:
            dw = -lam * eu * (u + w)
        du = (-k_vo * (eu - 1.0) - b_sig * dw) / a_sig
        return (du, dw)

    def inertial(u, w, tau):
        eu = exp(u)
        if ageing:
            dw = lam * (exp(-w) - eu)
        else:
            dw = -lam * eu * (u + w)
        du = (tau - (tau_o + a_sig * u + b_sig * w)) / (m_vo * eu)
        dtau = -k_vo * (eu - 1.0)
        return (du, dw, dtau)

    return inertial if mass > 0.0 else massless


def simulate_spring_block(sb: SpringBlockParams, law: EvolutionLaw,
                          init: BlockState | None = None,
                          duration: float | None = None,
                          tol: float = 1e-10) -> BlockTrajectory:
    """Integrate the spring-block system and sample it densely.

    Parameters
    ----------
    sb : SpringBlockParams
        Spring stiffness, block mass per area (0 for the quasi-static block),
        and the friction parameters.
    law : EvolutionLaw
        State evolution law.
    init : BlockState, optional
        Initial condition; defaults to steady sliding (v_o, L/v_o, tau_o + ...).
        Without inertia the tau field is ignored (force balance fixes it).
        An infinite theta, with inertia a tau that is not finite, or a V at
        or above RUNAWAY_FACTOR*v_o (no sample before it) raises DomainError.
    duration : float, optional
        Integration time in seconds; defaults to 200*L/v_o.  A default
        that overflows to inf, a duration whose output grid would hold
        more than MAX_SAMPLES samples, or whose output spacing underflows
        to 0, raises DomainError.
    tol : float
        Relative tolerance of the adaptive embedded Runge-Kutta integrator
        (DOP853: eighth order, fifth-order error estimate).  Absolute
        tolerance is tol*1e-3 on the logarithmic states.

    Returns
    -------
    BlockTrajectory with at least ~64 samples per linear oscillation period.
    The run halts cleanly (metadata["blew_up"] = True) once V crosses
    RUNAWAY_FACTOR*v_o upward at an accepted step end; samples stop before
    the crossing.  metadata["nfev"] counts every right-side evaluation.  A
    step-size underflow, or a run that would exceed MAX_EVALUATIONS
    evaluations, raises StepFailure carrying the last accepted state.  A
    trial step that overflows exp(u), or with inertia underflows m*v_o*exp(u)
    to zero, is rejected and retried shorter; such an error at the start or
    in an accepted step's interpolant raises StepFailure without a state.
    """
    p = sb.friction
    lam = p.v_o / p.L
    if duration is None:
        duration = _scale("the default duration 200*L/v_o", 200.0 / lam, L=p.L, v_o=p.v_o)
    rhs, y0, cap = _start(sb, law, init, duration, tol, RUNAWAY_FACTOR)

    # output grid dense enough for envelope and period extraction
    w_lin = (p.b - p.a) / p.a
    omega_ref = math.sqrt(abs(w_lin)) * lam if w_lin != 0.0 else lam
    dt_out = min(duration / 400.0, 2.0 * math.pi / omega_ref / 64.0)
    if not dt_out > 0.0:
        raise DomainError(f"duration = {duration!r} s gives an output spacing "
                          f"that underflows to 0")
    if not duration / dt_out <= MAX_SAMPLES:
        raise DomainError(f"duration = {duration!r} s at an output spacing of "
                          f"{dt_out!r} s needs more than MAX_SAMPLES = "
                          f"{MAX_SAMPLES} samples")
    t_eval = np.arange(0.0, duration, dt_out)
    if t_eval[-1] < duration:
        t_eval = np.append(t_eval, duration)

    sol = _solve(p, rhs, t_eval.tolist(), y0, tol, cap)
    v, theta, tau = _physical(p, sol.y)
    return BlockTrajectory(
        t=t_eval[:v.size], v=v, theta=theta, tau=tau,
        metadata={
            "law": law.value,
            "stiffness": sb.stiffness,
            "mass": sb.mass,
            "tol": tol,
            "blew_up": sol.capped,
            "nfev": sol.nfev,
        },
    )


def _start(sb: SpringBlockParams, law: EvolutionLaw, init: BlockState | None,
           duration: float, tol: float, runaway_factor: float):
    """The right side, the start state (ln(V/v_o), ln(v_o*theta/L)[, tau])
    and the cap ln(runaway_factor) of a run, after the checks of every run's
    arguments (see `simulate_spring_block`); runaway_factor > 1 is not checked."""
    p = sb.friction
    if not duration > 0.0:
        raise DomainError(f"duration must be positive, got {duration}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")

    if init is None:
        v0, theta0 = p.v_o, p.L / p.v_o
        tau0 = friction_stress(p, v0, theta0)
    else:
        v0, theta0 = init.v, init.theta
        tau0 = init.tau
        # BlockState holds integrator states too (StepFailure.last_state),
        # so what it cannot start from is rejected here, not there
        if not theta0 < math.inf:
            raise DomainError(f"initial theta must be finite, got {theta0}")
        if sb.mass > 0.0 and not abs(tau0) < math.inf:
            raise DomainError(f"initial tau must be finite with inertia, got {tau0}")

    u0 = math.log(v0 / p.v_o)
    cap = math.log(runaway_factor)
    if u0 >= cap:   # the integrator's cap test: not even the start is kept
        raise DomainError(
            f"initial V = {v0!r} is at or above the runaway threshold "
            f"{runaway_factor!r}*v_o; the run has no sample before it")
    w0 = math.log(p.v_o * theta0 / p.L)
    y0 = [u0, w0, tau0] if sb.mass > 0.0 else [u0, w0]
    return _rhs(p, sb.stiffness, sb.mass, law), y0, cap


def _solve(p: RateState, rhs, t_eval: list[float], y0: list[float], tol: float,
           cap: float, maxima: bool = False) -> Solution:
    """One integration at relative tolerance tol and absolute tol*1e-3, by
    `solve_ivp` looked up as the module global at each call (a tracer
    rebinds it), with a run that stops short raised as StepFailure."""
    try:
        sol = solve_ivp(rhs, t_eval, y0, tol, tol * 1e-3, cap, MAX_EVALUATIONS,
                        maxima=maxima)
    except OverflowError as exc:
        # exp(u) overflowed outside a trial step; the RHS stays unguarded (hot loop)
        raise StepFailure(f"integrator step overflowed: {exc}") from exc
    except ZeroDivisionError as exc:
        # with inertia, m*v_o*exp(u) underflowed to 0 outside a trial step
        raise StepFailure(f"integrator step underflowed: {exc}") from exc
    if sol.failure is not None:
        v, theta, tau = _physical(p, [[x] for x in sol.y_end])
        raise StepFailure(f"integrator failed: {sol.failure}",
                          last_state=BlockState(v=float(v[0]), theta=float(theta[0]),
                                                tau=float(tau[0])))
    return sol


def _physical(p: RateState, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, theta, tau) series from the integrator's (u, w[, tau]) rows;
    without inertia tau is the frictional strength."""
    u, w = np.asarray(y[0]), np.asarray(y[1])
    v = p.v_o * np.exp(u)
    theta = (p.L / p.v_o) * np.exp(w)
    if len(y) == 3:
        return v, theta, np.asarray(y[2])
    return v, theta, p.tau_o + p.a * p.sigma_o * u + p.b * p.sigma_o * w


@dataclass(frozen=True)
class _Run:
    """One estimator run: the maxima of V - v_o and its deviation at the ends."""

    stiffness: float
    t_peak: np.ndarray   # time of each maximum of V (s)
    x_peak: np.ndarray   # V - v_o there (m/s)
    x_start: float       # V - v_o at t = 0
    t_end: float         # time of the last accepted state (s)
    x_end: float         # V - v_o there
    capped: bool         # V crossed the run's runaway factor
    nfev: int


def _estimate_run(sb: SpringBlockParams, law: EvolutionLaw, init: BlockState,
                  duration: float, tol: float, runaway_factor: float) -> _Run:
    """One run of the estimator, checked as `simulate_spring_block` checks
    its arguments: no sample grid, only the maxima of V, each located on the
    interpolant of the integrator step that holds it."""
    p = sb.friction
    rhs, y0, cap = _start(sb, law, init, duration, tol, runaway_factor)
    sol = _solve(p, rhs, [0.0, duration], y0, tol, cap, maxima=True)
    t_peak, u_peak = sol.maxima
    return _Run(sb.stiffness, t_peak, p.v_o * np.exp(u_peak) - p.v_o,
                p.v_o * math.exp(y0[0]) - p.v_o, sol.t_end,
                p.v_o * math.exp(sol.y_end[0]) - p.v_o, sol.capped, sol.nfev)


def _growth_rate(run: _Run, p: RateState) -> float:
    """Envelope growth rate sigma (1/s) of V - v_o: positive grows, negative decays.

    The slope of a log-linear fit of the heights of the maxima of V, without
    the first two (phase settling of the initial condition) when six or
    more remain.  Only maxima above 1e-4 of the initial deviation, and above
    1e-11*v_o, count: a strongly damped run decays into integrator noise,
    whose maxima would fit a spurious slope.  With fewer than three the rate
    is the average from the start to the last accepted state (the
    overdamped, peak-free cases, and runs capped within two maxima); a run
    with no deviation at either end, or no span, raises Inconclusive.
    """
    keep = run.x_peak > max(1e-11 * p.v_o, 1e-4 * abs(run.x_start))
    if np.count_nonzero(keep) >= 3:
        return _settled_slope(run.t_peak[keep], np.log(run.x_peak[keep]))
    if not (run.t_end > 0.0 and run.x_start != 0.0 and run.x_end != 0.0):
        raise Inconclusive(f"no growth rate: V - v_o is {run.x_start!r} at t = 0 "
                           f"and {run.x_end!r} at t = {run.t_end!r}, with fewer "
                           f"than three maxima")
    return (math.log(abs(run.x_end)) - math.log(abs(run.x_start))) / run.t_end


def _measure_omega(run: _Run, p: RateState) -> float:
    """Angular frequency 2*pi/period, the period being the least-squares
    slope of the times of the maxima of V above 1e-12*v_o against their
    index, without the first two when six or more remain (as `_growth_rate`
    fits).  The mean spacing would be (last - first)/(n - 1), set by the
    first maximum's phase settling."""
    t_peak = run.t_peak[run.x_peak > 1e-12 * p.v_o]
    if t_peak.size < 3:
        raise Inconclusive("too few oscillation peaks to measure a period")
    return 2.0 * math.pi / _settled_slope(np.arange(t_peak.size, dtype=float), t_peak)


def _settled_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x, without the first two points (the
    phase settling of the initial condition) when six or more remain."""
    if x.size >= 6:
        x, y = x[2:], y[2:]
    return float(np.polyfit(x, y, 1)[0])


def _estimate_duration(p: RateState) -> float:
    """Duration (s) of each estimator run: ESTIMATE_SPAN*L/v_o, or six
    linear periods 2*pi/omega_ref when they last longer."""
    periods = 12.0 * math.pi / math.sqrt((p.b - p.a) / p.a)   # six, in L/v_o
    return _scale("the estimator's run duration max(ESTIMATE_SPAN, 6 periods)*L/v_o",
                  max(ESTIMATE_SPAN, periods) / (p.v_o / p.L), L=p.L, v_o=p.v_o)


def estimate_critical_stiffness(p: RateState, law: EvolutionLaw,
                                mass: float = 0.0) -> tuple[float, float]:
    """Estimate (K_cr, omega) from the nonlinear block, no linearization used.

    Each run starts from steady sliding with V perturbed by the relative
    amount ESTIMATE_PERTURBATION = 1e-3, is integrated at tolerance
    ESTIMATE_TOL over ESTIMATE_SPAN*L/v_o = 100*L/v_o, or six linear periods
    2*pi/omega_ref when they last longer (omega_ref = sqrt((b-a)/a)*v_o/L),
    and yields the envelope growth rate sigma of V - v_o, fitted to the
    maxima of V (see `_growth_rate`); no run samples a grid, each maximum is
    located on the integrator's interpolant of the step that holds it
    (`_estimate_run`).  A run stops early once ln(V/v_o) reaches CAP_GROWTH
    times ln(1 + ESTIMATE_PERTURBATION), where growth is certain.  The
    search brackets the zero of sigma(K) starting from [0.9, 1.1] times the
    analytic critical value, halving the soft end or doubling the stiff end
    (within 0.1 and 10 times that value) until the soft end grows and the
    stiff end decays, then takes at most ESTIMATE_MAX_STEPS Illinois regula
    falsi steps.  The analytic value only places the first bracket: every
    sign and every sigma come from nonlinear runs.  A run with |sigma|
    within the dead band 1e-4*v_o/L counts as neutral and gives the
    estimate (the stiffness is then within about 4e-4 of critical); a
    bracket narrower than 1e-3 times the analytic value gives its midpoint.
    The returned frequency comes from the times of the maxima of a run at
    the estimate that was not stopped early, fitted against their index as
    the growth rate is fitted (`_measure_omega`).

    The dead band is the estimator's resolution: ESTIMATE_TOL = 1e-7 keeps
    sigma's integration error below 10% of it for b/a <= 3 (not at b/a =
    10; see ESTIMATE_TOL).  The absolute tolerance, ESTIMATE_TOL*1e-3 =
    1e-10 in ln V, sits 1e3 below the smallest peak the fit keeps, 1e-4 of
    the 1e-3 perturbation.  ESTIMATE_SPAN is set by the dead band too (see
    its budget).

    Raises VelocityStrengthening for b <= a, and Inconclusive when the
    widened ends fail to bracket (no growth at the soft end, no decay at the
    stiff end) or the dead band is not reached within ESTIMATE_MAX_STEPS
    regula falsi steps.
    """
    if not p.weakening:
        raise VelocityStrengthening("no finite critical stiffness for b <= a")
    k_ref, _ = spring_block_critical(p, mass)
    k_min, k_max = 0.1 * k_ref, 10.0 * k_ref
    dead_band = 1e-4 * p.v_o / p.L
    v0 = (1.0 + ESTIMATE_PERTURBATION) * p.v_o
    init = BlockState(v=v0, theta=p.L / p.v_o,
                      tau=friction_stress(p, v0, p.L / p.v_o))
    cap = math.exp(CAP_GROWTH * math.log1p(ESTIMATE_PERTURBATION))
    duration = _estimate_duration(p)
    runs: dict[float, _Run] = {}

    def run(k: float, runaway_factor: float) -> _Run:
        sb = SpringBlockParams(stiffness=k, mass=mass, friction=p)
        return _estimate_run(sb, law, init, duration, ESTIMATE_TOL, runaway_factor)

    def sigma(k: float) -> float:
        runs[k] = run(k, cap)
        return _growth_rate(runs[k], p)

    k_soft, k_stiff = 0.9 * k_ref, 1.1 * k_ref
    s_soft, s_stiff = sigma(k_soft), sigma(k_stiff)
    while s_soft < -dead_band:
        if k_soft <= k_min:
            raise Inconclusive(f"no growth at the soft end K = {k_soft}")
        k_stiff, s_stiff = k_soft, s_soft
        k_soft = max(0.5 * k_soft, k_min)
        s_soft = sigma(k_soft)
    while s_stiff > dead_band:
        if k_stiff >= k_max:
            raise Inconclusive(f"no decay at the stiff end K = {k_stiff}")
        k_soft, s_soft = k_stiff, s_stiff
        k_stiff = min(2.0 * k_stiff, k_max)
        s_stiff = sigma(k_stiff)

    k_est = next((k for k, s in ((k_soft, s_soft), (k_stiff, s_stiff))
                  if abs(s) <= dead_band), None)
    steps = 0
    kept = 0   # +1 after the stiff end was kept, -1 after the soft end
    while k_est is None:
        if k_stiff - k_soft < 1e-3 * k_ref:
            k_est = 0.5 * (k_soft + k_stiff)
            break
        if steps == ESTIMATE_MAX_STEPS:
            raise Inconclusive(
                f"regula falsi spent {ESTIMATE_MAX_STEPS} steps without entering the dead band"
            )
        steps += 1
        k = k_soft + s_soft * (k_stiff - k_soft) / (s_soft - s_stiff)
        s = sigma(k)
        if abs(s) <= dead_band:
            k_est = k
        elif s > 0.0:
            k_soft, s_soft = k, s
            if kept > 0:   # Illinois: halve an end kept twice running
                s_stiff *= 0.5
            kept = 1
        else:
            k_stiff, s_stiff = k, s
            if kept < 0:
                s_soft *= 0.5
            kept = -1

    at_estimate = runs.get(k_est)
    if at_estimate is None or at_estimate.capped:
        at_estimate = run(k_est, RUNAWAY_FACTOR)
    return k_est, _measure_omega(at_estimate, p)
