"""Nonlinear spring-block integration: an oracle for the linearized theory.

A block loaded through a spring at constant load-point velocity obeys the full
rate-and-state equations; integrating them and watching whether a small
perturbation of steady sliding grows or decays gives an estimate of the
critical spring stiffness that never touches the linearization.  The
integration runs in (ln V, ln theta) so the logarithmic friction law stays
exactly linear in the state and positivity is automatic; the inertial case
adds the spring stress as a third state.  The integrator is Hairer's DOP853
on Python floats (`_dop853`), which `simulate_spring_block` calls through
the module global `solve_ivp`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._dop853 import solve_ivp
from .errors import DomainError, Inconclusive, StepFailure, VelocityStrengthening
from .friction import EvolutionLaw, RateState, friction_stress
from .closed_forms import SpringBlockParams, spring_block_critical

__all__ = [
    "BlockState",
    "BlockTrajectory",
    "simulate_spring_block",
    "estimate_critical_stiffness",
]

RUNAWAY_FACTOR = 1e6   # V above this multiple of v_o counts as instability
CAP_GROWTH = 10.0      # estimator runs stop at ln(V/v_o) = 10*|ln(1 + perturbation)|
ESTIMATE_TOL = 1e-8    # integrator tolerance of the estimator runs
ESTIMATE_MAX_STEPS = 40   # regula falsi steps before the estimator gives up
MAX_EVALUATIONS = 1_000_000   # right-side evaluations allowed per integration


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
    """Right side in (u, w) = (ln(V/v_o), ln(v_o*theta/L)), plus the spring
    stress tau when the block has mass."""
    a_sig = p.a * p.sigma_o
    b_sig = p.b * p.sigma_o
    k_vo = stiffness * p.v_o
    lam = p.v_o / p.L
    tau_o = p.tau_o
    m_vo = mass * p.v_o
    ageing = law is EvolutionLaw.AGEING

    def massless(_t, y):
        u, w = y
        eu = math.exp(u)
        if ageing:
            dw = lam * (math.exp(-w) - eu)
        else:
            dw = -lam * eu * (u + w)
        du = (-k_vo * (eu - 1.0) - b_sig * dw) / a_sig
        return (du, dw)

    def inertial(_t, y):
        u, w, tau = y
        eu = math.exp(u)
        if ageing:
            dw = lam * (math.exp(-w) - eu)
        else:
            dw = -lam * eu * (u + w)
        du = (tau - (tau_o + a_sig * u + b_sig * w)) / (m_vo * eu)
        dtau = -k_vo * (eu - 1.0)
        return (du, dw, dtau)

    return inertial if mass > 0.0 else massless


def simulate_spring_block(sb: SpringBlockParams, law: EvolutionLaw,
                          init: BlockState | None = None,
                          duration: float | None = None,
                          tol: float = 1e-10, *,
                          runaway_factor: float = RUNAWAY_FACTOR) -> BlockTrajectory:
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
    duration : float, optional
        Integration time in seconds; defaults to 200*L/v_o.
    tol : float
        Relative tolerance of the adaptive embedded Runge-Kutta integrator
        (DOP853: eighth order, fifth-order error estimate).  Absolute
        tolerance is tol*1e-3 on the logarithmic states.
    runaway_factor : float
        The run halts at the first upward crossing of V = runaway_factor*v_o.
        Must exceed 1; defaults to RUNAWAY_FACTOR = 1e6.  The stiffness
        estimator passes exp(CAP_GROWTH*|ln(1 + perturbation)|), so a
        growing run stops as soon as its growth is certain.  An initial V
        at or above runaway_factor*v_o leaves no sample and raises
        DomainError.

    Returns
    -------
    BlockTrajectory with at least ~64 samples per linear oscillation period.
    The run halts cleanly (metadata["blew_up"] = True) once V crosses
    runaway_factor*v_o upward at an accepted step end; samples stop before
    the crossing.  metadata["nfev"] counts every right-side evaluation.  A
    step-size underflow, or a run that would exceed MAX_EVALUATIONS
    evaluations, raises StepFailure carrying the last accepted state; a
    trial step that overflows exp(u), or with inertia underflows m*v_o*exp(u)
    to zero, raises StepFailure without one.
    """
    p = sb.friction
    lam = p.v_o / p.L
    if duration is None:
        duration = 200.0 / lam
    if not duration > 0.0:
        raise DomainError(f"duration must be positive, got {duration}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if not runaway_factor > 1.0:
        raise DomainError(f"runaway_factor must exceed 1, got {runaway_factor}")

    if init is None:
        v0, theta0 = p.v_o, p.L / p.v_o
        tau0 = friction_stress(p, v0, theta0)
    else:
        v0, theta0 = init.v, init.theta
        tau0 = init.tau

    u0 = math.log(v0 / p.v_o)
    cap = math.log(runaway_factor)
    if u0 >= cap:   # the integrator's cap test: not even the start is kept
        raise DomainError(
            f"initial V = {v0!r} is at or above the runaway threshold "
            f"{runaway_factor!r}*v_o; the run has no sample before it")
    w0 = math.log(p.v_o * theta0 / p.L)
    y0 = [u0, w0, tau0] if sb.mass > 0.0 else [u0, w0]
    rhs = _rhs(p, sb.stiffness, sb.mass, law)

    # output grid dense enough for envelope and period extraction
    w_lin = (p.b - p.a) / p.a
    omega_ref = math.sqrt(abs(w_lin)) * lam if w_lin != 0.0 else lam
    dt_out = min(duration / 400.0, 2.0 * math.pi / omega_ref / 64.0)
    t_eval = np.arange(0.0, duration, dt_out)
    if t_eval[-1] < duration:
        t_eval = np.append(t_eval, duration)

    try:
        sol = solve_ivp(rhs, t_eval.tolist(), y0, tol, tol * 1e-3, cap,
                        MAX_EVALUATIONS)
    except OverflowError as exc:
        # exp(u) overflowed in a trial step; the RHS stays unguarded (hot loop)
        raise StepFailure(f"integrator step overflowed: {exc}") from exc
    except ZeroDivisionError as exc:
        # with inertia, m*v_o*exp(u) underflowed to 0 in a trial step
        raise StepFailure(f"integrator step underflowed: {exc}") from exc
    if sol.failure is not None:
        v, theta, tau = _physical(p, [[x] for x in sol.y_end])
        raise StepFailure(f"integrator failed: {sol.failure}",
                          last_state=BlockState(v=float(v[0]), theta=float(theta[0]),
                                                tau=float(tau[0])))
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


def _physical(p: RateState, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, theta, tau) series from the integrator's (u, w[, tau]) rows;
    without inertia tau is the frictional strength."""
    u, w = np.asarray(y[0]), np.asarray(y[1])
    v = p.v_o * np.exp(u)
    theta = (p.L / p.v_o) * np.exp(w)
    if len(y) == 3:
        return v, theta, np.asarray(y[2])
    return v, theta, p.tau_o + p.a * p.sigma_o * u + p.b * p.sigma_o * w


def _positive_peaks(t: np.ndarray, x: np.ndarray,
                    floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Times and heights of the local maxima of x above floor, parabolically
    refined."""
    i = np.nonzero((x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:]) & (x[1:-1] > 0.0))[0] + 1
    if i.size == 0:
        return np.empty(0), np.empty(0)
    denom = x[i - 1] - 2.0 * x[i] + x[i + 1]
    shift = np.where(denom != 0.0,
                     0.5 * (x[i - 1] - x[i + 1]) / np.where(denom != 0.0, denom, 1.0),
                     0.0)
    shift = np.clip(shift, -0.5, 0.5)
    dt = t[1] - t[0]
    t_pk = t[i] + shift * dt
    x_pk = x[i] - 0.25 * (x[i - 1] - x[i + 1]) * shift
    keep = x_pk > floor
    return t_pk[keep], x_pk[keep]


def _growth_rate(traj: BlockTrajectory, p: RateState) -> float:
    """Envelope growth rate sigma (1/s) of V - v_o: positive grows, negative decays.

    The slope of a log-linear fit of the oscillation peak heights, without
    the first two peaks (phase settling of the initial condition) when six
    or more remain.  Only peaks above 1e-4 of the initial deviation count:
    a strongly damped run decays into integrator noise, whose peaks would
    fit a spurious slope.  With fewer than three peaks the rate is the average
    over the run instead: from the first sample to the last one before the
    cap for a halted run, from the largest deviation of the first tenth of
    the samples to that of the last tenth otherwise (the overdamped,
    peak-free cases).
    """
    x = traj.v - p.v_o
    t_pk, x_pk = _positive_peaks(traj.t, x, max(1e-11 * p.v_o, 1e-4 * abs(x[0])))
    if t_pk.size >= 3:
        if t_pk.size >= 6:
            t_pk, x_pk = t_pk[2:], x_pk[2:]
        return float(np.polyfit(t_pk, np.log(x_pk), 1)[0])
    span = float(traj.t[-1] - traj.t[0])
    if traj.blew_up:
        return math.log(abs(x[-1]) / abs(x[0])) / span
    n = max(8, x.size // 10)
    head = np.max(np.abs(x[:n]))
    tail = np.max(np.abs(x[-n:]))
    return math.log(tail / head) / span


def _measure_omega(traj: BlockTrajectory, p: RateState) -> float:
    """Angular frequency from the mean spacing of oscillation peaks."""
    t_pk, _ = _positive_peaks(traj.t, traj.v - p.v_o, 1e-12 * p.v_o)
    if t_pk.size < 3:
        raise Inconclusive("too few oscillation peaks to measure a period")
    period = float(np.mean(np.diff(t_pk)))
    return 2.0 * math.pi / period


def estimate_critical_stiffness(p: RateState, law: EvolutionLaw,
                                mass: float = 0.0,
                                perturbation: float = 1e-3) -> tuple[float, float]:
    """Estimate (K_cr, omega) from the nonlinear block, no linearization used.

    Each run starts from steady sliding with V perturbed by the relative
    amount `perturbation`, is integrated at tolerance ESTIMATE_TOL over
    simulate_spring_block's default 200*L/v_o, and yields the envelope
    growth rate sigma of V - v_o (see `_growth_rate`); a run stops early
    once ln(V/v_o) reaches CAP_GROWTH times |ln(1 + perturbation)|, where
    growth is certain.  The search brackets the zero of sigma(K) starting
    from [0.9, 1.1] times the analytic critical value, halving the soft end
    or doubling the stiff end (within 0.1 and 10 times that value) until the
    soft end grows and the stiff end decays, then takes at most
    ESTIMATE_MAX_STEPS Illinois regula falsi steps.  The analytic value only
    places the first bracket: every sign and every sigma come from nonlinear
    runs.  A run with |sigma| within
    1e-4*v_o/L counts as neutral and gives the estimate (the stiffness is
    then within a fraction of a percent of critical); a bracket narrower
    than 1e-3 times the analytic value gives its midpoint.  The returned
    frequency comes from the peak spacing of a run at the estimate that was
    not stopped early.

    Raises VelocityStrengthening for b <= a, DomainError for a zero
    perturbation, and Inconclusive when the widened ends fail to bracket
    (no growth at the soft end, no decay at the stiff end) or the dead band
    is not reached within ESTIMATE_MAX_STEPS regula falsi steps.
    """
    if not p.weakening:
        raise VelocityStrengthening("no finite critical stiffness for b <= a")
    if not abs(perturbation) > 0.0:
        raise DomainError(f"perturbation must be nonzero, got {perturbation}")
    k_ref, _ = spring_block_critical(p, mass)
    k_min, k_max = 0.1 * k_ref, 10.0 * k_ref
    dead_band = 1e-4 * p.v_o / p.L
    v0 = (1.0 + perturbation) * p.v_o
    init = BlockState(v=v0, theta=p.L / p.v_o,
                      tau=friction_stress(p, v0, p.L / p.v_o))
    cap = math.exp(CAP_GROWTH * abs(math.log1p(perturbation)))
    runs: dict[float, BlockTrajectory] = {}

    def run(k: float, runaway_factor: float) -> BlockTrajectory:
        sb = SpringBlockParams(stiffness=k, mass=mass, friction=p)
        return simulate_spring_block(sb, law, init=init, tol=ESTIMATE_TOL,
                                     runaway_factor=runaway_factor)

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

    traj = runs.get(k_est)
    if traj is None or traj.blew_up:
        traj = run(k_est, RUNAWAY_FACTOR)
    return k_est, _measure_omega(traj, p)
