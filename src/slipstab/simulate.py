"""Nonlinear spring-block integration: an oracle for the linearized theory.

A block loaded through a spring at constant load-point velocity obeys the full
rate-and-state equations; integrating them and watching whether a small
perturbation of steady sliding grows or decays gives an estimate of the
critical spring stiffness that never touches the linearization.  The
integration runs in (ln V, ln theta) so the logarithmic friction law stays
exactly linear in the state and positivity is automatic; the inertial case
adds the spring stress as a third state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

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


def _rhs_massless(p: RateState, stiffness: float, law: EvolutionLaw):
    a_sig = p.a * p.sigma_o
    b_sig = p.b * p.sigma_o
    k_vo = stiffness * p.v_o
    lam = p.v_o / p.L
    ageing = law is EvolutionLaw.AGEING

    def rhs(_t, y):
        u, w = y
        eu = math.exp(u)
        if ageing:
            dw = lam * (math.exp(-w) - eu)
        else:
            dw = -lam * eu * (u + w)
        du = (-k_vo * (eu - 1.0) - b_sig * dw) / a_sig
        return (du, dw)

    return rhs


def _rhs_inertial(p: RateState, stiffness: float, mass: float, law: EvolutionLaw):
    a_sig = p.a * p.sigma_o
    b_sig = p.b * p.sigma_o
    k_vo = stiffness * p.v_o
    lam = p.v_o / p.L
    tau_o = p.tau_o
    m_vo = mass * p.v_o
    ageing = law is EvolutionLaw.AGEING

    def rhs(_t, y):
        u, w, tau = y
        eu = math.exp(u)
        if ageing:
            dw = lam * (math.exp(-w) - eu)
        else:
            dw = -lam * eu * (u + w)
        du = (tau - (tau_o + a_sig * u + b_sig * w)) / (m_vo * eu)
        dtau = -k_vo * (eu - 1.0)
        return (du, dw, dtau)

    return rhs


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
    duration : float, optional
        Integration time in seconds; defaults to 200*L/v_o.
    tol : float
        Relative tolerance of the adaptive embedded Runge-Kutta integrator
        (eighth order, fifth-order error estimate).  Absolute tolerance is
        tol*1e-3 on the logarithmic states.

    Returns
    -------
    BlockTrajectory with at least ~64 samples per linear oscillation period.
    The run halts cleanly (metadata["blew_up"] = True) once V exceeds
    1e6*v_o; a step-size underflow raises StepFailure carrying the last
    accepted state, an overflowing trial step StepFailure without one.
    """
    p = sb.friction
    lam = p.v_o / p.L
    if duration is None:
        duration = 200.0 / lam
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

    u0 = math.log(v0 / p.v_o)
    w0 = math.log(p.v_o * theta0 / p.L)
    inertial = sb.mass > 0.0
    if inertial:
        y0 = [u0, w0, tau0]
        rhs = _rhs_inertial(p, sb.stiffness, sb.mass, law)
    else:
        y0 = [u0, w0]
        rhs = _rhs_massless(p, sb.stiffness, law)

    # output grid dense enough for envelope and period extraction
    w_lin = (p.b - p.a) / p.a
    omega_ref = math.sqrt(abs(w_lin)) * lam if w_lin != 0.0 else lam
    dt_out = min(duration / 400.0, 2.0 * math.pi / omega_ref / 64.0)
    t_eval = np.arange(0.0, duration, dt_out)
    if t_eval[-1] < duration:
        t_eval = np.append(t_eval, duration)

    u_cap = math.log(RUNAWAY_FACTOR)

    def runaway(_t, y):
        return y[0] - u_cap

    runaway.terminal = True
    runaway.direction = 1.0

    try:
        sol = solve_ivp(rhs, (0.0, duration), y0, method="DOP853",
                        t_eval=t_eval, rtol=tol, atol=tol * 1e-3,
                        events=runaway, dense_output=False)
    except OverflowError as exc:
        # exp(u) overflowed in a trial step; the RHS stays unguarded (hot loop)
        raise StepFailure(f"integrator step overflowed: {exc}") from exc
    if sol.status == -1:
        last = None
        if sol.y.shape[1] > 0:
            yl = sol.y[:, -1]
            last = BlockState(
                v=p.v_o * math.exp(yl[0]),
                theta=p.L / p.v_o * math.exp(yl[1]),
                tau=yl[2] if inertial else p.tau_o + p.a * p.sigma_o * yl[0]
                    + p.b * p.sigma_o * yl[1],
            )
        raise StepFailure(f"integrator failed: {sol.message}", last_state=last)

    u = sol.y[0]
    w = sol.y[1]
    v = p.v_o * np.exp(u)
    theta = (p.L / p.v_o) * np.exp(w)
    if inertial:
        tau = sol.y[2]
    else:
        tau = p.tau_o + p.a * p.sigma_o * u + p.b * p.sigma_o * w
    return BlockTrajectory(
        t=sol.t, v=v, theta=theta, tau=tau,
        metadata={
            "law": law.value,
            "stiffness": sb.stiffness,
            "mass": sb.mass,
            "tol": tol,
            "blew_up": sol.status == 1,
            "nfev": int(sol.nfev),
        },
    )


def _positive_peaks(t: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Times and heights of local maxima of x, parabolically refined."""
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
    return t_pk, x_pk


def _classify(traj: BlockTrajectory, p: RateState, dead_band: float) -> int:
    """+1 growth, -1 decay, 0 inside the dead band.

    Envelope slope from a log-linear fit of oscillation peak heights; runs
    that blow up or end with a clearly changed amplitude are classified
    directly (covers the overdamped, peak-free cases).
    """
    if traj.blew_up:
        return 1
    x = traj.v - p.v_o
    n = x.size
    head = np.max(np.abs(x[: max(8, n // 10)]))
    tail = np.max(np.abs(x[-max(8, n // 10):]))
    if tail > 10.0 * head:
        return 1
    if tail < 0.1 * head:
        return -1
    t_pk, x_pk = _positive_peaks(traj.t, x)
    keep = x_pk > 1e-11 * p.v_o
    t_pk, x_pk = t_pk[keep], x_pk[keep]
    if t_pk.size >= 4:
        # drop the first peaks: phase settling of the initial condition
        t_fit = t_pk[2:] if t_pk.size >= 6 else t_pk
        x_fit = x_pk[2:] if t_pk.size >= 6 else x_pk
        slope = np.polyfit(t_fit, np.log(x_fit), 1)[0]
        if abs(slope) <= dead_band:
            return 0
        return 1 if slope > 0.0 else -1
    # too few peaks and no decisive amplitude change
    if tail > head:
        return 1
    if tail < head:
        return -1
    return 0


def _measure_omega(traj: BlockTrajectory, p: RateState) -> float:
    """Angular frequency from the mean spacing of oscillation peaks."""
    x = traj.v - p.v_o
    t_pk, x_pk = _positive_peaks(traj.t, x)
    keep = x_pk > 1e-12 * p.v_o
    t_pk = t_pk[keep]
    if t_pk.size < 3:
        raise Inconclusive("too few oscillation peaks to measure a period")
    period = float(np.mean(np.diff(t_pk)))
    return 2.0 * math.pi / period


def estimate_critical_stiffness(p: RateState, law: EvolutionLaw,
                                mass: float = 0.0,
                                perturbation: float = 1e-3,
                                duration: float | None = None,
                                tol: float = 1e-8,
                                max_steps: int = 40) -> tuple[float, float]:
    """Estimate (K_cr, omega) from the nonlinear block, no linearization used.

    Bisects the spring stiffness between 0.1 and 10 times the analytic
    critical value, classifying each run by the growth or decay of the
    envelope of V - v_o after a relative velocity perturbation
    `perturbation`.  Envelope slopes within 1e-4*v_o/L of zero count as
    neutral and stop the search (the stiffness is then within a fraction of
    a percent of critical).  The returned frequency comes from the peak
    spacing of the final (nearest-neutral) run.

    Raises VelocityStrengthening for b <= a and Inconclusive when the
    endpoints fail to bracket (growth at the soft end, decay at the stiff
    end) or the dead band never resolves within `max_steps` bisections.
    """
    if not p.weakening:
        raise VelocityStrengthening("no finite critical stiffness for b <= a")
    k_ref, _ = spring_block_critical(p, mass)
    dead_band = 1e-4 * p.v_o / p.L
    init = BlockState(v=(1.0 + perturbation) * p.v_o, theta=p.L / p.v_o,
                      tau=friction_stress(p, (1.0 + perturbation) * p.v_o, p.L / p.v_o))

    def run(k: float) -> BlockTrajectory:
        sb = SpringBlockParams(stiffness=k, mass=mass, friction=p)
        return simulate_spring_block(sb, law, init=init, duration=duration, tol=tol)

    k_lo, k_hi = 0.1 * k_ref, 10.0 * k_ref
    if _classify(run(k_lo), p, dead_band) != 1:
        raise Inconclusive(f"no growth at the soft end K = {k_lo}")
    if _classify(run(k_hi), p, dead_band) != -1:
        raise Inconclusive(f"no decay at the stiff end K = {k_hi}")

    k_est = None
    last_traj = None
    for _ in range(max_steps):
        k_mid = 0.5 * (k_lo + k_hi)
        traj = run(k_mid)
        verdict = _classify(traj, p, dead_band)
        last_traj = traj
        if verdict == 0:
            k_est = k_mid
            break
        if verdict > 0:
            k_lo = k_mid
        else:
            k_hi = k_mid
        if k_hi - k_lo < 1e-3 * k_ref:
            k_est = 0.5 * (k_lo + k_hi)
            break
    if k_est is None:
        raise Inconclusive(
            f"bisection spent {max_steps} steps without entering the dead band"
        )
    if last_traj is None or last_traj.metadata["stiffness"] != k_est:
        last_traj = run(k_est)
    omega_est = _measure_omega(last_traj, p)
    return k_est, omega_est
