"""Certification suite: every release gate as a callable check.

Each check enforces its own tolerance and returns (ok, detail); the `_gate`
around it times it, enforces its wall-clock budget where it has one, and
returns a VerifyResult.  So `slipstab verify` and the acceptance tests share
one implementation and cannot drift apart.  Checks build dimensional
parameter sets from the nondimensional loading q so the same code paths the
sweeps use are exercised end to end.
"""

from __future__ import annotations

import csv
import functools
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .closed_forms import (identical_isotropic_dynamic, quasistatic_continuum,
                           spring_block_critical)
from .dispersion import CharParams, _crossing_counts, count_unstable
from .friction import EvolutionLaw, RateState
from .materials import (BiMaterial, EffectiveMedium, ShearStiffness,
                        effective_medium, make_bimaterial)
from .neutral import Branch, critical_mode, solve_intersonic
from .simulate import estimate_critical_stiffness
from .transfer import f_intersonic, f_laplace

__all__ = ["VerifyResult", "run_all", "ALL_CHECKS", "FIGURE_PRESETS"]

# (speed_ratio, mu_ratio) pairs behind fig1..fig8, all swept at b/a = 1.2
FIGURE_PRESETS: tuple[tuple[float, float], ...] = (
    (1.2, 1.0), (5.0, 1.0), (5.0, 10.0), (5.0, 0.1),
)
FIGURE_B_OVER_A = 1.2
FIGURE_Q_GRID = (1e-2, 1e1, 200)


@dataclass(frozen=True)
class VerifyResult:
    name: str
    ok: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        tag = "PASS" if self.ok else "FAIL"
        return f"{tag} {self.name}: {self.detail} [{self.elapsed:.2f}s]"


def _gate(name: str, budget: float = math.inf):
    """Make a check that returns (ok, detail) into a gate that returns a
    VerifyResult: the gate times the check and fails it, saying so, when the
    time reaches budget seconds."""
    def wrap(check):
        @functools.wraps(check)
        def gate() -> VerifyResult:
            t0 = time.perf_counter()
            ok, detail = check()
            elapsed = time.perf_counter() - t0
            if elapsed >= budget:
                ok, detail = False, f"{detail}; over its {budget:g} s budget"
            return VerifyResult(name, ok, detail, elapsed)
        return gate
    return wrap


def _dimensional_pair(q: float, b_over_a: float, speed_ratio: float,
                      mu_ratio: float):
    """Friction and bi-material realizing a given q on the slow side."""
    a, sigma_o, L, mu, c1 = 0.01, 1e6, 1e-4, 30e9, 3000.0
    b = a * b_over_a
    v_o = q * 2.0 * math.sqrt(a * (b - a)) * sigma_o * c1 / mu
    friction = RateState(a=a, b=b, L=L, sigma_o=sigma_o, v_o=v_o)
    bm = make_bimaterial(EffectiveMedium(mu=mu, c1=c1),
                         EffectiveMedium(mu=mu * mu_ratio, c1=c1 * speed_ratio))
    return friction, bm


@_gate("identical-isotropic reduction", budget=1.0)
def check_identical_reduction() -> tuple[bool, str]:
    """Identical isotropic media reduce to the closed dynamic solution."""
    worst = 0.0
    for q in np.logspace(-3.0, 3.0, 50):
        fr, bm = _dimensional_pair(float(q), 1.2, 1.0, 1.0)
        mode = critical_mode(fr, bm).mode
        k_ref, c_ref = identical_isotropic_dynamic(fr, bm.slow.mu, bm.slow.c1)
        worst = max(worst,
                    abs(mode.c_over_c1 * bm.slow.c1 - c_ref) / c_ref,
                    abs(mode.k_mag - k_ref) / k_ref)
    return worst <= 1e-10, f"worst rel err {worst:.2e} (tol 1e-10) over 50 q"


@_gate("subsonic identity", budget=1.0)
def check_subsonic_identity() -> tuple[bool, str]:
    """k_hat = F(0)/F(c) and |k|c = sqrt((b-a)/a)*v_o/L on every sweep row.

    F(c) is taken from the Laplace form at p = i*|k|*c, which shares no code
    with the subsonic solver's kernel.
    """
    lo, hi, n = FIGURE_Q_GRID
    grid = np.logspace(math.log10(lo), math.log10(hi), n)
    worst_k = worst_w = 0.0
    for speed_ratio, mu_ratio in FIGURE_PRESETS:
        f0 = 2.0 * mu_ratio / (1.0 + mu_ratio)
        for q in grid:
            fr, bm = _dimensional_pair(float(q), FIGURE_B_OVER_A,
                                       speed_ratio, mu_ratio)
            mode = critical_mode(fr, bm).mode
            k_ident = f0 / f_laplace(1.0, 1j * mode.c_over_c1 * bm.slow.c1, bm).real
            worst_k = max(worst_k, abs(mode.k_hat - k_ident) / k_ident)
            w_ref = spring_block_critical(fr)[1]
            w_num = mode.k_mag * mode.c_over_c1 * bm.slow.c1
            worst_w = max(worst_w, abs(w_num - w_ref) / w_ref)
    return (worst_k <= 1e-12 and worst_w <= 1e-12,
            f"worst k_hat err {worst_k:.2e}, worst |k|c err {worst_w:.2e} "
            f"(tol 1e-12) over 4x{n} rows")


@_gate("quasi-static limits")
def check_quasistatic_limits() -> tuple[bool, str]:
    """q -> 0 recovers the quasi-static critical wavenumbers."""
    worst_pair = 0.0
    for speed_ratio, mu_ratio in FIGURE_PRESETS:
        fr, bm = _dimensional_pair(1e-6, FIGURE_B_OVER_A, speed_ratio, mu_ratio)
        mode = critical_mode(fr, bm).mode
        k_ref = quasistatic_continuum(fr, bm.slow.mu, bm.fast.mu)[0]
        worst_pair = max(worst_pair, abs(mode.k_mag - k_ref) / k_ref)

    # orthotropic sliding on isotropic: the dissimilar formula with the
    # effective modulus must match the named orthotropic formula
    orth = ShearStiffness(c44=28e9, c45=0.0, c55=40e9, rho=2700.0)
    slow = effective_medium(orth)
    mu_iso, rho_iso = 32e9, 1800.0
    iso = EffectiveMedium(mu=mu_iso, c1=math.sqrt(mu_iso / rho_iso))
    bm = make_bimaterial(slow, iso)
    a, b, L, sigma_o = 0.01, 0.012, 1e-4, 1e6
    v_o = 1e-6 * 2.0 * math.sqrt(a * (b - a)) * sigma_o * bm.slow.c1 / bm.slow.mu
    fr = RateState(a=a, b=b, L=L, sigma_o=sigma_o, v_o=v_o)
    k_named = (sigma_o * (b - a) / L
               * (1.0 + mu_iso / math.sqrt(orth.c55 * orth.c44)) / mu_iso)
    k_closed = quasistatic_continuum(fr, mu_iso, mu_prime=bm.slow.mu)[0]
    err_closed = abs(k_closed - k_named) / k_named
    mode = critical_mode(fr, bm).mode
    err_solver = abs(mode.k_mag - k_named) / k_named
    return (worst_pair <= 1e-4 and err_solver <= 1e-4 and err_closed <= 1e-10,
            f"dissimilar worst {worst_pair:.2e} (tol 1e-4), orthotropic "
            f"solver {err_solver:.2e} (tol 1e-4), reduction {err_closed:.2e} "
            f"(tol 1e-10)")


@_gate("crossing certification", budget=30.0)
def check_crossing_certification() -> tuple[bool, str]:
    """Root counts flip 0 -> 2 across the predicted critical wavenumber."""
    bad: list[str] = []
    for speed_ratio, mu_ratio in FIGURE_PRESETS:
        for q in (0.1, 1.0, 10.0):
            fr, bm = _dimensional_pair(q, FIGURE_B_OVER_A,
                                       speed_ratio, mu_ratio)
            above, below = _crossing_counts(fr, bm)
            if (above, below) != (0, 2):
                bad.append(f"({speed_ratio},{mu_ratio},q={q}):{above}/{below}")
    return not bad, ("all 12 cases count 0 above and 2 below" if not bad
                     else "bad counts " + ", ".join(bad))


@_gate("intersonic structure")
def check_intersonic_structure() -> tuple[bool, str]:
    """Preset (1.2, 1): a q-window carries exactly two intersonic modes."""
    speed_ratio, mu_ratio = 1.2, 1.0
    problems: list[str] = []
    # (q, intersonic modes expected): below the window, then inside it
    for q, expected in ((0.01, 0), (0.1, 0), (0.5, 0), (1.0, 2), (2.0, 2),
                        (10.0, 2)):
        fr, bm = _dimensional_pair(q, FIGURE_B_OVER_A, speed_ratio, mu_ratio)
        sub = critical_mode(fr, bm).mode
        if sub.branch is not Branch.SUBSONIC or not sub.c_over_c1 < 1.0:
            problems.append(f"q={q}: critical mode not below both wave speeds")
        modes = solve_intersonic(q, FIGURE_B_OVER_A, bm)
        if len(modes) != expected:
            problems.append(f"q={q}: {len(modes)} modes "
                            f"{'inside' if expected else 'below'} the window")
        for mo in modes:
            if not 1.0 < mo.c_over_c1 < speed_ratio:
                problems.append(f"q={q}: c/c1={mo.c_over_c1} outside window")
            if not mo.k_hat < sub.k_hat:
                problems.append(f"q={q}: intersonic k_hat not below subsonic")
    return not problems, ("0 modes at q in {0.01,0.1,0.5}, 2 at q in "
                          "{1,2,10}, critical mode subsonic throughout"
                          if not problems else "; ".join(problems))


@_gate("velocity strengthening")
def check_velocity_strengthening() -> tuple[bool, str]:
    """b < a: no unstable root at any wavenumber, and critical_mode's
    StabilityVerdict has mode None (always stable)."""
    fr = RateState(a=0.01, b=0.008, L=1e-4, sigma_o=1e6, v_o=1e-3)
    bm = make_bimaterial(EffectiveMedium(mu=30e9, c1=3000.0),
                         EffectiveMedium(mu=30e9, c1=3600.0))
    mu, mu_p = bm.slow.mu, bm.fast.mu
    k_scale = abs(fr.b - fr.a) * fr.sigma_o * (mu + mu_p) / (fr.L * mu * mu_p)
    counts = [count_unstable(CharParams(k=float(f) * k_scale, friction=fr,
                                        bimaterial=bm)).n_unstable
              for f in np.logspace(-2.0, 2.0, 10)]
    mode = critical_mode(fr, bm).mode
    return (all(c == 0 for c in counts) and mode is None,
            f"counts {counts}, verdict "
            f"{'always-stable' if mode is None else 'critical-mode'}")


@_gate("ODE oracle", budget=5.0)
def check_ode_oracle() -> tuple[bool, str]:
    """Nonlinear spring-block runs reproduce the closed-form threshold."""
    fr = RateState(a=0.01, b=0.015, L=1e-5, sigma_o=1e6, v_o=1e-3)
    omega_ref = spring_block_critical(fr)[1]
    inertial_mass = 0.5 * fr.a * fr.sigma_o * fr.L / fr.v_o ** 2
    problems: list[str] = []
    estimates: dict[float, list[float]] = {0.0: [], inertial_mass: []}
    for law in (EvolutionLaw.AGEING, EvolutionLaw.SLIP):
        for mass in (0.0, inertial_mass):
            k_est, omega_est = estimate_critical_stiffness(fr, law, mass=mass)
            k_ref = spring_block_critical(fr, mass)[0]
            if abs(k_est - k_ref) / k_ref > 0.005:
                problems.append(f"{law.value} m={mass:g}: K off by "
                                f"{abs(k_est / k_ref - 1):.3%}")
            if abs(omega_est - omega_ref) / omega_ref > 0.001:
                problems.append(f"{law.value} m={mass:g}: omega off by "
                                f"{abs(omega_est / omega_ref - 1):.3%}")
            estimates[mass].append(k_est)
    for mass, pair in estimates.items():
        if abs(pair[0] - pair[1]) / pair[0] > 0.001:
            problems.append(f"laws disagree at m={mass:g}")
    return not problems, ("K within 0.5% and omega within 0.1% for both laws, "
                          "both masses, laws within 0.1%"
                          if not problems else "; ".join(problems))


@_gate("branch consistency")
def check_branch_consistency() -> tuple[bool, str]:
    """Intersonic transfer values equal the on-axis Laplace limit."""
    worst = 0.0
    for speed_ratio, mu_ratio in FIGURE_PRESETS:
        bm = BiMaterial.from_ratios(mu_ratio, speed_ratio)
        xs = np.linspace(1.0, speed_ratio, 102)[1:-1]
        for x in xs:
            closed = f_intersonic(float(x), bm)
            limit = f_laplace(1.0, 1j * float(x) * bm.slow.c1, bm)
            worst = max(worst, abs(closed - limit) / abs(limit))
    return worst <= 1e-10, (f"worst rel gap {worst:.2e} (tol 1e-10) at 100 "
                            f"points per preset")


@_gate("figures regeneration")
def check_figures() -> tuple[bool, str]:
    """The figures writer emits 8 CSVs with the published trends."""
    from .cli import write_figures  # late import: cli pulls this module in
    problems: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_figures(Path(tmp))
        if len(paths) != 8:
            problems.append(f"{len(paths)} files")
        for i, path in enumerate(paths):
            qs: list[float] = []
            vals: list[float] = []
            with open(path, newline="") as fh:
                for row in csv.reader(r for r in fh if not r.startswith("#")):
                    if row[0] == "q":
                        continue
                    if row[1] == Branch.SUBSONIC.value:
                        qs.append(float(row[0]))
                        vals.append(float(row[2]))
            if len(qs) != FIGURE_Q_GRID[2]:
                problems.append(f"{path.name}: {len(qs)} subsonic rows")
                continue
            if i % 2 == 0:
                # odd-numbered files hold k_hat
                if any(b < a for a, b in zip(vals, vals[1:])):
                    problems.append(f"{path.name}: k_hat not nondecreasing")
                if min(vals) < 1.0:
                    problems.append(f"{path.name}: k_hat below 1")
            else:
                if any(b <= a for a, b in zip(vals, vals[1:])):
                    problems.append(f"{path.name}: c/c1 not increasing")
                if vals[-1] >= 1.0:
                    problems.append(f"{path.name}: c/c1 reached c1")
    return not problems, ("8 files, subsonic k_hat nondecreasing and >= 1, "
                          "c/c1 increasing toward a limit below 1"
                          if not problems else "; ".join(problems))


ALL_CHECKS = (
    check_identical_reduction,
    check_subsonic_identity,
    check_quasistatic_limits,
    check_crossing_certification,
    check_intersonic_structure,
    check_velocity_strengthening,
    check_ode_oracle,
    check_branch_consistency,
    check_figures,
)


def run_all() -> list[VerifyResult]:
    """Run every certification check in order."""
    return [check() for check in ALL_CHECKS]
