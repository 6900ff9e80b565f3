"""Command-line front end: solvers, sweeps, CSV plot data, certification.

Subcommands
-----------
medium    effective modulus and wave speed from stiffness components
kcr       critical wavenumber for one parameter set
sweep     neutral modes over a q grid, written as CSV
figures   the eight preset sweeps behind the published plots
roots     certified unstable-root count at one wavenumber
simulate  nonlinear spring-block trajectory, written as CSV
verify    run the certification suite and print PASS/FAIL lines

Every option can also come from a JSON file via --config (keys mirror the
flag names in snake_case); explicit flags override the file.  Outputs are
bit-identical for identical configs: full-precision decimal floats, fixed
column order, and a `#` provenance header carrying the tool version and the
effective config (no timestamps).  Exit codes: 0 success, 2 input error,
3 solver or verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Iterable, Sequence, TextIO

import numpy as np

from . import __version__
from .dispersion import CharParams, count_unstable
from .errors import InputError, SlipStabError
from .friction import EvolutionLaw, RateState, friction_stress
from .materials import (BiMaterial, EffectiveMedium, ShearStiffness,
                        effective_medium, make_bimaterial)
from .neutral import Stability, critical_mode, critical_mode_q, sweep_q
from .simulate import BlockState, simulate_spring_block
from .closed_forms import SpringBlockParams
from .verification import (FIGURE_B_OVER_A, FIGURE_PRESETS, FIGURE_Q_GRID,
                           run_all)

_FRICTION_FIELDS = ("a", "b", "L", "sigma_o", "v_o", "f")
_RAW_1 = ("c44", "c45", "c55", "rho")
_RAW_2 = ("c44_2", "c45_2", "c55_2", "rho_2")
_EFF_1 = ("mu", "c1")
_EFF_2 = ("mu_2", "c1_2")


def _merge_config(args: argparse.Namespace, fields: Sequence[str]) -> dict:
    """JSON config overlaid by explicitly given flags, restricted to fields."""
    cfg: dict[str, Any] = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            loaded = json.loads(path.read_text())
        except OSError as exc:
            raise InputError(f"config: {exc}")
        except json.JSONDecodeError as exc:
            raise InputError(f"config: invalid JSON ({exc})")
        if not isinstance(loaded, dict):
            raise InputError("config: top level must be a JSON object")
        for key, val in loaded.items():
            if key not in fields:
                raise InputError(f"config: unknown field {key!r}")
            cfg[key] = val
    for key in fields:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _require(cfg: dict, key: str) -> Any:
    if key not in cfg:
        raise InputError(f"missing required field {key}")
    return cfg[key]


def _friction_from(cfg: dict) -> RateState | None:
    """RateState if any friction field is present, else None."""
    if not any(k in cfg for k in _FRICTION_FIELDS):
        return None
    for k in ("a", "b", "L", "sigma_o", "v_o"):
        if k not in cfg:
            raise InputError(f"missing friction field {k}")
    try:
        return RateState(a=cfg["a"], b=cfg["b"], L=cfg["L"],
                         sigma_o=cfg["sigma_o"], v_o=cfg["v_o"],
                         f=cfg.get("f", 0.6))
    except ValueError as exc:
        raise InputError(str(exc))


def _side(cfg: dict, keys: Sequence[str], raw: bool) -> EffectiveMedium:
    try:
        if raw:
            c44, c45, c55, rho = (cfg.get(keys[0]), cfg.get(keys[1], 0.0),
                                  cfg.get(keys[2]), cfg.get(keys[3]))
            for name, val in zip(keys, (c44, c45, c55, rho)):
                if val is None and name not in (keys[1],):
                    raise InputError(f"missing material field {name}")
            return effective_medium(
                ShearStiffness(c44=c44, c45=c45, c55=c55, rho=rho))
        mu, c1 = cfg.get(keys[0]), cfg.get(keys[1])
        for name, val in zip(keys, (mu, c1)):
            if val is None:
                raise InputError(f"missing material field {name}")
        return EffectiveMedium(mu=mu, c1=c1)
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(str(exc))


def _dimensional_bimaterial(cfg: dict) -> BiMaterial:
    """Bi-material from raw stiffnesses or mu/c1 pairs; one side = identical."""
    has_raw = any(k in cfg for k in _RAW_1 + _RAW_2)
    has_eff = any(k in cfg for k in _EFF_1 + _EFF_2)
    if has_raw and has_eff:
        raise InputError("give stiffness components or mu/c1 values, not both")
    if has_raw:
        one = _side(cfg, _RAW_1, raw=True)
        two = (_side(cfg, _RAW_2, raw=True)
               if any(k in cfg for k in _RAW_2) else one)
    elif has_eff:
        one = _side(cfg, _EFF_1, raw=False)
        two = (_side(cfg, _EFF_2, raw=False)
               if any(k in cfg for k in _EFF_2) else one)
    else:
        raise InputError(
            "missing material input (c44/c45/c55/rho or mu/c1, with _2 "
            "suffix for the second side)")
    return make_bimaterial(one, two)


def _open_out(spec: str) -> tuple[TextIO, bool]:
    if spec == "-":
        return sys.stdout, False
    return open(spec, "w", newline=""), True


def _write_csv(out: str, columns: Sequence[str],
               rows: Iterable[Sequence[Any]], config: dict) -> None:
    fh, owned = _open_out(out)
    try:
        fh.write(f"# slipstab {__version__}\n")
        fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])
    finally:
        if owned:
            fh.close()


def _print_kv(key: str, value: Any) -> None:
    print(f"{key} = {value!r}" if isinstance(value, float)
          else f"{key} = {value}")


def _cmd_medium(args: argparse.Namespace) -> int:
    fields = _RAW_1 + _RAW_2
    cfg = _merge_config(args, fields)
    one = _side(cfg, _RAW_1, raw=True)
    _print_kv("mu", one.mu)
    _print_kv("c1", one.c1)
    if any(k in cfg for k in _RAW_2):
        two = _side(cfg, _RAW_2, raw=True)
        _print_kv("mu_2", two.mu)
        _print_kv("c1_2", two.c1)
        bm = make_bimaterial(one, two)
        _print_kv("mu_ratio", bm.mu_ratio)
        _print_kv("speed_ratio", bm.speed_ratio)
        _print_kv("swapped", bm.swapped)
    return 0


def _cmd_kcr(args: argparse.Namespace) -> int:
    fields = (("q", "b_over_a", "mu_ratio", "speed_ratio")
              + _FRICTION_FIELDS + _RAW_1 + _RAW_2 + _EFF_1 + _EFF_2)
    cfg = _merge_config(args, fields)
    friction = _friction_from(cfg)
    nondim = "q" in cfg
    if nondim and friction is not None:
        raise InputError("give q (nondimensional) or friction fields, not both")

    if nondim:
        q = cfg["q"]
        if not q > 0.0:
            raise InputError(f"q must be positive, got {q}")
        bm = BiMaterial.from_ratios(cfg.get("mu_ratio", 1.0),
                                    cfg.get("speed_ratio", 1.0))
        verdict = critical_mode_q(q, _require(cfg, "b_over_a"), bm)
    elif friction is None:
        raise InputError("missing input: give q/b_over_a or friction fields")
    else:
        bm = _dimensional_bimaterial(cfg)
        verdict = critical_mode(friction, bm)
    if verdict.status is Stability.ALWAYS_STABLE:
        print("always-stable")
        return 0
    mode = verdict.mode
    _print_kv("status", verdict.status.value)
    _print_kv("branch", mode.branch.value)
    _print_kv("c_over_c1", mode.c_over_c1)
    _print_kv("k_hat", mode.k_hat)
    if nondim:
        return 0
    _print_kv("k_mag", mode.k_mag)
    _print_kv("c", mode.c_over_c1 * bm.slow.c1)
    _print_kv("omega", mode.omega)
    return 0


def _sweep_grid(cfg: dict) -> list[float]:
    q_min = _require(cfg, "q_min")
    q_max = _require(cfg, "q_max")
    points = _require(cfg, "q_points")
    if not q_min > 0.0:
        raise InputError(f"q_min must be positive, got {q_min}")
    if not q_min < q_max:
        raise InputError(f"q_min must be below q_max, got {q_min} >= {q_max}")
    if int(points) != points or points < 2:
        raise InputError(f"q_points must be an integer >= 2, got {points}")
    if cfg.get("log", False):
        grid = np.logspace(math.log10(q_min), math.log10(q_max), int(points))
    else:
        grid = np.linspace(q_min, q_max, int(points))
    return [float(v) for v in grid]


def _cmd_sweep(args: argparse.Namespace) -> int:
    fields = ("q_min", "q_max", "q_points", "log",
              "mu_ratio", "speed_ratio", "b_over_a", "out")
    cfg = _merge_config(args, fields)
    grid = _sweep_grid(cfg)
    b_over_a = _require(cfg, "b_over_a")
    if b_over_a <= 1.0:
        raise InputError(f"b_over_a must exceed 1 for a sweep, got {b_over_a}")
    bm = BiMaterial.from_ratios(cfg.get("mu_ratio", 1.0),
                                cfg.get("speed_ratio", 1.0))
    rows = sweep_q(grid, b_over_a, bm)
    echo = {"mode": "sweep", "q_min": cfg["q_min"], "q_max": cfg["q_max"],
            "q_points": int(cfg["q_points"]), "log": bool(cfg.get("log", False)),
            "mu_ratio": bm.mu_ratio, "speed_ratio": bm.speed_ratio,
            "b_over_a": b_over_a}
    _write_csv(cfg.get("out", "sweep.csv"),
               ("q", "branch", "c_over_c1", "k_hat"),
               ((row.q, row.branch.value, row.c_over_c1, row.k_hat)
                for row in rows),
               echo)
    return 0


def write_figures(outdir: Path) -> list[Path]:
    """Write fig1.csv .. fig8.csv for the four bi-material presets.

    Odd files hold (q, branch, k_hat), even files (q, branch, c_over_c1);
    consecutive pairs share one preset.  Returns the paths in order.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    lo, hi, n = FIGURE_Q_GRID
    grid = [float(v) for v in np.logspace(math.log10(lo), math.log10(hi), n)]
    paths: list[Path] = []
    for i, (speed_ratio, mu_ratio) in enumerate(FIGURE_PRESETS):
        bm = BiMaterial.from_ratios(mu_ratio, speed_ratio)
        rows = sweep_q(grid, FIGURE_B_OVER_A, bm)
        base = {"mode": "figures", "q_min": lo, "q_max": hi, "q_points": n,
                "log": True, "mu_ratio": mu_ratio, "speed_ratio": speed_ratio,
                "b_over_a": FIGURE_B_OVER_A}
        for offset, column in ((1, "k_hat"), (2, "c_over_c1")):
            path = outdir / f"fig{2 * i + offset}.csv"
            _write_csv(str(path), ("q", "branch", column),
                       ((row.q, row.branch.value, getattr(row, column))
                        for row in rows),
                       {**base, "column": column})
            paths.append(path)
    return paths


def _cmd_figures(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, ("out",))
    for path in write_figures(Path(cfg.get("out", "figures"))):
        print(path)
    return 0


def _cmd_roots(args: argparse.Namespace) -> int:
    fields = ("k",) + _FRICTION_FIELDS + _RAW_1 + _RAW_2 + _EFF_1 + _EFF_2
    cfg = _merge_config(args, fields)
    friction = _friction_from(cfg)
    if friction is None:
        raise InputError("missing friction fields (a, b, L, sigma_o, v_o)")
    bm = _dimensional_bimaterial(cfg)
    k = _require(cfg, "k")
    try:
        count = count_unstable(CharParams(k=k, friction=friction,
                                          bimaterial=bm))
    except ValueError as exc:
        raise InputError(str(exc))
    _print_kv("n_unstable", count.n_unstable)
    _print_kv("contour_re_lo", count.contour[0])
    _print_kv("contour_re_hi", count.contour[1])
    _print_kv("contour_im_max", count.contour[2])
    _print_kv("samples", count.samples)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    fields = (("stiffness", "mass", "law", "duration", "tol", "perturb",
               "out") + _FRICTION_FIELDS)
    cfg = _merge_config(args, fields)
    friction = _friction_from(cfg)
    if friction is None:
        raise InputError("missing friction fields (a, b, L, sigma_o, v_o)")
    try:
        sb = SpringBlockParams(stiffness=_require(cfg, "stiffness"),
                               mass=cfg.get("mass", 0.0), friction=friction)
        law = EvolutionLaw(cfg.get("law", "ageing"))
    except ValueError as exc:
        raise InputError(str(exc))
    perturb = cfg.get("perturb", 0.0)
    init = None
    if perturb != 0.0:
        v0 = (1.0 + perturb) * friction.v_o
        if not v0 > 0.0:
            raise InputError(f"perturb must exceed -1, got {perturb}")
        theta0 = friction.L / friction.v_o
        init = BlockState(v=v0, theta=theta0,
                          tau=friction_stress(friction, friction.v_o, theta0))
    traj = simulate_spring_block(sb, law, init=init,
                                 duration=cfg.get("duration"),
                                 tol=cfg.get("tol", 1e-10))
    echo = {"mode": "simulate", "stiffness": sb.stiffness, "mass": sb.mass,
            "law": law.value, "tol": cfg.get("tol", 1e-10),
            "perturb": perturb, "duration": traj.t[-1] - traj.t[0],
            "a": friction.a, "b": friction.b, "L": friction.L,
            "sigma_o": friction.sigma_o, "v_o": friction.v_o,
            "blew_up": traj.blew_up}
    _write_csv(cfg.get("out", "trajectory.csv"), ("t", "V", "theta", "tau"),
               ((float(t), float(v), float(th), float(ta)) for t, v, th, ta
                in zip(traj.t, traj.v, traj.theta, traj.tau)),
               echo)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_all()
    for result in results:
        print(result.line())
    return 0 if all(r.ok for r in results) else 3


def _add_friction_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--a", type=float, help="direct-effect coefficient")
    sub.add_argument("--b", type=float, help="state-effect coefficient")
    sub.add_argument("--L", type=float, help="state evolution distance (m)")
    sub.add_argument("--sigma-o", type=float, dest="sigma_o",
                     help="normal stress (Pa)")
    sub.add_argument("--v-o", type=float, dest="v_o",
                     help="steady sliding velocity (m/s)")
    sub.add_argument("--f", type=float,
                     help="base friction coefficient (default 0.6)")


def _add_material_flags(sub: argparse.ArgumentParser,
                        raw_only: bool = False) -> None:
    for name in _RAW_1 + _RAW_2:
        sub.add_argument(f"--{name.replace('_', '-')}", type=float,
                         dest=name, help=argparse.SUPPRESS)
    if not raw_only:
        for name in _EFF_1 + _EFF_2:
            sub.add_argument(f"--{name.replace('_', '-')}", type=float,
                             dest=name, help=argparse.SUPPRESS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slipstab",
        description="Stability of steady frictional sliding: spring-block "
                    "closed forms up to dynamic bi-material interfaces.")
    parser.add_argument("--version", action="version",
                        version=f"slipstab {__version__}")
    subs = parser.add_subparsers(dest="mode", required=True)

    def new(name: str, help_: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=help_)
        sub.add_argument("--config", help="JSON file with snake_case keys "
                                          "mirroring the flags")
        return sub

    medium = new("medium", "effective modulus and wave speed")
    _add_material_flags(medium, raw_only=True)

    kcr = new("kcr", "critical wavenumber for one parameter set")
    kcr.add_argument("--q", type=float, help="nondimensional velocity")
    kcr.add_argument("--b-over-a", type=float, dest="b_over_a")
    kcr.add_argument("--mu-ratio", type=float, dest="mu_ratio")
    kcr.add_argument("--speed-ratio", type=float, dest="speed_ratio")
    _add_friction_flags(kcr)
    _add_material_flags(kcr)

    sweep = new("sweep", "neutral-mode CSV over a q grid")
    sweep.add_argument("--q-min", type=float, dest="q_min")
    sweep.add_argument("--q-max", type=float, dest="q_max")
    sweep.add_argument("--q-points", type=int, dest="q_points")
    sweep.add_argument("--log", action="store_const", const=True,
                       help="log-spaced grid")
    sweep.add_argument("--mu-ratio", type=float, dest="mu_ratio")
    sweep.add_argument("--speed-ratio", type=float, dest="speed_ratio")
    sweep.add_argument("--b-over-a", type=float, dest="b_over_a")
    sweep.add_argument("--out", help="CSV path, - for stdout (default sweep.csv)")

    figures = new("figures", "preset sweeps fig1.csv..fig8.csv")
    figures.add_argument("--out", help="output directory (default figures)")

    roots = new("roots", "certified unstable-root count at one wavenumber")
    roots.add_argument("--k", type=float, help="wavenumber (1/m)")
    _add_friction_flags(roots)
    _add_material_flags(roots)

    simulate = new("simulate", "nonlinear spring-block trajectory CSV")
    simulate.add_argument("--stiffness", type=float, help="spring (Pa/m)")
    simulate.add_argument("--mass", type=float, help="per area (kg/m^2)")
    simulate.add_argument("--law", choices=[l.value for l in EvolutionLaw])
    simulate.add_argument("--duration", type=float, help="seconds")
    simulate.add_argument("--tol", type=float, help="relative tolerance")
    simulate.add_argument("--perturb", type=float,
                          help="initial velocity offset as a fraction of v_o")
    simulate.add_argument("--out", help="CSV path, - for stdout")
    _add_friction_flags(simulate)

    new("verify", "run the certification suite")

    return parser


_COMMANDS = {
    "medium": _cmd_medium,
    "kcr": _cmd_kcr,
    "sweep": _cmd_sweep,
    "figures": _cmd_figures,
    "roots": _cmd_roots,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.mode](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SlipStabError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader stopped consuming (e.g. | head); not our failure
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
