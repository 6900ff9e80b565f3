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
flag names in snake_case); explicit flags override the file.  `verify` takes
no options.  A config value of the wrong type, and a `kcr` call that mixes q,
b_over_a or the ratios with friction or material fields, are input errors
(exit 2).  Outputs are bit-identical for identical configs: full-precision
decimal floats, fixed column order, and a `#` provenance header carrying the
tool version and the effective config (no timestamps).  Exit codes: 0
success, 2 input error, 3 solver or verification failure.  `main` alone
turns an error into a code, by its type: a SlipStabError that is also a
ValueError (see errors.py) rejects an input and exits 2 with `error: ...`;
any other SlipStabError exits 3 with `solver error: ...`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .dispersion import CharParams, count_unstable
from .errors import InputError, SlipStabError
from .friction import EvolutionLaw, RateState, friction_stress
from .materials import (BiMaterial, EffectiveMedium, ShearStiffness,
                        effective_medium, make_bimaterial)
from .neutral import SweepTable, critical_mode, critical_mode_q, sweep_q
from .simulate import BlockState, simulate_spring_block
from .closed_forms import SpringBlockParams
from .verification import (FIGURE_B_OVER_A, FIGURE_PRESETS, FIGURE_Q_GRID,
                           run_all)

# Input fields, in groups that several commands share: name -> (type, help).
# The flag is --name with _ written as -, the --config key is name.  The
# material flags are hidden from --help; a _2 suffix marks the second side.
_FRICTION = {
    "a": (float, "direct-effect coefficient"),
    "b": (float, "state-effect coefficient"),
    "L": (float, "state evolution distance (m)"),
    "sigma_o": (float, "normal stress (Pa)"),
    "v_o": (float, "steady sliding velocity (m/s)"),
    "f": (float, f"base friction coefficient (default {RateState.f})"),
}
_RAW_1 = dict.fromkeys(("c44", "c45", "c55", "rho"), (float, argparse.SUPPRESS))
_EFF_1 = dict.fromkeys(("mu", "c1"), (float, argparse.SUPPRESS))
_RAW_2, _EFF_2 = ({f"{k}_2": v for k, v in side.items()}
                  for side in (_RAW_1, _EFF_1))
_MATERIAL = {**_RAW_1, **_RAW_2, **_EFF_1, **_EFF_2}
_RATIOS = {
    "b_over_a": (float, "b/a of the friction law"),
    "mu_ratio": (float, "fast-side over slow-side modulus (default 1)"),
    "speed_ratio": (float, "fast-side over slow-side wave speed (default 1)"),
}
_OUT = {"out": (str, "output CSV path (- for stdout), or figures directory")}

# the JSON type of a config value, for each field type and each value type
_JSON_TYPES = {float: "number", int: "number", bool: "boolean", str: "string",
               EvolutionLaw: "string"}
_LAWS = [law.value for law in EvolutionLaw]

# the largest sweep grid: 1e5 q take about 0.8 s and 70 MB, so this bound
# keeps a sweep to seconds and below about 1 GB
MAX_Q_POINTS = 1_000_000


def _merge_config(args: argparse.Namespace, fields: dict) -> dict:
    """JSON config overlaid by explicitly given flags, restricted to fields
    and checked against their types."""
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
            want = _JSON_TYPES[fields[key][0]]
            if _JSON_TYPES.get(type(val)) != want:
                raise InputError(
                    f"config: {key} must be a {want}, got {json.dumps(val)}")
            if fields[key][0] is EvolutionLaw and val not in _LAWS:
                raise InputError(f"config: {key} must be one of "
                                 f"{', '.join(_LAWS)}, got {json.dumps(val)}")
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


def _build(cls: type, what: str, cfg: dict, keys: Iterable[str],
           **defaults: Any) -> Any:
    """Dataclass cls from the config values of keys, one per field in order.

    A field with no value takes defaults, else cls's own default; any other
    absent field is an input error that names its key.
    """
    kwargs = dict(defaults)
    for field, key in zip(dataclasses.fields(cls), keys):
        if key in cfg:
            kwargs[field.name] = cfg[key]
        elif (field.name not in kwargs
              and field.default is dataclasses.MISSING):
            raise InputError(f"missing {what} field {key}")
    return cls(**kwargs)


def _friction_from(cfg: dict, required: bool = False) -> RateState | None:
    """RateState from the friction fields, or None if there are none and
    they are not required."""
    if any(k in cfg for k in _FRICTION):
        return _build(RateState, "friction", cfg, _FRICTION)
    if required:
        raise InputError("missing friction fields (a, b, L, sigma_o, v_o)")
    return None


def _side(cfg: dict, keys: Iterable[str], raw: bool) -> EffectiveMedium:
    """One half-space from raw stiffnesses (c45 defaults to 0) or mu/c1."""
    if not raw:
        return _build(EffectiveMedium, "material", cfg, keys)
    return effective_medium(_build(ShearStiffness, "material", cfg, keys,
                                   c45=0.0))


def _dimensional_bimaterial(cfg: dict) -> BiMaterial:
    """Bi-material from raw stiffnesses or mu/c1 pairs; one side = identical."""
    has_raw = any(k in cfg for k in (*_RAW_1, *_RAW_2))
    has_eff = any(k in cfg for k in (*_EFF_1, *_EFF_2))
    if has_raw and has_eff:
        raise InputError("give stiffness components or mu/c1 values, not both")
    if not (has_raw or has_eff):
        raise InputError(
            "missing material input (c44/c45/c55/rho or mu/c1, with _2 "
            "suffix for the second side)")
    one_keys, two_keys = (_RAW_1, _RAW_2) if has_raw else (_EFF_1, _EFF_2)
    one = _side(cfg, one_keys, has_raw)
    two = (_side(cfg, two_keys, has_raw)
           if any(k in cfg for k in two_keys) else one)
    return make_bimaterial(one, two)


def _write_csv(out: str, columns: dict[str, Sequence], config: dict) -> None:
    """Write the equal-length named columns as CSV after the two `#` header
    lines, in one write: floats by repr, strings as they are (unquoted)."""
    cells = [col if isinstance(col[0], str) else map(repr, col)
             for col in columns.values()]
    text = "\n".join([f"# slipstab {__version__}",
                      "# config: " + json.dumps(config, sort_keys=True),
                      ",".join(columns), *map(",".join, zip(*cells)), ""])
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc.strerror}")


def _sweep_columns(table: SweepTable) -> dict[str, Sequence]:
    """The sweep CSV columns of table.  A q's rows are adjacent, so its
    repr is taken once for all of them; Branch members join as their plain
    names."""
    q_text, last, text = [], None, ""
    for q in table.q:
        if q != last:
            last, text = q, repr(q)
        q_text.append(text)
    return {"q": q_text, "branch": table.branch,
            "c_over_c1": table.c_over_c1, "k_hat": table.k_hat}


def _print_kv(**record: Any) -> None:
    for key, value in record.items():
        print(f"{key} = {value!r}" if isinstance(value, float)
              else f"{key} = {value}")


def _cmd_medium(cfg: dict) -> int:
    one = _side(cfg, _RAW_1, raw=True)
    _print_kv(mu=one.mu, c1=one.c1)
    if any(k in cfg for k in _RAW_2):
        two = _side(cfg, _RAW_2, raw=True)
        bm = make_bimaterial(one, two)
        _print_kv(mu_2=two.mu, c1_2=two.c1, mu_ratio=bm.mu_ratio,
                  speed_ratio=bm.speed_ratio, swapped=bm.slow is not one)
    return 0


def _cmd_kcr(cfg: dict) -> int:
    friction = _friction_from(cfg)
    nondim = "q" in cfg
    if not nondim and friction is None:
        raise InputError("missing input: give q/b_over_a or friction fields")
    given = [k for k in ("q", *_RATIOS) if k in cfg]
    for group, keys in (("friction", _FRICTION), ("material", _MATERIAL)):
        if given and any(k in cfg for k in keys):
            raise InputError(f"give {given[0]} (nondimensional) or {group} "
                             f"fields, not both")
    if nondim:
        bm = BiMaterial.from_ratios(cfg.get("mu_ratio", 1.0),
                                    cfg.get("speed_ratio", 1.0))
        verdict = critical_mode_q(cfg["q"], _require(cfg, "b_over_a"), bm)
    else:
        bm = _dimensional_bimaterial(cfg)
        verdict = critical_mode(friction, bm)
    mode = verdict.mode
    if mode is None:
        print("always-stable")
        return 0
    _print_kv(status="critical-mode", branch=mode.branch.value,
              c_over_c1=mode.c_over_c1, k_hat=mode.k_hat)
    if not nondim:
        _print_kv(k_mag=mode.k_mag, c=mode.c_over_c1 * bm.slow.c1,
                  omega=mode.omega)
    return 0


def _sweep_grid(cfg: dict) -> list[float]:
    q_min, q_max, points = (_require(cfg, k) for k in ("q_min", "q_max", "q_points"))
    for key, val in (("q_min", q_min), ("q_max", q_max)):
        if not 0.0 < val < math.inf:
            raise InputError(f"{key} must be positive and finite, got {val}")
    if not q_min < q_max:
        raise InputError(f"q_min must be below q_max, got {q_min} >= {q_max}")
    if not 2 <= points <= MAX_Q_POINTS or int(points) != points:
        raise InputError(f"q_points must be an integer from 2 to "
                         f"{MAX_Q_POINTS}, got {points}")
    if cfg.get("log", False):
        grid = np.logspace(math.log10(q_min), math.log10(q_max), int(points))
    else:
        grid = np.linspace(q_min, q_max, int(points))
    return [float(v) for v in grid]


def _sweep_echo(mode: str, cfg: dict, bm: BiMaterial, b_over_a: float) -> dict:
    """The `# config:` record of a sweep over the q grid of cfg."""
    return {"mode": mode, "q_min": cfg["q_min"], "q_max": cfg["q_max"],
            "q_points": int(cfg["q_points"]), "log": bool(cfg.get("log", False)),
            "mu_ratio": bm.mu_ratio, "speed_ratio": bm.speed_ratio,
            "b_over_a": b_over_a}


def _cmd_sweep(cfg: dict) -> int:
    grid = _sweep_grid(cfg)
    b_over_a = _require(cfg, "b_over_a")
    bm = BiMaterial.from_ratios(cfg.get("mu_ratio", 1.0),
                                cfg.get("speed_ratio", 1.0))
    table = sweep_q(grid, b_over_a, bm)
    _write_csv(cfg.get("out", "sweep.csv"), _sweep_columns(table),
               _sweep_echo("sweep", cfg, bm, b_over_a))
    return 0


def write_figures(outdir: Path) -> list[Path]:
    """Write fig1.csv .. fig8.csv for the four bi-material presets.

    Odd files hold (q, branch, k_hat), even files (q, branch, c_over_c1);
    consecutive pairs share one preset.  Returns the paths in order.
    """
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {outdir}: {exc.strerror}")
    grid_cfg = dict(zip(("q_min", "q_max", "q_points"), FIGURE_Q_GRID),
                    log=True)
    grid = _sweep_grid(grid_cfg)
    paths: list[Path] = []
    for i, (speed_ratio, mu_ratio) in enumerate(FIGURE_PRESETS):
        bm = BiMaterial.from_ratios(mu_ratio, speed_ratio)
        columns = _sweep_columns(sweep_q(grid, FIGURE_B_OVER_A, bm))
        base = _sweep_echo("figures", grid_cfg, bm, FIGURE_B_OVER_A)
        for offset, column in ((1, "k_hat"), (2, "c_over_c1")):
            path = outdir / f"fig{2 * i + offset}.csv"
            _write_csv(str(path),
                       {name: columns[name] for name in ("q", "branch", column)},
                       {**base, "column": column})
            paths.append(path)
    return paths


def _cmd_figures(cfg: dict) -> int:
    for path in write_figures(Path(cfg.get("out", "figures"))):
        print(path)
    return 0


def _cmd_roots(cfg: dict) -> int:
    friction = _friction_from(cfg, required=True)
    bm = _dimensional_bimaterial(cfg)
    k = _require(cfg, "k")
    count = count_unstable(CharParams(k=k, friction=friction, bimaterial=bm))
    re_lo, re_hi, im_max = count.contour
    _print_kv(n_unstable=count.n_unstable, contour_re_lo=re_lo,
              contour_re_hi=re_hi, contour_im_max=im_max, samples=count.samples)
    return 0


def _cmd_simulate(cfg: dict) -> int:
    friction = _friction_from(cfg, required=True)
    sb = SpringBlockParams(stiffness=_require(cfg, "stiffness"),
                           mass=cfg.get("mass", 0.0), friction=friction)
    law = EvolutionLaw(cfg.get("law", "ageing"))
    perturb = cfg.get("perturb", 0.0)
    init = None
    if perturb != 0.0:
        v0 = (1.0 + perturb) * friction.v_o
        if not v0 > 0.0:
            raise InputError(f"perturb must exceed -1, got {perturb}")
        theta0 = friction.L / friction.v_o
        init = BlockState(v=v0, theta=theta0,
                          tau=friction_stress(friction, friction.v_o, theta0))
    traj = simulate_spring_block(sb, law, init=init, **{
        k: cfg[k] for k in ("duration", "tol") if k in cfg})
    echo = {"mode": "simulate", "perturb": perturb,
            "duration": traj.t[-1] - traj.t[0],
            **{k: traj.metadata[k]
               for k in ("law", "stiffness", "mass", "tol", "blew_up")},
            **{k: getattr(friction, k)
               for k in ("a", "b", "L", "sigma_o", "v_o")}}
    series = {"t": traj.t, "V": traj.v, "theta": traj.theta, "tau": traj.tau}
    _write_csv(cfg.get("out", "trajectory.csv"),
               {name: values.tolist() for name, values in series.items()}, echo)
    return 0


def _cmd_verify(cfg: dict) -> int:
    results = run_all()
    for result in results:
        print(result.line())
    return 0 if all(r.ok for r in results) else 3


# subcommand -> (handler, help, input fields)
_COMMANDS: dict[str, tuple[Callable[[dict], int], str, dict]] = {
    "medium": (_cmd_medium, "effective modulus and wave speed",
               {**_RAW_1, **_RAW_2}),
    "kcr": (_cmd_kcr, "critical wavenumber for one parameter set",
            {"q": (float, "nondimensional velocity"), **_RATIOS, **_FRICTION,
             **_MATERIAL}),
    "sweep": (_cmd_sweep, "neutral-mode CSV over a q grid",
              {"q_min": (float, "smallest q"), "q_max": (float, "largest q"),
               "q_points": (int, "number of q values"),
               "log": (bool, "log-spaced grid"), **_RATIOS, **_OUT}),
    "figures": (_cmd_figures, "preset sweeps fig1.csv..fig8.csv", _OUT),
    "roots": (_cmd_roots, "certified unstable-root count at one wavenumber",
              {"k": (float, "wavenumber (1/m)"), **_FRICTION, **_MATERIAL}),
    "simulate": (_cmd_simulate, "nonlinear spring-block trajectory CSV",
                 {"stiffness": (float, "spring (Pa/m)"),
                  "mass": (float, "per area (kg/m^2)"),
                  "law": (EvolutionLaw, "state evolution law"),
                  "duration": (float, "seconds"),
                  "tol": (float, "relative tolerance"),
                  "perturb": (float, "initial velocity offset as a fraction "
                                     "of v_o"),
                  **_OUT, **_FRICTION}),
    "verify": (_cmd_verify, "run the certification suite", {}),
}


@functools.cache   # one parser per process; parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slipstab",
        description="Stability of steady frictional sliding: spring-block "
                    "closed forms up to dynamic bi-material interfaces.")
    parser.add_argument("--version", action="version",
                        version=f"slipstab {__version__}")
    subs = parser.add_subparsers(dest="mode", required=True)
    for name, (_, help_, fields) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_)
        if fields:
            sub.add_argument("--config", help="JSON file with snake_case keys "
                                              "mirroring the flags")
        for field, (kind, text) in fields.items():
            flag = "--" + field.replace("_", "-")
            if kind is bool:
                sub.add_argument(flag, action="store_const", const=True,
                                 help=text)
            elif kind is EvolutionLaw:
                sub.add_argument(flag, choices=_LAWS, help=text)
            else:
                sub.add_argument(flag, type=kind, help=text)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler, _, fields = _COMMANDS[args.mode]
    try:
        return handler(_merge_config(args, fields))
    except SlipStabError as exc:
        rejected = isinstance(exc, ValueError)   # the input's fault
        print(f"{'error' if rejected else 'solver error'}: {exc}",
              file=sys.stderr)
        return 2 if rejected else 3
    except BrokenPipeError:
        # the reader stopped consuming (e.g. | head); not our failure
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())
