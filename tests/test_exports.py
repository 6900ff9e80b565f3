"""The package namespace: every exported name resolves, every public name
of the solver modules is re-exported, so a deleted name cannot linger, and
the public surface, names, options and record fields, is pinned."""

from __future__ import annotations

import dataclasses
import enum
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import slipstab


def test_every_exported_name_resolves():
    missing = [name for name in slipstab.__all__ if not hasattr(slipstab, name)]
    assert missing == []


@pytest.mark.parametrize("module", ["errors", "materials", "friction",
                                    "transfer", "neutral", "closed_forms",
                                    "dispersion", "simulate"])
def test_module_exports_reach_the_package(module):
    mod = importlib.import_module(f"slipstab.{module}")
    assert all(hasattr(mod, name) for name in mod.__all__)
    assert set(mod.__all__) <= set(slipstab.__all__)


PUBLIC = [
    "BiMaterial", "BlockState", "BlockTrajectory", "Branch", "BranchPole",
    "CharParams", "ContourThroughZero", "DomainError", "EffectiveMedium",
    "EvolutionLaw", "Inconclusive", "InputError", "NeutralMode",
    "NonpositiveVelocity", "NotPositiveDefinite", "RateState", "RootCount",
    "ShearStiffness", "SlipStabError", "SpringBlockParams", "StabilityVerdict",
    "StepFailure", "SweepTable", "VelocityStrengthening", "VerifyResult",
    "__version__", "certify_crossing", "characteristic_residual",
    "count_unstable", "critical_mode", "critical_mode_q", "effective_medium",
    "estimate_critical_stiffness", "f_intersonic", "f_laplace", "f_normalized",
    "friction_stress", "identical_isotropic_dynamic",
    "make_bimaterial", "nondim_q", "polish_root", "quasistatic_continuum",
    "run_all", "simulate_spring_block", "solve_intersonic", "solve_subsonic",
    "spring_block_critical", "sweep_q",
]


def test_public_surface_is_pinned():
    assert len(slipstab.__all__) == len(set(slipstab.__all__)) == 48
    assert sorted(slipstab.__all__) == PUBLIC


# every optional parameter of every public callable: adding or dropping an
# option takes an edit here, as adding or dropping a name does above
KNOBS = {
    "BlockTrajectory": ("metadata",),
    "NeutralMode": ("k_mag", "omega"),
    "RateState": ("f",),
    "StabilityVerdict": ("mode",),
    "StepFailure": ("last_state",),
    "estimate_critical_stiffness": ("mass",),
    "simulate_spring_block": ("init", "duration", "tol"),
    "spring_block_critical": ("mass",),
}


def _options(obj) -> tuple[str, ...]:
    """Names of obj's parameters that have a default.  An Enum's call
    signature is the enum machinery's, and an exception that keeps the
    builtin constructor has no signature: neither has options of its own."""
    if isinstance(obj, type) and issubclass(obj, enum.Enum):
        return ()
    try:
        params = inspect.signature(obj).parameters.values()
    except ValueError:
        return ()
    return tuple(p.name for p in params if p.default is not inspect.Parameter.empty)


def test_public_options_are_pinned():
    options = {name: _options(getattr(slipstab, name)) for name in slipstab.__all__
               if callable(getattr(slipstab, name))}
    assert {name: opts for name, opts in options.items() if opts} == KNOBS


# the constructor fields of every public dataclass: a record holds only what
# it is built from, so adding a field, or storing a value the code derives,
# takes an edit here
RECORDS = {
    "BiMaterial": ("slow", "fast"),
    "BlockState": ("v", "theta", "tau"),
    "BlockTrajectory": ("t", "v", "theta", "tau", "metadata"),
    "CharParams": ("k", "friction", "bimaterial"),
    "EffectiveMedium": ("mu", "c1"),
    "NeutralMode": ("q", "branch", "c_over_c1", "k_hat", "k_mag", "omega"),
    "RateState": ("a", "b", "L", "sigma_o", "v_o", "f"),
    "RootCount": ("n_unstable", "contour", "samples"),
    "ShearStiffness": ("c44", "c45", "c55", "rho"),
    "SpringBlockParams": ("stiffness", "mass", "friction"),
    "StabilityVerdict": ("mode",),
    "SweepTable": ("q", "branch", "c_over_c1", "k_hat"),
    "VerifyResult": ("name", "ok", "detail", "elapsed"),
}


def test_public_records_are_pinned():
    records = {name: getattr(slipstab, name) for name in slipstab.__all__}
    assert {name: tuple(f.name for f in dataclasses.fields(obj) if f.init)
            for name, obj in records.items()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)} == RECORDS


def test_every_library_module_declares_its_exports():
    """Each module states its public names once, in its own __all__; the
    entry point (cli) and the generated integrator (_dop853) export none."""
    src = Path(slipstab.__file__).parent
    names = [path.stem for path in sorted(src.glob("*.py"))
             if path.stem not in ("__init__", "_dop853", "cli")]
    assert len(names) == 9
    missing = [name for name in names
               if not hasattr(importlib.import_module(f"slipstab.{name}"), "__all__")]
    assert missing == []


# (module, attribute) pairs the benchmark's tracer rebinds to time each layer
TRACED = [("cli", "sweep_q"), ("neutral", "sweep_q"),
          ("neutral", "solve_subsonic"), ("neutral", "solve_intersonic"),
          ("dispersion", "critical_mode"), ("dispersion", "count_unstable"),
          ("dispersion", "f_normalized"),
          ("simulate", "simulate_spring_block"), ("simulate", "solve_ivp")]


@pytest.mark.parametrize("module,attr", TRACED)
def test_traced_hook_points_exist(module, attr):
    assert callable(getattr(importlib.import_module(f"slipstab.{module}"), attr))


def test_no_module_imports_scipy():
    """numpy is the only runtime dependency; scipy serves the tests alone."""
    src = Path(slipstab.__file__).parent
    offenders = [path.name for path in sorted(src.glob("*.py"))
                 if re.search(r"^\s*(import|from)\s+scipy\b", path.read_text(), re.M)]
    assert offenders == []


# Prints the top-level names of the modules that `import slipstab.cli`
# loads, and the number of DOP853 kernel pairs built by then.
_CLI_IMPORT = """
import json, sys
before = set(sys.modules)
import slipstab.cli
from slipstab import _dop853
loaded = sorted({name.split(".")[0] for name in set(sys.modules) - before})
print(json.dumps([loaded, _dop853._kernels.cache_info().currsize]))
"""


def test_cli_import_does_no_module_level_work(tmp_path):
    """Every CLI call pays for the import, so in a fresh interpreter
    `import slipstab.cli` loads only the standard library, numpy and
    slipstab, and generates no integrator kernel."""
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_IMPORT], cwd=tmp_path, capture_output=True,
        text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(slipstab.__file__).parents[1])})
    loaded, kernels = json.loads(proc.stdout.splitlines()[-1])
    assert [name for name in loaded if name not in sys.stdlib_module_names] == [
        "numpy", "slipstab"]
    assert kernels == 0
