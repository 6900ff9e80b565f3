"""The package namespace: every exported name resolves, and every public name
of the solver modules is re-exported, so a deleted name cannot linger."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

import slipstab


def test_every_exported_name_resolves():
    missing = [name for name in slipstab.__all__ if not hasattr(slipstab, name)]
    assert missing == []


@pytest.mark.parametrize("module", ["transfer", "neutral", "closed_forms",
                                    "dispersion", "simulate"])
def test_module_exports_reach_the_package(module):
    mod = importlib.import_module(f"slipstab.{module}")
    assert all(hasattr(mod, name) for name in mod.__all__)
    assert set(mod.__all__) <= set(slipstab.__all__)


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
