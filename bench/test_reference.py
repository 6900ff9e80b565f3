"""The benchmark's reference reproduces the closed forms, and its checks
reject a sweep row perturbed by 1e-8 relative.

    PYTHONPATH=src python3 -m pytest -q bench/test_reference.py
"""

from __future__ import annotations

import cmath
import math
from pathlib import Path

import pytest

import reference as ref
import workload

GATE = dict(a=0.01, b=0.015, L=1e-5, sigma_o=1e6, v_o=1e-3)


@pytest.mark.parametrize("z", [0.3 + 0.4j, 1e-3 + 2.0j, 5.0 + 0.0j])
def test_transfer_reduces_for_identical_media(z):
    assert ref.transfer(z, 1.0, 1.0) == pytest.approx(cmath.sqrt(1.0 + z * z), rel=1e-14)


@pytest.mark.parametrize("m,r", [(1.0, 1.2), (10.0, 5.0), (0.1, 5.0)])
def test_branches_are_limits_of_the_laplace_form(m, r):
    assert ref.transfer(0.0, m, r) == pytest.approx(ref.static_f(m), rel=1e-15)
    for x in (0.2, 0.7, 0.99):
        assert ref.transfer(complex(0.0, x), m, r).real == pytest.approx(
            ref.subsonic_f(x, m, r), rel=1e-13)
    for x in (1.0 + 1e-3, 0.5 * (1.0 + r), r - 1e-3):
        f1, f2 = ref.intersonic_f(x, m, r)
        limit = ref.transfer(complex(0.0, x), m, r)
        assert (limit.real, limit.imag) == pytest.approx((f1, f2), rel=1e-9)


@pytest.mark.parametrize("q", [1e-3, 0.1, 1.0, 10.0])
def test_identical_closed_form_solves_the_phase_equation(q):
    x, k_hat = ref.identical_closed_form(q)
    assert ref.subsonic_q(x, 1.0, 1.0) == pytest.approx(q, rel=1e-13)
    assert ref.static_f(1.0) / ref.subsonic_f(x, 1.0, 1.0) == pytest.approx(k_hat, rel=1e-12)
    x_mp, k_mp = ref.subsonic_mp(q, 1.0, 1.0, x * (1.0 + 1e-7))
    assert (x_mp, k_mp) == pytest.approx((x, k_hat), rel=1e-14)


def test_mp_resolve_returns_nan_without_a_bracket():
    x, _ = ref.identical_closed_form(1.0)
    assert math.isnan(ref.subsonic_mp(1.0, 1.0, 1.0, x * (1.0 + 1e-4))[0])


@pytest.mark.parametrize("m,r,b_over_a", [(1.0, 1.2, 1.2), (0.1, 5.0, 1.1), (10.0, 1.05, 3.0)])
def test_window_is_the_minimum_of_the_intersonic_phase_equation(m, r, b_over_a):
    q_w = ref.intersonic_window(m, r, b_over_a)
    n = 20000
    scan = [ref.intersonic_q(1.0 + (r - 1.0) * (i + 0.5) / n, m, r, b_over_a)
            for i in range(n)]
    assert min(scan) >= q_w * (1.0 - 1e-14)
    assert min(scan) == pytest.approx(q_w, rel=1e-4)


def test_spring_block_threshold():
    unit = GATE["a"] * GATE["sigma_o"] * GATE["L"] / GATE["v_o"] ** 2
    k0, omega = ref.spring_block(**GATE)
    assert k0 == pytest.approx(5e8, rel=1e-14)
    assert omega == pytest.approx(100.0 * math.sqrt(0.5), rel=1e-14)
    assert ref.spring_block(**GATE, mass=0.5 * unit)[0] == pytest.approx(7.5e8, rel=1e-14)


def _identical_neutral_mode(q: float):
    """k_cr and (kappa, nu, W) of identical media from the closed form."""
    a, b, L, sigma_o, mu, c1 = 0.01, 0.012, 1e-4, 1e6, 30e9, 3000.0
    v_o = q * 2.0 * math.sqrt(a * (b - a)) * sigma_o * c1 / mu
    x, k_hat = ref.identical_closed_form(q)
    k_cr = k_hat * 2.0 * (b - a) * sigma_o / (mu * L)
    dims = (a, b, L, sigma_o, v_o, mu, c1)
    return x, k_cr, dims


@pytest.mark.parametrize("q", [0.01, 1.0, 10.0])
def test_characteristic_vanishes_at_the_closed_form_neutral_mode(q):
    x, k_cr, dims = _identical_neutral_mode(q)
    kappa, nu, w = ref.hat_params(k_cr, *dims)
    res, scale = ref.characteristic(complex(0.0, math.sqrt(w)), kappa, nu, w, 1.0, 1.0)
    assert abs(res) <= 1e-13 * scale
    # the neutral frequency is |k|*c, i.e. z = i*x on the imaginary axis
    assert nu * math.sqrt(w) == pytest.approx(x, rel=1e-13)


@pytest.mark.parametrize("q", [0.01, 1.0, 10.0])
def test_witness_finds_growth_only_below_k_cr(q):
    x, k_cr, dims = _identical_neutral_mode(q)
    below, res = ref.unstable_witness(x, *ref.hat_params(0.95 * k_cr, *dims), 1.0, 1.0)
    assert below.real > 0.0 and res <= 1e-12
    above, _ = ref.unstable_witness(x, *ref.hat_params(1.05 * k_cr, *dims), 1.0, 1.0)
    assert not above.real > 0.0


# ------------------------------------------------ checks on program output


@pytest.fixture(scope="module")
def preset_rows(tmp_path_factory):
    """Rows of the (1.2, 1) preset sweep, as the benchmark's op writes them."""
    op = workload._sweep_op("preset", 1.2, 1.0, 1.2, True)
    runner = workload.Runner("sweep", Path(tmp_path_factory.mktemp("sweep")))
    failed, path = runner.run(op)
    assert not failed
    return op.params, workload.read_sweep_csv(path)


def _check(params, rows):
    return workload.check_sweep_rows(rows, params["speed_ratio"], params["mu_ratio"],
                                     params["b_over_a"], params["q_w"])


def test_program_rows_pass(preset_rows):
    params, rows = preset_rows
    assert _check(params, rows) == []


@pytest.mark.parametrize("branch,column", [("subsonic", 2), ("subsonic", 3),
                                           ("intersonic", 2), ("intersonic", 3)])
@pytest.mark.parametrize("which", [0.25, 0.9])
def test_row_perturbed_by_1e8_is_rejected(preset_rows, branch, column, which):
    params, rows = preset_rows
    picks = [i for i, row in enumerate(rows) if row[1] == branch]
    i = picks[int(which * (len(picks) - 1))]
    row = list(rows[i])
    row[column] *= 1.0 + 1e-8
    perturbed = rows[:i] + [tuple(row)] + rows[i + 1:]
    assert _check(params, perturbed)


def test_identical_rows_off_the_closed_form_are_rejected():
    rows = [(q, "subsonic", *ref.identical_closed_form(q)) for q in workload.GRID]
    assert workload.check_sweep_rows(rows, 1.0, 1.0, 1.5, math.inf) == []
    q, br, x, k = rows[50]
    rows[50] = (q, br, x, k * (1.0 + 1e-8))
    assert workload.check_sweep_rows(rows, 1.0, 1.0, 1.5, math.inf)


# ------------------------------------------------ failures and exit status


def _summary(op, reps):
    return workload.summarize("certify", [op], [reps])


@pytest.mark.parametrize("fault,correct", [(None, False), ("c", True)])
def test_only_known_faults_may_fail(fault, correct):
    op = workload.Op("hard", "certify fake", True, {"fault": fault})
    summary = _summary(op, [(True, "not certified", 1e-3)] * 3)
    assert summary["correct"] is correct
    assert (summary["attempted"], summary["failed"]) == (3, 3)
    assert bool(summary["unexpected_failures"]) is not correct


def test_op_failing_on_some_repetitions_only_is_a_problem():
    op = workload.Op("hard", "certify fake", True, {"fault": "f"})
    summary = _summary(op, [(True, "not certified", 1e-3), (False, True, 1e-3)])
    assert not summary["correct"] and summary["problems"]


def test_known_fault_that_passes_is_reported_and_checked():
    op = workload._certify_op("gate", 1.0, 1.2, 1.0, 1.2, True)
    op.params["fault"] = "f"
    summary = _summary(op, [(False, True, 2e-3), (False, True, 1e-3)])
    assert summary["correct"] and summary["failed"] == 0
    assert len(summary["faults_passing"]) == 1
    assert summary["latency_p50_ms"] == pytest.approx(1.0)


@pytest.mark.parametrize("fault,status", [(None, 1), ("c", 0)])
def test_run_exits_1_on_an_unexpected_failure(monkeypatch, tmp_path, fault, status):
    import run

    op = workload.Op("hard", "certify fake", True, {"fault": fault})
    record = {**_summary(op, [(True, "not certified", 1e-3)]), "peak_rss_mb": 80.0}
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "workload",
                        lambda args, mode, deadline: {**record, "mode": mode, "setup_s": 1.0})
    assert run.main(["--workload", "certify", "--seed", "1", "--seconds", "1"]) == status
