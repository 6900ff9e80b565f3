"""Spans around the calls into each slipstab layer, for the traced run only.

The wrappers are installed from outside, by rebinding the module attributes
that callers look up at call time, so nothing under src/ changes.  Spans are
kept in memory as [name, start, end, parent, op, attrs] lists and written out
when the run ends; a layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

RE_HI_GROWTH = 1.01   # count_unstable dilates its rectangle by 1% per retry


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn, attrs=None):
        """`fn` recording one span per call; `attrs(args, result)` adds data."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result)
            return result
        return traced


def _count_attrs(args, result) -> dict:
    """Samples of a RootCount and the dilations behind it.

    count_unstable documents its starting rectangle: Re(p_hat) up to
    10*max(1, |k|*c1'*L/v_o), grown by 1% per retry; the contour it returns
    therefore gives the number of retries.
    """
    cp = args[0]
    lam = cp.friction.v_o / cp.friction.L
    wave_hat = abs(cp.k) * cp.bimaterial.fast.c1 / lam
    re_hi0 = 10.0 * max(1.0, wave_hat) * lam
    dilations = round(math.log(result.contour[1] / re_hi0) / math.log(RE_HI_GROWTH))
    return {"samples": result.samples, "dilations": dilations}


def install(tracer: Tracer):
    """Rebind the traced entry points; returns a function that restores them."""
    from slipstab import cli, dispersion, neutral, simulate

    sweep = tracer.wrap("neutral.sweep_q", neutral.sweep_q)
    bindings = [
        (cli, "sweep_q", sweep),
        (neutral, "sweep_q", sweep),
        (neutral, "solve_subsonic",
         tracer.wrap("neutral.solve_subsonic", neutral.solve_subsonic)),
        (neutral, "solve_intersonic",
         tracer.wrap("neutral.solve_intersonic", neutral.solve_intersonic)),
        (dispersion, "critical_mode",
         tracer.wrap("neutral.critical_mode", dispersion.critical_mode)),
        (dispersion, "count_unstable",
         tracer.wrap("dispersion.count_unstable", dispersion.count_unstable,
                     _count_attrs)),
        (dispersion, "f_normalized",
         tracer.wrap("transfer.f_normalized", dispersion.f_normalized,
                     lambda args, _r: int(np.size(args[0])))),
        (simulate, "simulate_spring_block",
         tracer.wrap("simulate.simulate_spring_block",
                     simulate.simulate_spring_block,
                     lambda _a, traj: int(traj.metadata["nfev"]))),
        (simulate, "solve_ivp",
         tracer.wrap("simulate.solve_ivp", simulate.solve_ivp)),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in bindings]
    for module, attr, wrapper in bindings:
        setattr(module, attr, wrapper)

    def restore():
        for module, attr, original in saved:
            setattr(module, attr, original)
    return restore


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(spans: list[list], workload: str, fixed_ops: set[int]) -> dict:
    """Per-layer metrics from the spans of one traced run.

    Time metrics are medians over every call (or every op) in the run.  Count
    metrics are medians over the ops whose inputs do not depend on the seed,
    so they repeat exactly from run to run.  A layer that does not run in
    this workload reports 0.
    """
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    children: list[list[int]] = [[] for _ in spans]
    by_op: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        by_op.setdefault(s[4], []).append(i)
        if s[3] is not None:
            child_time[s[3]] += dur[i]
            children[s[3]].append(i)

    def calls(name, among=range(len(spans))):
        return [i for i in among if spans[i][0] == name]

    ops = calls("op")
    counts = calls("dispersion.count_unstable")
    fixed_counts = [i for i in counts if spans[i][4] in fixed_ops and spans[i][5]]
    kernel = {i: calls("transfer.f_normalized", children[i]) for i in counts}
    estimates = ops if workload == "oracle" else []
    runs = {i: calls("simulate.simulate_spring_block", by_op[spans[i][4]]) for i in estimates}
    ivp = {i: calls("simulate.solve_ivp", by_op[spans[i][4]]) for i in estimates}
    fixed_estimates = [i for i in estimates if spans[i][4] in fixed_ops]
    return {
        "cli.self_ms": _median([1e3 * (dur[i] - child_time[i]) for i in ops
                                if workload == "sweep"]),
        "neutral.sweep_q_ms": _median([1e3 * dur[i] for i in calls("neutral.sweep_q")]),
        "neutral.solve_intersonic_ms": _median(
            [1e3 * dur[i] for i in calls("neutral.solve_intersonic")]),
        "neutral.solve_subsonic_us": _median(
            [1e6 * dur[i] for i in calls("neutral.solve_subsonic")]),
        "neutral.critical_mode_ms": _median(
            [1e3 * dur[i] for i in calls("neutral.critical_mode")]),
        "transfer.points_per_count": _median(
            [sum(spans[j][5] for j in kernel[i]) for i in fixed_counts]),
        "transfer.f_normalized_ms": _median(
            [1e3 * sum(dur[j] for j in kernel[i]) for i in counts]),
        "dispersion.count_unstable_ms": _median([1e3 * dur[i] for i in counts]),
        "dispersion.samples_per_count": _median(
            [spans[i][5]["samples"] for i in fixed_counts]),
        "dispersion.dilations_per_count": _median(
            [spans[i][5]["dilations"] for i in fixed_counts]),
        "dispersion.self_ms": _median(
            [1e3 * (dur[i] - sum(dur[j] for j in kernel[i])) for i in counts]),
        "simulate.estimate_s": _median([dur[i] for i in estimates]),
        "simulate.runs_per_estimate": _median([len(runs[i]) for i in fixed_estimates]),
        "simulate.nfev_per_estimate": _median(
            [sum(spans[j][5] or 0 for j in runs[i]) for i in fixed_estimates]),
        "simulate.slowest_run_s": _median(
            [max((dur[j] for j in runs[i]), default=0.0) for i in estimates]),
        "simulate.solve_ivp_ms": _median(
            [1e3 * sum(dur[j] for j in ivp[i]) for i in estimates]),
    }
