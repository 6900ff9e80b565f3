"""One benchmark workload in one fresh process: generate, run, check.

    python3 bench/workload.py --workload sweep --seed 1 --seconds 10 \
        --mode run --launched <time.monotonic() at launch> --out bench/out

run.py starts this with PYTHONPATH=src and BLAS threads pinned to 1.  The
process generates one round of inputs from the seed, runs one untimed
warm-up op of the workload's cheapest kind, and reports the time since
launch as its set-up time (`--mode setup` stops there).  It then repeats the
round, one caller in a closed loop, until `--seconds` have elapsed, and
checks every output against reference.py or a property the method must
have.  Each input's time is its fastest repetition: the host's load comes
and goes within seconds, and the best of several repetitions spread over
the run is what repeats from run to run.  `--mode trace` also installs
spans.py's wrappers for the timed phase.  The last line of stdout is one
JSON record.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from slipstab import (CharParams, EffectiveMedium, EvolutionLaw, RateState,
                      make_bimaterial)
from slipstab import cli, dispersion, simulate

import reference as ref
import spans

# (speed ratio, modulus ratio) of the four figure presets, all at b/a = 1.2
PRESETS = ((1.2, 1.0), (5.0, 1.0), (5.0, 10.0), (5.0, 0.1))
PRESET_B_OVER_A = 1.2
Q_MIN, Q_MAX, Q_POINTS = 1e-2, 10.0, 200
GRID = [10.0 ** (-2.0 + 3.0 * i / (Q_POINTS - 1)) for i in range(Q_POINTS)]

# certify: the crossing gate (q = 0.1, 1, 10) and the hard set (q = 30,
# 100, 1e3) for every preset; the hard ops listed here fail today
GATE_Q = (0.1, 1.0, 10.0)
HARD_Q = (30.0, 100.0, 1e3)
KNOWN_FAULTS = {
    **{(sr, mr, 1e3): "c" for sr, mr in PRESETS},
    (5.0, 1.0, 30.0): "f", (5.0, 0.1, 30.0): "f",
    (1.2, 1.0, 100.0): "f", (5.0, 1.0, 100.0): "f", (5.0, 0.1, 100.0): "f",
}
CERTIFY_MARGIN = 0.05
# seeded certify draws stop at q = 5: fault (f) also strikes seeded sets
# with q above about 8 (r > 4, m near 0.2), on some seeds only
CERTIFY_Q_MAX = 5.0

# oracle: the ODE-oracle gate parameters
ORACLE = dict(a=0.01, b=0.015, L=1e-5, sigma_o=1e6, v_o=1e-3)

# one round: sweep 4 presets + 8 seeded + 2 identical (about 2 s);
# certify 12 gate + 12 hard + 216 seeded (about 1 s); oracle 4 gate + 3
# seeded massless (23-35 s).  A run repeats its round, so sweep and certify
# time every input about ten times.  The ageing-law gate case with inertia
# takes 7-10 s, more than the other oracle inputs together, so an oracle
# round runs it once and every other input ORACLE_REPEATS times, half before
# it and half after; an oracle run is then one round.  Three seeded blocks
# (not more) keep the median of the 7 oracle inputs on the middle one.
SWEEP_SEEDED, SWEEP_IDENTICAL = 8, 2
CERTIFY_SEEDED = 216
ORACLE_SEEDED = 3
ORACLE_REPEATS = 4
# seeded sweeps keep every grid q out of [q_w, 1.01*q_w): there the
# program's intersonic scan can miss the root pair (ROADMAP defect (e))
WINDOW_EXCLUSION = 0.01
# subsonic rows per sweep op re-solved at 30 digits (about 8 ms each)
MP_ROWS = 2


@dataclass(eq=False)   # hashed by identity: a round may name an input twice
class Op:
    kind: str          # preset, seeded, identical, gate, hard
    label: str
    fixed: bool        # inputs independent of the seed
    params: dict


# ------------------------------------------------------------------ inputs


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _draw_ratios(rng: random.Random) -> tuple[float, float, float]:
    """(speed ratio, modulus ratio, b/a) with m in [0.1, 10] (log-uniform),
    r in [1.05, 5] and b/a in [1.1, 3]."""
    return (rng.uniform(1.05, 5.0), _log_uniform(rng, 0.1, 10.0),
            rng.uniform(1.1, 3.0))


def _sweep_op(kind: str, sr: float, mr: float, ba: float, fixed: bool) -> Op:
    q_w = ref.intersonic_window(mr, sr, ba) if sr > 1.0 else math.inf
    return Op(kind, f"sweep r={sr!r} m={mr!r} b/a={ba!r}", fixed,
              dict(speed_ratio=sr, mu_ratio=mr, b_over_a=ba, q_w=q_w))


def _near_window(op: Op) -> bool:
    q_w = op.params["q_w"]
    return any(q_w * (1.0 - 1e-9) <= q < q_w * (1.0 + WINDOW_EXCLUSION) for q in GRID)


def sweep_round(rng: random.Random) -> list[Op]:
    ops = [_sweep_op("preset", sr, mr, PRESET_B_OVER_A, True) for sr, mr in PRESETS]
    while len(ops) < len(PRESETS) + SWEEP_SEEDED:
        op = _sweep_op("seeded", *_draw_ratios(rng), False)
        if not _near_window(op):
            ops.append(op)
    for _ in range(SWEEP_IDENTICAL):
        ops.append(_sweep_op("identical", 1.0, 1.0, rng.uniform(1.1, 3.0), False))
    return ops


def dimensional(q: float, sr: float, mr: float, ba: float):
    """Friction and bi-material realising (q, m, r, b/a) on the slow side."""
    a, sigma_o, L, mu, c1 = 0.01, 1e6, 1e-4, 30e9, 3000.0
    b = a * ba
    v_o = q * 2.0 * math.sqrt(a * (b - a)) * sigma_o * c1 / mu
    friction = RateState(a=a, b=b, L=L, sigma_o=sigma_o, v_o=v_o)
    bm = make_bimaterial(EffectiveMedium(mu=mu, c1=c1),
                         EffectiveMedium(mu=mu * mr, c1=c1 * sr))
    return friction, bm


def _certify_op(kind: str, q: float, sr: float, mr: float, ba: float,
                fixed: bool) -> Op:
    friction, bm = dimensional(q, sr, mr, ba)
    return Op(kind, f"certify q={q!r} r={sr!r} m={mr!r} b/a={ba!r}", fixed,
              dict(friction=friction, bm=bm, fault=KNOWN_FAULTS.get((sr, mr, q))))


def certify_round(rng: random.Random) -> list[Op]:
    ops = [_certify_op(kind, q, sr, mr, PRESET_B_OVER_A, True)
           for kind, qs in (("gate", GATE_Q), ("hard", HARD_Q))
           for q in qs for sr, mr in PRESETS]
    for _ in range(CERTIFY_SEEDED):
        q = _log_uniform(rng, 1e-2, CERTIFY_Q_MAX)
        ops.append(_certify_op("seeded", q, *_draw_ratios(rng), False))
    return ops


def _oracle_op(kind: str, law: EvolutionLaw, b: float, mass_factor: float,
               fixed: bool) -> Op:
    friction = RateState(**{**ORACLE, "b": b})
    unit = friction.a * friction.sigma_o * friction.L / friction.v_o ** 2
    return Op(kind, f"oracle {law.value} b={b!r} mass={mass_factor!r}*a*sigma_o*L/v_o^2",
              fixed, dict(friction=friction, law=law, mass=mass_factor * unit))


def oracle_round(rng: random.Random) -> list[Op]:
    """The four ODE-oracle gate cases and ORACLE_SEEDED massless blocks."""
    ops = [_oracle_op("gate", law, ORACLE["b"], mass, True)
           for law in (EvolutionLaw.AGEING, EvolutionLaw.SLIP)
           for mass in (0.0, 0.5)]
    # b/a stratified over [1.2, 3]: one draw from each of ORACLE_SEEDED
    # equal slices, so a round's cost does not hinge on a few draws
    width = 1.8 / ORACLE_SEEDED
    for i in range(ORACLE_SEEDED):
        law = (EvolutionLaw.AGEING, EvolutionLaw.SLIP)[i % 2]
        b_over_a = rng.uniform(1.2 + i * width, 1.2 + (i + 1) * width)
        ops.append(_oracle_op("seeded", law, ORACLE["a"] * b_over_a, 0.0, False))
    heavy = ops.pop(1)   # ageing law, mass 0.5*a*sigma_o*L/v_o^2
    half = ORACLE_REPEATS // 2
    return ops * half + [heavy] + ops * (ORACLE_REPEATS - half)


def make_round(workload: str, seed: int) -> list[Op]:
    """The ops of one round, in the order they run."""
    rng = random.Random(f"{workload}/{seed}")
    return {"sweep": sweep_round, "certify": certify_round,
            "oracle": oracle_round}[workload](rng)


def warmup_op(workload: str) -> Op:
    """An op of the workload's cheapest kind, run once before timing."""
    if workload == "sweep":
        return _sweep_op("identical", 1.0, 1.0, PRESET_B_OVER_A, True)
    if workload == "certify":
        return _certify_op("gate", GATE_Q[1], *PRESETS[0], PRESET_B_OVER_A, True)
    return _oracle_op("gate", EvolutionLaw.SLIP, ORACLE["b"], 0.0, True)


# --------------------------------------------------------------------- ops


class Runner:
    """Calls into the program; `run` returns (failed, output)."""

    def __init__(self, workload: str, tmp: Path):
        self.workload = workload
        self.tmp = tmp
        self.n = 0

    def run(self, op: Op):
        p = op.params
        try:
            if self.workload == "sweep":
                self.n += 1
                out = self.tmp / f"{self.n}.csv"
                code = cli.main(["sweep", "--q-min", repr(Q_MIN), "--q-max", repr(Q_MAX),
                                 "--q-points", str(Q_POINTS), "--log",
                                 "--speed-ratio", repr(p["speed_ratio"]),
                                 "--mu-ratio", repr(p["mu_ratio"]),
                                 "--b-over-a", repr(p["b_over_a"]), "--out", str(out)])
                return (True, f"exit code {code}") if code else (False, out)
            if self.workload == "certify":
                ok = dispersion.certify_crossing(p["friction"], p["bm"])
                return (False, ok) if ok else (True, "not certified")
            return False, simulate.estimate_critical_stiffness(
                p["friction"], p["law"], mass=p["mass"])
        except Exception as exc:   # a failed op is counted, not fatal
            return True, f"{type(exc).__name__}: {exc}"


# ------------------------------------------------------------------ checks


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def read_sweep_csv(path: Path) -> list[tuple[float, str, float, float]]:
    with open(path, newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader)
        if header != ["q", "branch", "c_over_c1", "k_hat"]:
            raise ValueError(f"unexpected header {header}")
        return [(float(q), br, float(x), float(k)) for q, br, x, k in reader]


def check_sweep_rows(rows, sr: float, mr: float, ba: float, q_w: float,
                     rng: random.Random | None = None) -> list[str]:
    """Every property a sweep's rows must have; returns the violations."""
    bad: list[str] = []
    by_q: list[tuple[float, list]] = []
    for q, br, x, k in rows:
        if not by_q or by_q[-1][0] != q:
            by_q.append((q, []))
        by_q[-1][1].append((br, x, k))
    if len(by_q) != Q_POINTS:
        return [f"{len(by_q)} distinct q, expected {Q_POINTS}"]
    f0 = ref.static_f(mr)
    identical = sr == 1.0 and mr == 1.0
    subsonic = []
    for (q, group), q_ref in zip(by_q, GRID):
        if _rel(q, q_ref) > 1e-12:
            bad.append(f"q={q!r} is not the grid value {q_ref!r}")
        if group[0][0] != "subsonic" or any(g[0] != "intersonic" for g in group[1:]):
            bad.append(f"q={q!r}: rows {[g[0] for g in group]}")
            continue
        _, x, k = group[0]
        subsonic.append((q, x, k))
        if not 0.0 < x < 1.0:
            bad.append(f"q={q!r}: subsonic c/c1={x!r} outside (0, 1)")
            continue
        if _rel(ref.subsonic_q(x, mr, sr), q) > 1e-10:
            bad.append(f"q={q!r}: subsonic phase residual "
                       f"{_rel(ref.subsonic_q(x, mr, sr), q):.2e}")
        if _rel(k, f0 / ref.subsonic_f(x, mr, sr)) > 1e-12:
            bad.append(f"q={q!r}: k_hat != F(0)/F(c)")
        if identical:
            x_cf, k_cf = ref.identical_closed_form(q)
            if _rel(x, x_cf) > 1e-10 or _rel(k, k_cf) > 1e-10:
                bad.append(f"q={q!r}: identical-media closed form missed")
        inter = group[1:]
        expected = 2 if sr > 1.0 and q > q_w else 0
        if len(inter) != expected:
            bad.append(f"q={q!r}: {len(inter)} intersonic rows, expected "
                       f"{expected} (q_w={q_w!r})")
        xs = [g[1] for g in inter]
        if xs != sorted(xs):
            bad.append(f"q={q!r}: intersonic rows not in ascending c")
        for _, xi, ki in inter:
            if not 1.0 < xi < sr:
                bad.append(f"q={q!r}: intersonic c/c1={xi!r} outside (1, r)")
                continue
            if _rel(ref.intersonic_q(xi, mr, sr, ba), q) > 1e-10:
                bad.append(f"q={q!r}: intersonic phase residual at c/c1={xi!r}")
            if _rel(ki, ref.intersonic_k_hat(xi, q, mr, sr, ba)) > 1e-10:
                bad.append(f"q={q!r}: intersonic k_hat off at c/c1={xi!r}")
            if not ki < k:
                bad.append(f"q={q!r}: intersonic k_hat {ki!r} not below subsonic")
    for (qa, xa, ka), (qb, xb, kb) in zip(subsonic, subsonic[1:]):
        if kb < ka:
            bad.append(f"k_hat decreases between q={qa!r} and q={qb!r}")
        if not xb > xa:
            bad.append(f"c/c1 does not increase between q={qa!r} and q={qb!r}")
    if any(k < 1.0 for _, _, k in subsonic):
        bad.append("subsonic k_hat below 1")
    rng = rng or random.Random(0)
    for q, x, k in rng.sample(subsonic, min(MP_ROWS, len(subsonic))):
        x_mp, k_mp = ref.subsonic_mp(q, mr, sr, x)
        if not (_rel(x, x_mp) <= 1e-10 and _rel(k, k_mp) <= 1e-10):
            bad.append(f"q={q!r}: 30-digit re-solve gives c/c1={x_mp!r}, "
                       f"k_hat={k_mp!r}")
    return bad


def check_certify(op: Op) -> list[str]:
    """Re-derive the crossing that certify_crossing confirmed."""
    fr, bm = op.params["friction"], op.params["bm"]
    mode = dispersion.critical_mode(fr, bm).mode
    bad = []
    counts = [dispersion.count_unstable(
        CharParams(k=f * mode.k_mag, friction=fr, bimaterial=bm)).n_unstable
        for f in (1.0 + CERTIFY_MARGIN, 1.0 - CERTIFY_MARGIN)]
    if counts != [0, 2]:
        bad.append(f"counts above/below k_cr are {counts}, expected [0, 2]")
    lam = fr.v_o / fr.L
    dims = (fr.a, fr.b, fr.L, fr.sigma_o, fr.v_o, bm.slow.mu, bm.slow.c1)
    m, r = bm.mu_ratio, bm.speed_ratio
    omega_hat = mode.omega / lam
    resid, scale = ref.characteristic(complex(0.0, omega_hat),
                                      *ref.hat_params(mode.k_mag, *dims), m, r)
    if abs(resid) > 1e-10 * scale:
        bad.append(f"residual {abs(resid) / scale:.2e} at p = i*omega, k = k_cr")
    root, res = ref.unstable_witness(mode.c_over_c1,
                                     *ref.hat_params((1.0 - CERTIFY_MARGIN) * mode.k_mag, *dims),
                                     m, r)
    if not (root.real > 0.0 and res <= 1e-10):
        bad.append(f"witness at 0.95*k_cr found p*L/v_o={root!r} (residual {res:.1e})")
    return bad


def check_oracle(op: Op, output) -> list[str]:
    fr = op.params["friction"]
    k_ref, omega_ref = ref.spring_block(fr.a, fr.b, fr.L, fr.sigma_o, fr.v_o,
                                       op.params["mass"])
    k_est, omega_est = output
    if _rel(k_est, k_ref) > 0.02 or _rel(omega_est, omega_ref) > 0.02:
        return [f"K off by {_rel(k_est, k_ref):.2%}, omega off by "
                f"{_rel(omega_est, omega_ref):.2%}"]
    return []


def check(workload: str, op: Op, output, index: int) -> list[str]:
    try:
        if workload == "sweep":
            p = op.params
            return check_sweep_rows(read_sweep_csv(output), p["speed_ratio"],
                                    p["mu_ratio"], p["b_over_a"], p["q_w"],
                                    rng=random.Random(index))
        if workload == "certify":
            return check_certify(op)
        return check_oracle(op, output)
    except Exception as exc:   # an output that cannot be checked is wrong
        return [f"check raised {type(exc).__name__}: {exc}"]


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("sweep", "certify", "oracle"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=args.out))
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _output(workload: str, output):
    """What must repeat exactly between repetitions of one input."""
    return Path(output).read_bytes() if workload == "sweep" else output


def summarize(workload: str, ops: list[Op], results: list[list]) -> dict:
    """Failures, checks and metrics of one run.

    `results[i]` holds (failed, output, seconds) for each repetition of
    ops[i].  An input counts as failed when every repetition failed; the
    first output of every other input is checked, and the rest must equal
    it.  The run is correct when no check found a problem and no input
    failed that KNOWN_FAULTS does not name.  Each input is timed at its
    fastest repetition.
    """
    problems: list[str] = []
    unexpected: list[str] = []
    faults_passing: list[str] = []
    n_ok = 0
    for i, (op, reps) in enumerate(zip(ops, results)):
        fails = [f for f, _, _ in reps]
        fault = op.params.get("fault")
        if all(fails):
            if not fault:
                unexpected.append(f"{op.label}: {reps[0][1]}")
            continue
        if any(fails):
            problems.append(f"{op.label}: failed {sum(fails)} of {len(reps)} repetitions")
            continue
        if fault:
            faults_passing.append(f"{op.label}: fault ({fault}) no longer fails")
        bad = check(workload, op, reps[0][1], i)
        first = _output(workload, reps[0][1])
        if any(_output(workload, out) != first for _, out, _ in reps[1:]):
            bad.append("repetitions gave different outputs")
        problems.extend(f"{op.label}: {b}" for b in bad)
        n_ok += not bad
    best = [min(d for _, _, d in reps) for reps in results]
    failed = [op for op, reps in zip(ops, results) if reps[0][0]]
    return dict(
        attempted=sum(len(reps) for reps in results),
        failed=sum(f for reps in results for f, _, _ in reps),
        failed_ops=sorted(op.label for op in failed),
        unexpected_failures=unexpected[:20], faults_passing=faults_passing,
        correct=not problems and not unexpected, problems=problems[:20],
        n_problems=len(problems),
        ops_per_s=n_ok / sum(best),
        latency_p50_ms=1e3 * statistics.median(best),
        latency_ms_by_kind={kind: 1e3 * statistics.median(
            b for op, b in zip(ops, best) if op.kind == kind)
            for kind in sorted({op.kind for op in ops})})


def _run(args, tmp: Path) -> int:
    schedule = make_round(args.workload, args.seed)
    ops = list(dict.fromkeys(schedule))
    runner = Runner(args.workload, tmp)
    failed, _ = runner.run(warmup_op(args.workload))
    if failed:
        raise SystemExit("warm-up op failed")
    setup_s = time.monotonic() - args.launched
    record = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    tracer = spans.Tracer()
    restore = spans.install(tracer) if args.mode == "trace" else None
    call = tracer.wrap("op", runner.run) if restore else runner.run
    results: dict[Op, list] = {op: [] for op in ops}
    fixed_ops: set[int] = set()
    rounds = 0
    t_start = time.perf_counter()
    while True:
        rounds += 1
        for op in schedule:
            tracer.op += 1
            if op.fixed:
                fixed_ops.add(tracer.op)
            t0 = time.perf_counter()
            op_failed, output = call(op)
            results[op].append((op_failed, output, time.perf_counter() - t0))
        if time.perf_counter() - t_start >= args.seconds:
            break
    timed_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if restore:
        restore()

    record.update(summarize(args.workload, ops, [results[op] for op in ops]),
                  rounds=rounds, timed_s=timed_s, peak_rss_mb=peak_rss_mb)
    if restore:
        record["layers"] = spans.layer_metrics(tracer.spans, args.workload, fixed_ops)
        with open(args.out / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op", "attrs"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
