"""Reference figures: every workload on several seeds, summarised.

    python3 bench/report.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace-seed 4244

Runs `bench/run.py --trace 0` once per workload and seed, one run at a time,
at BENCHMARK.json's run_seconds, and prints for each workload and end-to-end
metric the median, the first and third quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1)/median, the failed share, and the cost of each
kind of op.  Then one `--trace 1` run per workload on --trace-seed gives the
per-layer metrics, the tracing overhead and whether that seed passed every
check.  The tables are markdown, ready for bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("sweep", "certify", "oracle")
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def bench(workload: str, seed: int, trace: int) -> dict:
    """One run.py run; its result line and the child records it saved."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"run.py exited {proc.returncode} on {workload} seed {seed}")
    return json.loads((OUT / f"result-{workload}-{seed}-trace{trace}.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace-seed", type=int, required=True)
    args = ap.parse_args(argv)

    runs = {w: [bench(w, seed, 0) for seed in args.seeds] for w in WORKLOADS}
    traced = {w: bench(w, args.trace_seed, 1) for w in WORKLOADS}
    every = [r for w in WORKLOADS for r in runs[w] + [traced[w]]]
    ok = all(r["result"]["correct"] for r in every)

    print("| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median |")
    print("|---|---|---|---|---|---|")
    for w in WORKLOADS:
        results = [r["result"] for r in runs[w]]
        for name in results[0]["metrics"]:
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in results])
            print(f"| {w} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {(q3 - q1) / med:.3f} |")
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        print(f"| {w} | failed/attempted | {', '.join(shares)} | | | |")

    print()
    print("| workload | op kind | best-repetition latency, ms: median of the "
          "runs' medians (lowest–highest run) |")
    print("|---|---|---|")
    for w in WORKLOADS:
        by_kind: dict[str, list[float]] = {}
        for r in runs[w]:
            for kind, ms in r["records"][0]["latency_ms_by_kind"].items():
                by_kind.setdefault(kind, []).append(ms)
        for kind, ms in by_kind.items():
            print(f"| {w} | {kind} | {statistics.median(ms):.4g} "
                  f"({min(ms):.4g}–{max(ms):.4g}) |")

    print()
    print(f"Traced runs, seed {args.trace_seed}:")
    print()
    print("| per-layer metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for name, entry in traced[WORKLOADS[0]]["result"]["metrics"].items():
        cells = " | ".join(f"{traced[w]['result']['metrics'][name]['value']:.4g}"
                           for w in WORKLOADS)
        print(f"| {name} | {entry['unit']} | {cells} |")

    print()
    print("| workload | ops_per_s untraced | traced | traced − untraced "
          "| correct | attempted / failed (untraced, traced) |")
    print("|---|---|---|---|---|---|")
    for w in WORKLOADS:
        plain, trace = traced[w]["records"]
        diff = trace["ops_per_s"] - plain["ops_per_s"]
        print(f"| {w} | {plain['ops_per_s']:.4g} | {trace['ops_per_s']:.4g} "
              f"| {diff:+.4g} ({diff / plain['ops_per_s']:+.1%}) "
              f"| {traced[w]['result']['correct']} "
              f"| {plain['attempted']} / {plain['failed']}, "
              f"{trace['attempted']} / {trace['failed']} |")
    if not ok:
        print("some outputs failed their checks", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
