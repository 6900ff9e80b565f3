"""Benchmark for slipstab: one workload per call, one JSON result line.

    python3 bench/run.py --workload {sweep,certify,oracle} --seed N \
        --seconds 10 --trace {0,1}

Run from the root of a source checkout.  Every workload runs in its own
fresh Python process (bench/workload.py) with PYTHONPATH=src, BLAS threads
pinned to 1 and SLIPSTAB_THREADS unset, one caller in a closed loop.

--trace 0 starts two set-up-only processes, one measuring process and two
more set-up-only processes, and prints the end-to-end metrics: setup_s
(median of the five, taken before and after the measuring run so that they
span the host's slower and faster spells), ops_per_s, latency_p50_ms and
peak_rss_mb.  --trace 1 times five cold imports, runs the
workload untraced and then traced, and prints the per-layer metrics plus
trace.overhead_ops_per_s (traced minus untraced ops_per_s).  The last line
of stdout is {"correct", "attempted", "failed", "metrics"}; the full child
records are saved under bench/out/.  Exit status: 0 when every output
checked out and every failed op is a known fault, 1 otherwise, 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROCESSES = 5
IMPORT_PROCESSES = 5
DEADLINE_S = 170.0

# metric names and units, as BENCHMARK.json at the checkout's root lists them
SPEC = ROOT / "BENCHMARK.json"

IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import slipstab; "
                "print(time.perf_counter() - t, len(sys.modules))")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SLIPSTAB_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def last_line(argv: list[str], deadline: float) -> str:
    """Run one child to completion and return the last line of its stdout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0.0:
        raise BenchError("out of time before starting " + " ".join(argv[1:3]))
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), timeout=remaining,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(argv)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"exit {proc.returncode}: {' '.join(argv)}")
    return lines[-1]


def workload(args, mode: str, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--mode", mode, "--out", str(OUT), "--launched"]
    # the child reports its set-up time against this launch instant
    return json.loads(last_line(argv + [repr(time.monotonic())], deadline))


def cold_import(deadline: float) -> tuple[float, int]:
    seconds, modules = last_line([sys.executable, "-c", IMPORT_PROBE],
                                 deadline).split()
    return float(seconds), int(modules)


def measure(args, deadline: float) -> tuple[dict, list[dict]]:
    if args.trace:
        imports = [cold_import(deadline) for _ in range(IMPORT_PROCESSES)]
        records = [workload(args, "run", deadline), workload(args, "trace", deadline)]
        plain, traced = records
        values = {**traced["layers"],
                  "import.cold_s": statistics.median(s for s, _ in imports),
                  "import.modules": statistics.median(n for _, n in imports),
                  "trace.overhead_ops_per_s": traced["ops_per_s"] - plain["ops_per_s"]}
    else:
        def setups(n: int) -> list[float]:
            return [workload(args, "setup", deadline)["setup_s"] for _ in range(n)]
        before = setups(SETUP_PROCESSES // 2)
        records = [workload(args, "run", deadline)]
        main = records[0]
        after = setups(SETUP_PROCESSES - 1 - len(before))
        values = {"setup_s": statistics.median(before + [main["setup_s"]] + after),
                  **{k: main[k] for k in ("ops_per_s", "latency_p50_ms", "peak_rss_mb")}}
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}, records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("sweep", "certify", "oracle"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "slipstab" / "__init__.py").is_file():
        print(f"error: no slipstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        metrics, records = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = records[-1]
    for rec in records:
        for line in rec["problems"] + rec["unexpected_failures"] + rec["faults_passing"]:
            print(f"{rec['mode']}: {line}", file=sys.stderr)
    result = {"correct": all(r["correct"] for r in records),
              "attempted": report["attempted"], "failed": report["failed"],
              "metrics": metrics}
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump({"result": result, "records": records}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
