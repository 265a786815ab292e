#!/usr/bin/env python3
"""Steadiness report: run one workload k times and set each end-to-end
metric's spread against its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload W [--runs K] [--first-seed N]
                                [--seconds S]

Run from the root of a checkout. Run i uses seed first-seed + i, so the
report covers the spread across seeds as well as across time. For each
metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and
the bound: a spread under a third of the bound is steady. It also records
nproc, KPT_THREADS and the timed-verdict floor as the runs report them,
with the fastest verdict seen, and writes the raw results as JSON next to
the build ($CARGO_TARGET_DIR/perfbench-out/steady-W.json).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {out.returncode})\n{out.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        env = re.search(r"nproc=(\d+) KPT_THREADS=(\S+)", out.stderr)
        floor = re.search(r"fastest verdict ([\d.]+) ms \(floor ([\d.]+) ms\)", out.stderr)
        runs.append({"seed": seed, "nproc": env[1], "kpt_threads": env[2],
                     "fastest_verdict_ms": float(floor[1]), "verdict_floor_ms": float(floor[2]),
                     **result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    r0 = runs[0]
    print(f"\nworkload {args.workload}: {args.runs} runs of {args.seconds} s, nproc={r0['nproc']}, "
          f"KPT_THREADS={r0['kpt_threads']}, timed-verdict floor {r0['verdict_floor_ms']} ms "
          f"(fastest verdict seen {min(r['fastest_verdict_ms'] for r in runs)} ms)")
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    worst = "steady"
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = "steady" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "NOISY")
        if m["name"] != "setup_s" and verdict != "steady" and worst != "NOISY":
            worst = verdict
        print(f"{m['name']:<20} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.4f} {m['bound']:>6}  {verdict}")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    os.makedirs(os.path.join(target, "perfbench-out"), exist_ok=True)
    with open(os.path.join(target, "perfbench-out", f"steady-{args.workload}.json"), "w") as f:
        json.dump({"workload": args.workload, "seconds": args.seconds, "runs": runs}, f, indent=1)
    print(f"overall (setup_s aside): {worst}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
