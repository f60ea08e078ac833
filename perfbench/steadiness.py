#!/usr/bin/env python3
"""Steadiness report: run one commit's benchmark repeatedly and print each
end-to-end metric's median and quartiles next to its bound.

    python3 perfbench/steadiness.py [--runs 10] [--seed0 1]
                                    [--workloads read-uniform,build]

Run from the repository root. Each run uses another seed, as the
acceptance check does. The spread is (q3 - q1) / median with the quartiles
of statistics.quantiles(values, n=4); a metric is "steady" when its spread
is under a third of its bound. Raw results go to
.bench_build/steadiness-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    if len(values) < 2:
        return 0.0, values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return ((q3 - q1) / abs(med) if med else float("inf")), q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    raw = {}
    ok = True
    for w in workloads:
        raw[w] = []
        for i in range(args.runs):
            seed = args.seed0 + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            t0 = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.time() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            result["wall_s"] = wall
            raw[w].append(result)
            print(f"{w} seed {seed}: {wall:.1f} s, correct={result['correct']}",
                  file=sys.stderr, flush=True)

    print(f"{'workload':<13} {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        runs = raw[w]
        if not runs:
            continue
        names = sorted({n for r in runs for n in r["metrics"]})
        for n in names:
            values = [r["metrics"][n]["value"] for r in runs if n in r["metrics"]]
            s, q1, med, q3 = spread(values)
            bound = bounds[n]
            if s <= bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY" if n != "setup_s" else "noisy (setup_s)"
            print(f"{w:<13} {n:<28} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {s:>7.3f} "
                  f"{bound:>6}  {verdict}")
        walls = [r["wall_s"] for r in runs]
        print(f"{w:<13} {'(run wall time, s)':<28} {statistics.median(walls):>12.4g} "
              f"{min(walls):>12.4g} {max(walls):>12.4g}")

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    out = os.path.join(ROOT, ".bench_build", f"steadiness-{int(time.time())}.json")
    with open(out, "w") as f:
        json.dump(raw, f)
    print(f"raw results: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
