#!/usr/bin/env python3
"""Build and run the benchmark harness for one workload.

    python3 perfbench/run.py --read-rps 250 --update-batches 240 \
        --update-read-rps 250 --workers read-uniform=2,... --omp build=2,... \
        --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The offered rates, the update count and the
thread counts are the constants in BENCHMARK.json's "command"; nothing is
derived from a measurement of the code under test. The harness is built
from source into .bench_build/perfbench on first use.

Prints the run identity and every metric with its unit, then, as the last
line, one JSON object with the keys correct, attempted, failed and metrics.
Its metrics are exactly the ones BENCHMARK.json lists for the run
(end_to_end with --trace 0, per_layer with --trace 1), on every workload;
whatever else the harness measured is printed above it without a bound.
Exits 1 when a correctness check failed, 2 when the build or the harness
could not run or did not measure every listed metric (then without a
result line).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS_BUILD = os.path.join(BUILD, "perfbench")
HARNESS = os.path.join(HARNESS_BUILD, "perfbench_harness")
TIME_LIMIT_S = 175  # every run, build included, ends within 180 s
FIRST_BUILD_LIMIT_S = 870

WORKLOADS = ("read-uniform", "read-hot", "update-mix", "build")


def parse_counts(text):
    """'read-uniform=2,build=0' -> {'read-uniform': 2, 'build': 0}"""
    out = {}
    for item in filter(None, text.split(",")):
        name, _, value = item.partition("=")
        out[name.strip()] = int(value)
    return out


def listed_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json asks of this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_group(cmd, deadline, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (compilers under cmake included) and wait for it. None on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.time()))
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def build_harness(deadline):
    """Configure (once) and build the harness; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "perfbench-build.log")
    with open(log_path, "a") as out:
        if not os.path.exists(os.path.join(HARNESS_BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", HARNESS_BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            code, _ = run_group(cmd, deadline, stdout=out, stderr=subprocess.STDOUT)
            if code != 0:
                shutil.rmtree(HARNESS_BUILD, ignore_errors=True)
                return False, log_path
        cmd = ["cmake", "--build", HARNESS_BUILD, "--target", "perfbench_harness",
               "-j", str(os.cpu_count() or 1)]
        code, _ = run_group(cmd, deadline, stdout=out, stderr=subprocess.STDOUT)
    return code == 0, log_path


def source_identity():
    """The commit when the root is a git checkout, else a digest of src/."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--read-rps", type=float, required=True,
                    help="offered rate of read-uniform and read-hot, requests/s")
    ap.add_argument("--update-batches", type=int, required=True,
                    help="update batches update-mix sends")
    ap.add_argument("--update-read-rps", type=float, required=True,
                    help="offered rate of update-mix's reader, requests/s")
    ap.add_argument("--workers", type=parse_counts, required=True,
                    help="query workers per serving workload, e.g. read-uniform=2")
    ap.add_argument("--omp", type=parse_counts, required=True,
                    help="OpenMP threads per workload, e.g. build=2")
    args = ap.parse_args()

    start = time.time()
    first_build = not os.path.exists(HARNESS)
    deadline = start + (FIRST_BUILD_LIMIT_S if first_build else TIME_LIMIT_S)
    try:
        ok, log_path = build_harness(deadline)
    except (OSError, subprocess.SubprocessError) as e:
        ok, log_path = False, str(e)
    if not ok:
        log(f"run.py: building the harness failed; see {log_path}")
        return 2

    knobs = {}
    if args.workload in args.workers:
        knobs["workers"] = args.workers[args.workload]
    if args.workload.startswith("read-"):
        knobs["rps"] = args.read_rps
    elif args.workload == "update-mix":
        knobs["batches"] = args.update_batches
        knobs["read_rps"] = args.update_read_rps
    omp = args.omp.get(args.workload, 1)
    work = os.path.join(BUILD, "work")
    results = os.path.join(BUILD, "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work, "--trace_out", os.path.join(results, stem + ".spans.jsonl")]
    for k, v in sorted(knobs.items()):
        cmd += ["--" + k, str(v)]
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(omp)

    code, stdout = run_group(cmd, deadline, stdout=subprocess.PIPE, env=env, text=True)
    if code is None:
        log(f"run.py: {args.workload} did not finish in time")
        return 2
    lines = stdout.strip().splitlines()
    if code not in (0, 1) or not lines:
        log(f"run.py: harness exited {code} without a result")
        return 2
    record = json.loads(lines[-1])
    listed = listed_metrics(args.trace)
    measured = record["metrics"]
    bad = [n for n, unit in listed.items()
           if n not in measured or measured[n]["unit"] != unit
           or not isinstance(measured[n]["value"], (int, float))
           or not math.isfinite(measured[n]["value"])]
    if bad:
        log(f"run.py: {args.workload} did not measure {', '.join(sorted(bad))} "
            "as BENCHMARK.json lists them")
        return 2
    record["metrics"] = {n: measured[n] for n in listed}
    record["diagnostics"] = {n: m for n, m in measured.items() if n not in listed}

    identity = dict(record["identity"])
    identity.update({
        "source": source_identity(),
        "python_nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [],
        "query_workers": knobs.get("workers", 0),
        "omp_threads_requested": omp,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": round(time.time() - start, 3),
    })
    record["identity"] = identity
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump({"command": cmd, "knobs": knobs, **record}, f, indent=1, sort_keys=True)

    print("identity: " + json.dumps(identity, sort_keys=True))
    for name, m in sorted(record["metrics"].items()):
        n = record["samples"].get(name)
        print(f"{name} = {m['value']:.6g} {m['unit']}" + (f"  (n={n})" if n else ""))
    for name, m in sorted(record["diagnostics"].items()):
        n = record["samples"].get(name)
        value = f"{m['value']:.6g}" if m["value"] is not None else "not finite"
        print(f"{name} = {value} {m['unit']}  (diagnostic, no bound"
              + (f", n={n})" if n else ")"))
    for failure in record["failures"]:
        print("FAILED CHECK: " + failure)
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
