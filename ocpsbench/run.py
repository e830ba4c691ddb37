#!/usr/bin/env python3
"""Benchmark command for ocps: builds the ocpsbench binary and runs one workload.

Run from the root of a checkout:

    python3 ocpsbench/run.py --workload table1_cold --seed 1 --seconds 20 --trace 0

--workload is table1_cold, serve_batched, fleet_churn, or all. With --trace 0
the last stdout line is a JSON object whose metrics are the end-to-end metrics
of BENCHMARK.json; with --trace 1 it runs the workload for half the time
untraced and half with OCPS_OBS=1 and benchmark-side spans, and reports the
per-layer metrics (obs.trace_overhead_pct is traced minus untraced). Every other stdout line
is a human-readable table of everything measured.

Exit status: 0 when every output check passed, 1 when one failed (the JSON line
then says "correct": false), 2 when the benchmark could not run (no JSON line).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "ocpsbench")
BINARY = os.path.join(BUILD_DIR, "ocpsbench")
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures and builds the binary; a no-op when it is up to date."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise BenchError("run from the root of an ocps checkout: src/CMakeLists.txt not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(".bench_build", "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "ocpsbench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                raise BenchError("build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, traced, fault):
    """Runs one workload in a child process and returns its JSON result."""
    out_dir = os.path.join(".bench_build", "runs", "%s-s%d-t%d" % (workload, seed, int(traced)))
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--traced", "1" if traced else "0", "--out-dir", out_dir]
    if fault:
        cmd += ["--fault", fault]
    env = {k: v for k, v in os.environ.items() if k != "OCPS_OBS"}
    if traced:
        env["OCPS_OBS"] = "1"
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %d s" % (workload, CHILD_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError("%s exited with status %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    if (proc.returncode == 0) != result["correct"]:
        raise BenchError("%s: exit status disagrees with its result" % workload)
    return result


def pick(result, names, workload):
    """The named metrics of a child result, all of which must be present."""
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise BenchError("%s did not report %s" % (workload, ", ".join(missing)))
    return {n: result["metrics"][n] for n in names}


def run_workload(bench, workload, seed, seconds, trace, fault):
    if trace:
        # Half the time untraced, half traced: the difference in p50_ms
        # (the median pass on table1_cold, the median request on the serve
        # workloads) is the tracing overhead, and the run still measures
        # `seconds` in all.
        runs = [run_binary(workload, seed, seconds / 2, traced, fault) for traced in (False, True)]
        untraced, traced = runs
        overhead = 100.0 * (traced["metrics"]["p50_ms"]["value"] / untraced["metrics"]["p50_ms"]["value"] - 1.0)
        traced["metrics"]["obs.trace_overhead_pct"] = {"value": overhead, "unit": "%"}
        # A layer this workload never enters did no work and took no time.
        metrics = {m["name"]: traced["metrics"].get(m["name"], {"value": 0, "unit": m["unit"]})
                   for m in bench["per_layer"]}
    else:
        runs = [run_binary(workload, seed, seconds, False, fault)]
        metrics = pick(runs[0], [m["name"] for m in bench["end_to_end"]], workload)
    for m in bench["end_to_end"] + bench["per_layer"]:
        if m["name"] in metrics and metrics[m["name"]]["unit"] != m["unit"]:
            raise BenchError("%s: %s reported in %s, BENCHMARK.json says %s"
                             % (workload, m["name"], metrics[m["name"]]["unit"], m["unit"]))

    print("== %s (seed %d, %g s%s)" % (workload, seed, seconds, ", traced" if trace else ""))
    for r in runs:
        label = "traced" if r["traced"] else "untraced"
        for name, m in r["metrics"].items():
            print("  %-8s %-34s %14.6g %s" % (label, name, m["value"], m["unit"]))
        for v in r["violations"]:
            print("  CHECK FAILED: " + v)
        print("  %-8s info %s" % (label, json.dumps(r["info"], sort_keys=True)))
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(int(r["attempted"]) for r in runs),
        "failed": sum(int(r["failed"]) for r in runs),
        "metrics": metrics,
    }


def main():
    bench = load_json("BENCHMARK.json") if os.path.isfile("BENCHMARK.json") else None
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", default="", help=argparse.SUPPRESS)
    args = parser.parse_args()
    try:
        if bench is None:
            raise BenchError("BENCHMARK.json not found in the working directory")
        if not os.path.isdir("ocps_cache"):
            raise BenchError("committed profiles ocps_cache/ not found")
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        names = [w["name"] for w in bench["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError("unknown workload %r (one of %s, or all)" % (args.workload, ", ".join(names)))
        build()
        results = {}
        for name in names if args.workload == "all" else [args.workload]:
            results[name] = run_workload(bench, name, args.seed, seconds, args.trace, args.fault)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("ocpsbench: error: %s" % e)
        return 2
    if args.workload == "all":
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, n): m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    else:
        out = results[args.workload]
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
