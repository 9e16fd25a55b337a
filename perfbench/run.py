#!/usr/bin/env python3
"""Builds and runs the pts benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload large-tabu --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (the pts library from src/
plus the perfbench program) in an optimized build under $CARGO_TARGET_DIR
(default .bench_build). The program's last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --quick

is the benchmark's own quick tier: every workload at tiny sizes, with and
without tracing. It asserts that every metric BENCHMARK.json names is
present with its unit, and that a deliberately corrupted result is counted
as a failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "solver", "solver.hpp")):
        log(f"no pts sources under {ROOT}/src; nothing to benchmark")
        return None
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                          timeout=850).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def run(binary, args):
    """Runs the program; returns its result object or None."""
    # Relative to the root the program runs in: the daemon's Unix socket
    # lives here, and socket paths are limited to about 100 bytes.
    out_dir = os.path.relpath(os.path.join(build_dir(), "perfbench-out"), ROOT)
    cmd = [binary] + args + ["--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("run timed out: " + " ".join(cmd))
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run failed with code {proc.returncode}: " + " ".join(cmd))
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line is not JSON: " + lines[-1])
        return None


def quick(binary):
    """The quick tier; returns a process exit code."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "interaction_map.json")) as f:
        interactions = json.load(f)
    problems = [f"interaction_map.json: no {key} entry for {entry['name']}"
                for key in ("workloads", "end_to_end", "per_layer")
                for entry in spec[key]
                if entry["name"] not in interactions[key]]
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", name, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--quick"]
            result = run(binary, args)
            if result is None:
                problems.append(f"{name} trace={trace}: no result")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{name} trace={trace}: {result['failed']} "
                                f"of {result['attempted']} checks failed")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{name}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} unit "
                                    f"{got['unit']} != {metric['unit']}")
            log(f"quick {name} trace={trace}: {len(result['metrics'])} "
                f"metrics, {result['attempted']} checks")
        corrupted = run(binary, ["--workload", name, "--seed", "1",
                                 "--seconds", "1", "--trace", "0", "--quick",
                                 "--corrupt"])
        if corrupted is None or corrupted["failed"] == 0 or corrupted["correct"]:
            problems.append(f"{name}: a corrupted result was not detected")
        else:
            log(f"quick {name} corrupted: fail_ratio "
                f"{corrupted['failed']} / {corrupted['attempted']}")
    for p in problems:
        log("QUICK TIER: " + p)
    print(json.dumps({"quick_tier": "fail" if problems else "pass",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run the quick tier instead of one workload")
    args = parser.parse_args()
    if not args.quick and not args.workload:
        parser.error("--workload is required unless --quick")

    binary = build()
    if binary is None:
        return 2
    if args.quick:
        return quick(binary)
    result = run(binary, ["--workload", args.workload, "--seed",
                          str(args.seed), "--seconds", str(args.seconds),
                          "--trace", str(args.trace)])
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
