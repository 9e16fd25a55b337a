#!/usr/bin/env python3
"""Emit a compact perf-trail JSON from the smoke-tier benches.

Runs `micro_core --smoke --benchmark_format=json`, extracts the probe
throughput benches (BM_ProbeSwap / BM_ApplySwap / BM_ProbeBatch{4,8,16,32})
keyed by circuit, and writes a small JSON file with ns per candidate per
bench plus the batch8-vs-width-1 probe speedup per circuit, and the result
codec benches (BM_EncodeResult / BM_DecodeResult at 10k and 50k slots) in
microseconds per call. With --macro it
additionally runs `macro_scale --smoke` and folds its per-circuit scale
report (build/setup/probe times, the layer-by-layer probe profile, the
short engine runs, and the parallel-shared strong-scaling counters at
1/2/4/8 threads) into the output. CI runs this on every push and uploads
the result as an artifact (BENCH_baseline.json), so future PRs have a
trajectory of throughput
numbers to compare against; the checked-in bench/BENCH_baseline.json is the
latest snapshot. The retired CSR-vs-vector-of-vectors and
probe-vs-apply/undo ratios are recorded in CHANGES.md.

Both inputs are schema-validated: a tracked bench or counter that goes
missing (renamed benchmark, label format drift, a MACRO line losing a key)
fails the run loudly instead of silently emitting a hollow perf trail.
The run also fails when fewer than O1_SHARE_FLOOR of the touched nets in a
circuit's probe profile are scored on the runner-up O(1) path: a kernel
that quietly falls back to re-reading every pin stays correct, so no test
would notice, but it gives back the speed-up. The share is a count over
fixed-seed pairs, so it does not vary between runners.

Usage:
    bench/dump_json.py <path-to-micro_core> [--macro <path-to-macro_scale>]
                       [-o BENCH_baseline.json]
"""

import argparse
import json
import subprocess
import sys

TRACKED_PREFIXES = ("BM_ProbeSwap", "BM_ApplySwap", "BM_ProbeBatch4",
                    "BM_ProbeBatch8", "BM_ProbeBatch16", "BM_ProbeBatch32")

# The served-result JSON codec, per result size (slots): microseconds per
# encode_result / decode_result call.
CODEC_BENCHES = ("BM_EncodeResult", "BM_DecodeResult")
CODEC_SLOTS = ("10000", "50000")

# One BM_ProbeBatchN iteration scores N candidates; real_time is divided by
# the width so every tracked number is ns per candidate, comparable with
# BM_ProbeSwap.
BATCH_WIDTHS = {"BM_ProbeBatch4": 4, "BM_ProbeBatch8": 8,
                "BM_ProbeBatch16": 16, "BM_ProbeBatch32": 32}

MACRO_KEYS = ("circuit", "gates", "nets", "pins", "logic_depth", "build_ms",
              "setup_ms", "paths_ms", "probe_ns", "batch_probe_ns",
              "batch_speedup", "probe_profile", "engines", "shared_scaling",
              "eco")
PROFILE_KEYS = ("pairs", "equal", "unequal", "moved_cells", "nets", "pins",
                "o1_share", "rescan_share", "overlay_ns", "marking_ns",
                "box_ns", "delay_ns", "owa_ns", "equal_probe_ns",
                "unequal_probe_ns")
PROFILE_PHASES = ("overlay_ns", "marking_ns", "box_ns", "delay_ns", "owa_ns")
# Measured 0.96 on scale10k and 0.98 on scale50k when the kernel landed.
O1_SHARE_FLOOR = 0.9
ECO_KEYS = ("cold_trials", "warm_trials", "trials_ratio", "cold_best_cost",
            "warm_initial_cost", "warm_best_cost", "warm_reached_target")
MACRO_ENGINES = ("tabu", "anneal", "parallel-sim", "parallel-shared")
MACRO_ENGINE_KEYS = ("wall_ms", "makespan_s", "initial_cost", "best_cost",
                     "best_quality", "tt50_s")
SCALING_THREADS = ("1", "2", "4", "8")
SCALING_KEYS = ("threads_used", "makespan_s", "trials_per_s", "speedup_vs_1")


def fail(message):
    sys.exit(f"dump_json.py: {message}")


def run_micro(binary):
    cmd = [
        binary,
        "--smoke",
        "--benchmark_format=json",
        "--benchmark_filter=" + "|".join(TRACKED_PREFIXES + CODEC_BENCHES),
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def parse_micro(raw):
    benches = {}
    for entry in raw.get("benchmarks", []):
        name = entry["name"]  # e.g. BM_ProbeSwap/3
        bench = name.split("/")[0]
        if bench not in TRACKED_PREFIXES:
            continue
        label = entry.get("label") or name
        circuit = label.split()[0]
        if "real_time" not in entry:
            fail(f"micro bench {name} has no real_time counter")
        per_item = entry["real_time"] / BATCH_WIDTHS.get(bench, 1)
        benches.setdefault(bench, {})[circuit] = round(per_item, 2)
    # Schema: every tracked bench present, every bench covering the same
    # non-empty circuit set, every timing positive.
    missing = [b for b in TRACKED_PREFIXES if b not in benches]
    if missing:
        fail(f"tracked benches missing from micro_core output: {missing}")
    circuit_sets = {b: set(v) for b, v in benches.items()}
    reference = circuit_sets[TRACKED_PREFIXES[0]]
    if not reference:
        fail(f"{TRACKED_PREFIXES[0]} reported no circuits")
    for bench, circuits in circuit_sets.items():
        if circuits != reference:
            fail(f"{bench} circuits {sorted(circuits)} != "
                 f"{TRACKED_PREFIXES[0]} circuits {sorted(reference)}")
    for bench, values in benches.items():
        for circuit, ns in values.items():
            if not ns > 0:
                fail(f"{bench}/{circuit} reported non-positive time {ns}")
    return benches


def parse_codec(raw):
    """Codec benches as {bench: {slots: us per call}}; all must be present."""
    codec = {}
    for entry in raw.get("benchmarks", []):
        bench, _, slots = entry["name"].partition("/")
        if bench not in CODEC_BENCHES:
            continue
        if entry.get("time_unit") != "us" or "real_time" not in entry:
            fail(f"codec bench {entry['name']} has no real_time in us")
        codec.setdefault(bench, {})[slots] = round(entry["real_time"], 1)
    for bench in CODEC_BENCHES:
        missing = [s for s in CODEC_SLOTS if s not in codec.get(bench, {})]
        if missing:
            fail(f"codec bench {bench} missing slot counts {missing}")
        for slots, us in codec[bench].items():
            if not us > 0:
                fail(f"{bench}/{slots} reported non-positive time {us}")
    return codec


def run_macro(binary):
    cmd = [binary, "--smoke"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    entries = []
    for line in out.stdout.splitlines():
        if line.startswith("MACRO "):
            try:
                entries.append(json.loads(line[len("MACRO "):]))
            except json.JSONDecodeError as err:
                fail(f"unparseable MACRO line from {binary}: {err}")
    if not entries:
        fail(f"{binary} emitted no MACRO lines")
    report = {}
    for entry in entries:
        missing = [k for k in MACRO_KEYS if k not in entry]
        if missing:
            fail(f"MACRO entry {entry.get('circuit', '?')} missing keys "
                 f"{missing}")
        for engine in MACRO_ENGINES:
            if engine not in entry["engines"]:
                fail(f"MACRO entry {entry['circuit']} missing engine "
                     f"{engine}")
            absent = [k for k in MACRO_ENGINE_KEYS
                      if k not in entry["engines"][engine]]
            if absent:
                fail(f"MACRO entry {entry['circuit']} engine {engine} "
                     f"missing counters {absent}")
        for threads in SCALING_THREADS:
            if threads not in entry["shared_scaling"]:
                fail(f"MACRO entry {entry['circuit']} shared_scaling missing "
                     f"thread count {threads}")
            point = entry["shared_scaling"][threads]
            absent = [k for k in SCALING_KEYS if k not in point]
            if absent:
                fail(f"MACRO entry {entry['circuit']} shared_scaling[{threads}]"
                     f" missing counters {absent}")
            if not point["trials_per_s"] > 0:
                fail(f"MACRO entry {entry['circuit']} shared_scaling[{threads}]"
                     f" non-positive trials_per_s")
            if not point["speedup_vs_1"] > 0:
                fail(f"MACRO entry {entry['circuit']} shared_scaling[{threads}]"
                     f" non-positive speedup_vs_1")
            if not 1 <= point["threads_used"] <= int(threads):
                fail(f"MACRO entry {entry['circuit']} shared_scaling[{threads}]"
                     f" threads_used {point['threads_used']} outside "
                     f"[1, {threads}]")
        profile = entry["probe_profile"]
        absent = [k for k in PROFILE_KEYS if k not in profile]
        if absent:
            fail(f"MACRO entry {entry['circuit']} probe_profile missing "
                 f"counters {absent}")
        if profile["equal"] + profile["unequal"] != profile["pairs"]:
            fail(f"MACRO entry {entry['circuit']} probe_profile equal + "
                 f"unequal != pairs")
        for key in ("o1_share", "rescan_share"):
            if not 0.0 <= profile[key] <= 1.0:
                fail(f"MACRO entry {entry['circuit']} probe_profile {key} "
                     f"{profile[key]} outside [0, 1]")
        for key in PROFILE_PHASES:
            if not profile[key] > 0:
                fail(f"MACRO entry {entry['circuit']} probe_profile "
                     f"non-positive {key}")
        if profile["o1_share"] < O1_SHARE_FLOOR:
            fail(f"MACRO entry {entry['circuit']} scored only "
                 f"{profile['o1_share']:.3f} of touched nets on the O(1) "
                 f"runner-up path (floor {O1_SHARE_FLOOR}): the probe kernel "
                 f"is falling back to re-reading pins")
        absent = [k for k in ECO_KEYS if k not in entry["eco"]]
        if absent:
            fail(f"MACRO entry {entry['circuit']} eco block missing counters "
                 f"{absent}")
        if not entry["eco"]["cold_trials"] > 0:
            fail(f"MACRO entry {entry['circuit']} eco non-positive cold_trials")
        if not entry["eco"]["trials_ratio"] >= 0:
            fail(f"MACRO entry {entry['circuit']} eco negative trials_ratio")
        if not entry["build_ms"] > 0:
            fail(f"MACRO entry {entry['circuit']} non-positive build_ms")
        if not 0 < entry["paths_ms"] <= entry["setup_ms"]:
            fail(f"MACRO entry {entry['circuit']} paths_ms "
                 f"{entry['paths_ms']} outside (0, setup_ms]")
        if not entry["batch_probe_ns"] > 0:
            fail(f"MACRO entry {entry['circuit']} non-positive batch_probe_ns")
        if not entry["batch_speedup"] > 0:
            fail(f"MACRO entry {entry['circuit']} non-positive batch_speedup")
        report[entry["circuit"]] = entry
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("binary", help="path to the micro_core binary")
    parser.add_argument("--macro", default=None,
                        help="path to the macro_scale binary (optional)")
    parser.add_argument("-o", "--output", default="BENCH_baseline.json")
    args = parser.parse_args()

    raw = run_micro(args.binary)
    benches = parse_micro(raw)
    codec = parse_codec(raw)

    batch_speedup = {}
    swap = benches["BM_ProbeSwap"]
    batch8 = benches["BM_ProbeBatch8"]
    for circuit in sorted(set(swap) & set(batch8)):
        batch_speedup[circuit] = round(swap[circuit] / batch8[circuit], 3)

    result = {
        "source": "micro_core --smoke (google-benchmark)",
        "unit": "ns per candidate (real time; batch benches divided by width)",
        "context": raw.get("context", {}),
        "benchmarks": benches,
        "probe_batch_speedup": batch_speedup,
        "codec_us": codec,
    }
    if args.macro:
        result["macro_scale"] = run_macro(args.macro)
    with open(args.output, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.output}: batch8-vs-width-1 probe speedup "
          f"{batch_speedup}")
    print("  result codec us per call: " + ", ".join(
        f"{bench[3:]} {slots} slots {us}"
        for bench in CODEC_BENCHES for slots, us in sorted(codec[bench].items())))
    if args.macro:
        for circuit, entry in sorted(result["macro_scale"].items()):
            scaling = entry["shared_scaling"]
            speedups = ", ".join(
                f"{t}T ({scaling[t]['threads_used']} used) "
                f"{scaling[t]['speedup_vs_1']:.2f}x"
                for t in SCALING_THREADS)
            eco = entry["eco"]
            profile = entry["probe_profile"]
            phases = " | ".join(f"{k[:-3]} {profile[k]:.0f}"
                                for k in PROFILE_PHASES)
            print(f"  {circuit}: build {entry['build_ms']:.0f} ms, "
                  f"setup {entry['setup_ms']:.1f} ms "
                  f"(paths {entry['paths_ms']:.1f} ms), "
                  f"probe {entry['probe_ns']:.0f} ns/op, "
                  f"shared scaling {speedups}, "
                  f"eco warm/cold trials {eco['trials_ratio']:.3f}")
            print(f"  {circuit} probe profile: O(1) nets "
                  f"{profile['o1_share']:.3f}, commit rescans "
                  f"{profile['rescan_share']:.3f}, ns/probe {phases}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
