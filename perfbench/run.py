#!/usr/bin/env python3
"""Run the repository benchmark on one workload and print its metrics.

    python3 perfbench/run.py --workload node-memcached --seed 1 \
        --seconds 25 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (the simulator library plus hipster_perfbench) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
only rebuild what changed. The program measures and checks, this
script reduces its samples to medians and quartiles, prints the host
and build it ran on, one line per metric, and as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones from a separately traced window. The exit code is 0 only when
every run's output fingerprint checked out. perfbench/README.md
defines the workloads and every metric.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

# Workload and metric names, units and order come from BENCHMARK.json
# at the repository root.
BENCHMARK_FILE = "BENCHMARK.json"

# A wedged program is killed well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build; returns the program path or None."""
    source = "perfbench"
    if not os.path.isfile(os.path.join(source, "CMakeLists.txt")):
        log("run.py: perfbench/CMakeLists.txt not found; "
            "run from the repository root")
        return None
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "hipster_perfbench", "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("run.py: build step failed:", " ".join(step))
            return None
    program = os.path.join(build_dir, "hipster_perfbench")
    return program if os.access(program, os.X_OK) else None


def spread(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    with open(BENCHMARK_FILE, encoding="utf-8") as definition:
        benchmark = json.load(definition)
    workloads = [w["name"] for w in benchmark["workloads"]]
    end_to_end = [(m["name"], m["unit"]) for m in benchmark["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in benchmark["per_layer"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    program = build(build_dir)
    if program is None:
        return 1

    command = [program, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(
            build_dir, "spans-%s.tsv" % args.workload)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: hipster_perfbench timed out")
        return 1
    lines = done.stdout.strip().splitlines()
    if not lines:
        log("run.py: hipster_perfbench printed nothing (exit %d)"
            % done.returncode)
        return 1
    record = json.loads(lines[-1])

    build_info = record["build"]
    print("perfbench %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("build: git %s, %s, %s, flags '%s'"
          % (build_info["git_sha"], build_info["compiler"],
             build_info["build_type"], build_info["flags"]))
    print("host: %s, nproc %d, kernel %s"
          % (cpu_model(), os.cpu_count() or 0, platform.release()))
    print("fingerprint %s (pinned %s)"
          % (record["fingerprint"], record["pinned"] or "none: seed is "
             "checked traced vs untraced and, for sweeps, jobs=1"))
    for failure in record["failures"]:
        print("FAIL", failure)

    attempted, failed = record["attempted"], record["failed"]
    samples = {
        "node_intervals_per_s": record["rates"],
        "setup_s": record["setup_s"],
    }
    values = {
        "peak_rss_mb": record["peak_rss_mb"],
        "qos_guarantee_pct": record["qos_guarantee_pct"],
        "energy_kj": record["energy_kj"],
        "pass_pct": 100.0 * (attempted - failed) / max(1, attempted),
    }
    metrics = {}
    if args.trace:
        print("%-28s %14s  %s" % ("metric", "value", "unit"))
        layers = dict(record["layers"])
        rate = spread(record["rates"])[0]
        traced = spread(record["traced_rates"])[0]
        layers["bench.trace_overhead_pct"] = 100.0 * (rate - traced) / rate
        for name, unit in per_layer:
            metrics[name] = {"value": layers[name], "unit": unit}
            print("%-28s %14.6g  %s" % (name, layers[name], unit))
        print("traced self time per bucket (share of %.3f s budget):"
              % record["budget_s"])
        for bucket, seconds in sorted(record["buckets"].items(),
                                      key=lambda kv: -kv[1]):
            print("  %-22s %10.4f s %6.2f %%"
                  % (bucket, seconds, 100.0 * seconds / record["budget_s"]))
    else:
        print("%-28s %14s %14s %14s %4s  %s"
              % ("metric", "median", "q1", "q3", "n", "unit"))
        for name, unit in end_to_end:
            if name in samples:
                median, q1, q3 = spread(samples[name])
                count = len(samples[name])
            else:
                median = q1 = q3 = values[name]
                count = 1
            metrics[name] = {"value": median, "unit": unit}
            print("%-28s %14.6g %14.6g %14.6g %4d  %s"
                  % (name, median, q1, q3, count, unit))
        raw, probe = record["raw_rates"], record["probe_rates"]
        if raw and probe:
            print("host speed: probe %.4g requests/s (nominal 5e6); unscaled "
                  "node_intervals_per_s median %.6g"
                  % (spread(probe)[0], spread(raw)[0]))

    correct = failed == 0 and done.returncode == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
