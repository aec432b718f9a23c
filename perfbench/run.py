#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload bushy --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Builds the nexsort library and the
benchmark driver (nexbench.cc) from the checkout's sources with CMake into
.bench_build/perfbench, then starts one driver process per sort until
--seconds have passed. Each process sets up a fresh file-backed SortEnv,
generates the workload's document from --seed, sorts it once, verifies
the output and prints a JSON record; a fresh process per sort keeps
allocator state from one sort out of the next.

The last line on stdout is the result: medians over the sorts of the
metrics BENCHMARK.json lists, end_to_end ones with --trace 0, per_layer
ones with --trace 1. The traced run also runs the layer probes and the
twin sorts (keypath with prefetch off; bushy and keypath cross-checked
byte for byte). Build logs and progress go to stderr. Working files live
in a per-run directory that is removed on every exit path.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("bushy", "wide", "keypath")
# bushy and keypath sort the same document with different algorithms.
CROSS_CHECK = {"bushy": "keypath", "keypath": "bushy"}
# A run must end within 180 s; its driver processes get 170 s after the build.
RUN_LIMIT_S = 170


class RunFailed(Exception):
    pass


def build():
    """Configure once, then build (a no-op when nothing changed)."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "nexbench"])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(BUILD_DIR, "nexbench")


class Driver:
    """Starts nexbench processes one at a time, each within the run limit."""

    def __init__(self, binary, seed, work_dir, trace_out, deadline):
        self.binary = binary
        self.seed = seed
        self.work_dir = work_dir
        self.trace_out = trace_out
        self.deadline = deadline
        self.process = None

    def record(self, workload, mode="sort", trace=0, extra=()):
        command = [self.binary, "--workload", workload, "--seed",
                   str(self.seed), "--mode", mode, "--trace", str(trace),
                   "--work-dir", self.work_dir, "--trace-out", self.trace_out]
        command += list(extra)
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        text=True)
        try:
            out, _ = self.process.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.stop()
            raise RunFailed("%s %s timed out" % (workload, mode))
        if self.process.returncode != 0:
            raise RunFailed("%s %s failed with exit code %d" %
                            (workload, mode, self.process.returncode))
        return json.loads(out.strip().splitlines()[-1])

    def stop(self):
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def measure(driver, args, outcome):
    """Sort until --seconds have passed; with --trace 1, add the probes and
    the twin sorts. Fills outcome["sorts"] and the traced extras."""
    start = time.monotonic()
    sorts = outcome["sorts"]
    # Start another sort only if one of average length still ends in time.
    while (not sorts or (time.monotonic() - start) * (len(sorts) + 1) /
           len(sorts) <= args.seconds):
        outcome["attempted"] += 1
        record = driver.record(args.workload, trace=args.trace)
        if sorts and record["digest"] != sorts[0]["digest"]:
            raise RunFailed("output digest differs between sorts")
        sorts.append(record)
        print("sort %d: %.3f s to first byte, %.1f MB/s, %d block I/Os" %
              (len(sorts), record["ttfb_s"], record["throughput_mb_s"],
               record["block_ios"]), file=sys.stderr)
    if not args.trace:
        return

    outcome["attempted"] += 1
    outcome["probes"] = driver.record(args.workload, mode="probes")
    outcome["prefetch_off_ios"] = 0
    if args.workload == "keypath":
        outcome["attempted"] += 1
        twin = driver.record(args.workload, extra=("--prefetch-depth", "0"))
        if twin["digest"] != sorts[0]["digest"]:
            raise RunFailed("prefetch changed the output")
        outcome["prefetch_off_ios"] = twin["block_ios"]
    other = CROSS_CHECK.get(args.workload)
    if other is not None:
        outcome["attempted"] += 1
        twin = driver.record(other)
        if twin["digest"] != sorts[0]["digest"]:
            raise RunFailed("output differs from %s's" % other)


def metrics(outcome, trace):
    sorts = outcome["sorts"]
    values = {key: statistics.median(s[key] for s in sorts)
              for key in sorts[0] if key != "digest"}
    if trace:
        probes = outcome["probes"]
        values.update(probes)
        values["traced.throughput_mb_s"] = values["throughput_mb_s"]
        values["core.scan_self_s"] = probes["core.scan_s"] - probes["xml.parse_s"]
        values["cache.prefetch_extra_ios"] = (
            values["block_ios"] - outcome["prefetch_off_ios"]
            if outcome["prefetch_off_ios"] else 0)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared_metrics(trace)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no nexsort sources (src/) beside perfbench/",
              file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 2

    work_dir = os.path.join(BUILD_DIR, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    trace_out = os.path.join(BUILD_DIR, "trace-%s-%d.jsonl" %
                             (args.workload, args.seed))
    if args.trace and os.path.exists(trace_out):
        os.remove(trace_out)
    driver = Driver(binary, args.seed, work_dir, trace_out,
                    time.monotonic() + RUN_LIMIT_S)
    outcome = {"attempted": 0, "sorts": []}
    # A terminated run still stops and reaps its driver process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    failure = None
    try:
        measure(driver, args, outcome)
    except RunFailed as error:
        failure = str(error)
    finally:
        driver.stop()
        shutil.rmtree(work_dir, ignore_errors=True)

    if failure is not None:
        print("run.py: %s" % failure, file=sys.stderr)
        result = {"correct": False, "attempted": outcome["attempted"],
                  "failed": 1, "metrics": {}}
    else:
        result = {"correct": True, "attempted": outcome["attempted"],
                  "failed": 0, "metrics": metrics(outcome, args.trace)}
    print(json.dumps(result))
    return 0 if failure is None else 1


if __name__ == "__main__":
    sys.exit(main())
