#!/usr/bin/env python3
"""SpecSync end-to-end benchmark.

    python3 perfbench/run.py --workload sim-mf-40 --seed 1 --seconds 50 --trace 0

Builds perfbench_runner (perfbench/CMakeLists.txt, against the repository's
src/ libraries) into .bench_build/perfbench, then runs whole rounds of
repetitions of one workload for about --seconds. Repetition i of a run uses
sub-seed seed * 1000 + i, so the same seed gives the same inputs in the same
order. Each repetition is its own process, so its peak resident memory
belongs to that repetition alone.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
separate traced repetitions (and writes the benchmark's Chrome traces under
.bench_build/perfbench/traces). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Any failed output check
makes the exit code 1; a failed build or a missing src/ tree exits 2 without
a result. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")

# Repetitions per measured round, about 12-15 s on a 4-core machine: short
# enough that a run ends within a few seconds of --seconds. Every repetition
# has its own sub-seed, which averages out the loss's dependence on the data
# seed; the repetitions steady the throughput median.
ROUNDS = {"sim-mf-40": 10, "rt-tcp-mf-2": 4}
TRACE_ROUND = 4  # repetitions per traced round; per-layer metrics have no bound
MAX_REPS = 1000  # sub-seeds of one seed; a run stops before it repeats one
CHILD_TIMEOUT_S = 60  # a repetition takes a few seconds


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree next to perfbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "--parallel", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(step))


def run_child(workload, seed, trace):
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--mode", "trace" if trace else "measure"]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("runner timed out on %s seed %d" % (workload, seed), 1)
    lines = [l for l in done.stdout.splitlines() if l.startswith("{")]
    if not lines or done.returncode not in (0, 1):
        sys.stderr.write(done.stderr[-4000:])
        fail("runner exited %d on %s seed %d" % (done.returncode, workload,
                                                   seed))
    rep = json.loads(lines[-1])
    rep["exit_ok"] = done.returncode == 0
    return rep


def finite(values):
    # The runner prints a non-finite figure as null; its check has already
    # failed, and the remaining figures still make a printable result.
    return [v for v in values if v is not None] or [0.0]


def median(values):
    return statistics.median(finite(values))


def end_to_end(reps):
    return {
        # Every set-up build of every repetition: many short samples spread
        # over the run, so one slow moment cannot move the median.
        "setup_s": (median([s for r in reps for s in r["setup_s"]]), "s"),
        "pushes_per_s": (median([r["pushes"] / r["run_s"] for r in reps]),
                         "pushes/s"),
        "loss_at_end": (statistics.fmean(finite([r["loss_end"]
                                                 for r in reps])), "loss"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MiB"),
    }


def per_layer(reps):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    for r in reps:
        unknown = sorted(set(r["layers"]) - set(units))
        if unknown:
            fail("runner reported unknown per-layer metrics: " +
                 ", ".join(unknown), 1)
    # A layer that does not run on a workload reports nothing and reads 0.
    return {name: (median([r["layers"].get(name, 0.0) for r in reps]), unit)
            for name, unit in units.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    start = time.monotonic()
    reps = []
    size = TRACE_ROUND if args.trace else ROUNDS[args.workload]
    rounds = 0
    while True:
        for _ in range(size):
            reps.append(run_child(args.workload,
                                  args.seed * MAX_REPS + len(reps),
                                  args.trace == 1))
        rounds += 1
        elapsed = time.monotonic() - start
        # Whole rounds only; stop where the run ends nearest to --seconds.
        if (elapsed + 0.5 * elapsed / rounds >= args.seconds or
                len(reps) + size > MAX_REPS):
            break

    failed_checks = ["%s (seed %d): %s" % (c["name"], r.get("seed", -1),
                                            c["detail"])
                     for r in reps for c in r["checks"] if not c["ok"]]
    correct = not failed_checks and all(r["exit_ok"] for r in reps)
    for line in failed_checks:
        print("check failed: " + line, file=sys.stderr)
    metrics = per_layer(reps) if args.trace else end_to_end(reps)
    result = {
        "correct": correct,
        "attempted": int(sum(r["attempted"] for r in reps)),
        "failed": int(sum(r["failed"] for r in reps)),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
