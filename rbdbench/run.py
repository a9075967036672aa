#!/usr/bin/env python3
"""Build the library and the benchmark, then run one rbdbench workload.

    python3 rbdbench/run.py --workload dyn_batch|mpc_serve|accel_sim \
        --seed N --seconds S --trace 0|1 [--sabotage CHECK]

Run from the root of a checkout. The build goes to .bench_build/rbdbench
(Release, compiler-default ISA, the root CMakeLists.txt's flags). The last
line of standard output is one JSON object: with --trace 0 it carries the
end-to-end metrics, with --trace 1 the per-layer metrics derived from the
span file the traced run writes to .bench_build/spans/. A traced run also
runs the two other workloads briefly, traced, so that file covers every
layer and every workload reports every per-layer metric.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rbdbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")

ROBOTS = ("iiwa", "hyq", "atlas")
FNS = ("fd", "dfd", "difd25")
SIZES = ("n16", "n128")


def build():
    """Configure once, then bring the build up to date. Build output goes
    to stderr so the result line stays last on stdout."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "rbdbench")


def read_spans(path):
    """Span file -> ({name: [(t0_ns, t1_ns, value)]}, {counter: value})."""
    spans = defaultdict(list)
    counters = {}
    with open(path) as f:
        for line in f:
            p = line.rstrip("\n").split("\t")
            if p[0] == "S":
                spans[p[1]].append((int(p[4]), int(p[5]), float(p[6])))
            elif p[0] == "C":
                counters[p[1]] = float(p[2])
    return spans, counters


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        return float("nan")
    return xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])


def percentile(xs, p):
    """Nearest-rank percentile, as the C++ side computes it."""
    xs = sorted(xs)
    if not xs:
        return float("nan")
    rank = min(len(xs), max(1, math.ceil(p / 100.0 * len(xs))))
    return xs[rank - 1]


def dur_us(spans):
    return [(t1 - t0) * 1e-3 for t0, t1, _ in spans]


def layers_dyn_batch(spans, counters):
    m = {}
    for r in ROBOTS:
        for f in FNS:
            m[f"kernel.scalar_us_per_pt.{r}.{f}"] = (median(
                [(t1 - t0) * 1e-3 / v
                 for t0, t1, v in spans[f"kernel.scalar.{r}.{f}"]]), "us")
            m[f"kernel.soa_us_per_pt.{r}.{f}"] = (median(
                [(t1 - t0) * 1e-3 / v
                 for t0, t1, v in spans[f"engine1t.batch.{r}.{f}.n128"]]),
                "us")
            for s in SIZES:
                m[f"engine.batch_us.{r}.{f}.{s}"] = (median(
                    dur_us(spans[f"engine.batch.{r}.{f}.{s}"])), "us")
        for s in SIZES:
            eng = median(dur_us(spans[f"engine.batch.{r}.dfd.{s}"]))
            one = median(dur_us(spans[f"engine1t.batch.{r}.dfd.{s}"]))
            sub = median(dur_us(spans[f"backend.submit.{r}.dfd.{s}"]))
            m[f"engine.scaling.{r}.dfd.{s}"] = (one / eng, "ratio")
            m[f"backend.staging_us.{r}.dfd.{s}"] = (sub - eng, "us")
    return m


def layers_mpc_serve(spans, counters):
    m = {}
    ticks = spans["ctrl.tick"]
    m["ctrl.client_cpu_us_per_tick"] = (
        median([v * 1e-3 for _, _, v in ticks]), "us")
    m["ctrl.jobs_per_tick"] = (counters["ctrl.jobs"] / counters["ctrl.ticks"],
                               "jobs")
    m["server.submit_us.p50"] = (median(dur_us(spans["server.submit"])), "us")
    queue = [(t1 - t0) * 1e-3 - v for t0, t1, v in spans["server.bulk_job"]]
    m["server.queue_us.p50"] = (percentile(queue, 50), "us")
    m["server.queue_us.p99"] = (percentile(queue, 99), "us")
    window = counters["window_ns"]
    busy = defaultdict(float)
    fn_us = defaultdict(float)
    fn_tasks = defaultdict(float)
    batches = tasks = 0.0
    for name, ss in spans.items():
        if not name.startswith("backend.batch."):
            continue
        _, _, lane, fn = name.split(".")
        for t0, t1, v in ss:
            busy[lane] += t1 - t0
            fn_us[fn] += (t1 - t0) * 1e-3
            fn_tasks[fn] += v
            batches += 1
            tasks += v
    for lane in ("lane0", "lane1"):
        m[f"backend.busy_frac.{lane}"] = (busy[lane] / window, "fraction")
    for key, fn in (("fd", "FD"), ("dfd", "dFD")):
        m[f"backend.us_per_task.{key}"] = (
            fn_us[fn] / fn_tasks[fn] if fn_tasks[fn] else float("nan"), "us")
    m["backend.tasks_per_batch"] = (
        tasks / batches if batches else float("nan"), "tasks")
    for c in ("coalesced_batches", "steals", "deadline_met",
              "deadline_misses"):
        m[f"sched.{c}"] = (counters[f"sched.{c}"], "count")
    m["gen.lateness_us.p99"] = (
        percentile(dur_us(spans["gen.send"]), 99), "us")
    return m


def layers_accel_sim(spans, counters):
    m = {}
    for r in ROBOTS:
        for f in FNS:
            m[f"accel.cycles.{r}.{f}"] = (counters[f"accel.cycles.{r}.{f}"],
                                          "cycles")
            m[f"accel.sim_over_analytic.{r}.{f}"] = (
                counters[f"accel.sim_over_analytic.{r}.{f}"], "ratio")
        m[f"accel.fifo_stalls.{r}"] = (counters[f"accel.fifo_stalls.{r}"],
                                       "count")
        host_ns = cycles = 0.0
        for name, ss in spans.items():
            if name.startswith(f"accel.submit.{r}."):
                host_ns += sum(t1 - t0 for t0, t1, _ in ss)
                cycles += sum(v for _, _, v in ss)
        m[f"accel.host_ns_per_cycle.{r}"] = (host_ns / cycles, "ns")
        m[f"accel.max_rel_err.{r}"] = (counters[f"accel.max_rel_err.{r}"],
                                       "ratio")
    return m


LAYERS = {
    "dyn_batch": layers_dyn_batch,
    "mpc_serve": layers_mpc_serve,
    "accel_sim": layers_accel_sim,
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(LAYERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sabotage", default="")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"rbdbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    span_path = None
    if args.trace:
        os.makedirs(SPANS, exist_ok=True)
        span_path = os.path.join(SPANS,
                                 f"{args.workload}-seed{args.seed}.tsv")
        cmd += ["--spans", span_path]
    if args.sabotage:
        cmd += ["--sabotage", args.sabotage]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"rbdbench: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if args.trace:
        # The traced run's end-to-end figures stay visible for the
        # tracing-overhead comparison; the result carries the layers.
        for name, m in result["metrics"].items():
            print(f"traced-e2e {name} {m['value']:.6g} {m['unit']}")
        spans, counters = read_spans(span_path)
        layers = {}
        for derive in LAYERS.values():
            layers.update(derive(spans, counters))
        result["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in layers.items()}
        for k, (v, u) in layers.items():
            print(f"layer {k:44s} {v:.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
