#!/usr/bin/env python3
"""bbsim end-to-end benchmark: one workload, one seed, one result line.

Builds perfbench/bbsim_perf from the checkout's own sources (configured once
into .bench_build at the checkout root), runs one workload for --seconds of
measured work, checks the outputs, and prints every metric by name and unit.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics;
with --trace 1 the run is the separate per-layer run and the metrics are the
per-layer metrics (spans go to .bench_build/spans/).

  python3 perfbench/run.py --workload sim_wide --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1     # every workload, a table
  python3 perfbench/run.py --workload fleet --seed 1 --bless   # re-pin references

Output checks, each failure counting as one failed operation: every task
finishes (done in bbsim_perf), repeated runs on the same input agree exactly,
audited runs are violation-free, and for seeds pinned in references.json the
makespans agree to 1e-6 relative, the batch schedule hashes match, and (traced
runs) the exact work counters match.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
REFERENCES = os.path.join(HERE, "references.json")

WORKLOADS = ["sim_wide", "sim_narrow", "fleet", "genomes_resil"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 1001
MAKESPAN_RTOL = 1e-6
RUN_TIMEOUT_S = 170
POLICIES = ["fcfs", "easy", "conservative", "plan"]
# Median wall seconds of bbsim_perf's calibration kernel on the reference
# host (manifest.json, "machine"); times are reported at that host's speed.
REFERENCE_CALIBRATION_S = 0.0105

END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "workflow.gen_s": "s",
    "exec.construct_s": "s",
    "exec.run_s": "s",
    "exec.outside_dispatch_s": "s",
    "exec.placement_s": "s",
    "sim.dispatch_s": "s",
    "sim.events": "count",
    "sim.us_per_event": "us",
    "sim.dispatch_other_s": "s",
    "sim.dispatch_other_share": "ratio",
    "flow.solve_s": "s",
    "flow.solve_calls": "count",
    "flow.solve_rounds": "count",
    "flow.flows_per_solve": "flows",
    "resil.checkpoints": "count",
    "resil.tasks_killed": "count",
    "resil.rollbacks": "count",
    "observers.overhead_ratio": "ratio",
    "sweep.run_s_median": "s",
    "sweep.run_s_max": "s",
    **{f"batch.{p}_s": "s" for p in POLICIES},
    **{f"batch.backfilled.{p}": "count" for p in POLICIES},
    "batch.conservative_exponent": "log-slope",
    "trace_overhead": "ratio",
}

# Counters that are deterministic functions of the input; a traced run of a
# pinned seed must reproduce them exactly.
EXACT_COUNTERS = (
    ["sim.events", "flow.solve_calls", "flow.solve_rounds", "flow.solve_flows_resolved",
     "resil.checkpoints", "resil.tasks_killed", "resil.rollbacks"]
    + [f"batch.backfilled.{p}" for p in POLICIES]
)

# What the end-to-end throughput counts on each workload.
ITEM_NAMES = {"sim_wide": "tasks_per_s", "sim_narrow": "tasks_per_s",
              "fleet": "jobs_per_s", "genomes_resil": "tasks_per_s"}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure, crash)."""


# ----------------------------------------------------------------- metrics

def median(values):
    return statistics.median(values) if values else 0.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator > 0 else 0.0


def at_reference_speed(seconds, calibration_s):
    """Wall seconds scaled to the reference host's speed.

    Before each loop pass bbsim_perf times a fixed register-only kernel,
    outside the library, and books the median with the pass's set-ups and
    iterations. Other tenants of a shared host slow the kernel and the
    workload alike, for seconds to minutes at a time, which no number of
    repetitions inside one run averages away; scaling by
    REFERENCE_CALIBRATION_S over the kernel's time cancels most of it.
    """
    return seconds * REFERENCE_CALIBRATION_S / calibration_s if calibration_s > 0 else seconds


def reference_rate(iterations):
    """Items per second at the reference host's speed.

    Iterations are keyed by the unit of work (one simulation, one policy
    over the stream, one grid point); each key keeps the median of its
    scaled times, and the rate is the summed items over the summed medians.
    """
    times = {}
    for it in iterations:
        times.setdefault(it["key"], (it["items"], []))[1].append(
            at_reference_speed(it["seconds"], it["calibration_s"]))
    return ratio(sum(items for items, _ in times.values()),
                 sum(median(seconds) for _, seconds in times.values()))


def end_to_end_metrics(raw):
    setups = zip(raw["setup_s"], raw["setup_calibration_s"])
    return {
        "items_per_s": reference_rate(raw["iterations"]),
        "setup_s": median([at_reference_speed(s, c) for s, c in setups]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def merge_layer_runs(layer_runs):
    """One value per layer key: the median over the traced repetitions, or
    for list-valued keys (per-run sweep walls) the concatenated list."""
    merged = {}
    for key in sorted({k for run in layer_runs for k in run}):
        values = [run[key] for run in layer_runs if key in run]
        if isinstance(values[0], list):
            merged[key] = [v for value in values for v in value]
        else:
            merged[key] = median(values)
    return merged


def unsteady_counters(layer_runs):
    """Exact counters that did not repeat identically across repetitions."""
    return [name for name in EXACT_COUNTERS
            if len({run.get(name, 0.0) for run in layer_runs}) > 1]


def per_layer_metrics(layers):
    """Every per-layer metric from merged layer values; 0 where the workload
    does not load the layer."""

    def get(key):
        return float(layers.get(key, 0.0))

    run_s, dispatch = get("exec.run_s"), get("sim.dispatch_s")
    solve, placement, events = get("flow.solve_s"), get("exec.placement_s"), get("sim.events")
    other = dispatch - solve - placement if dispatch > 0 else 0.0
    walls = layers.get("sweep.run_s", [])
    out = {
        "workflow.gen_s": get("workflow.gen_s"),
        "exec.construct_s": get("exec.construct_s"),
        "exec.run_s": run_s,
        "exec.outside_dispatch_s": run_s - dispatch if run_s > 0 else 0.0,
        "exec.placement_s": placement,
        "sim.dispatch_s": dispatch,
        "sim.events": events,
        "sim.us_per_event": ratio(dispatch * 1e6, events),
        "sim.dispatch_other_s": other,
        "sim.dispatch_other_share": ratio(other, dispatch),
        "flow.solve_s": solve,
        "flow.solve_calls": get("flow.solve_calls"),
        "flow.solve_rounds": get("flow.solve_rounds"),
        "flow.flows_per_solve": ratio(get("flow.solve_flows_resolved"), get("flow.solve_calls")),
        "resil.checkpoints": get("resil.checkpoints"),
        "resil.tasks_killed": get("resil.tasks_killed"),
        "resil.rollbacks": get("resil.rollbacks"),
        "observers.overhead_ratio": ratio(get("observers.on_s"), get("observers.off_s")),
        "sweep.run_s_median": median(walls),
        "sweep.run_s_max": max(walls) if walls else 0.0,
        "batch.conservative_exponent": conservative_exponent(
            get("batch.conservative_s"), get("batch.jobs"),
            get("batch.conservative_quarter_s"), get("batch.quarter_jobs")),
        "trace_overhead": ratio(run_s, get("exec.untraced_run_s")),
    }
    for policy in POLICIES:
        out[f"batch.{policy}_s"] = get(f"batch.{policy}_s")
        out[f"batch.backfilled.{policy}"] = get(f"batch.backfilled.{policy}")
    return out


def conservative_exponent(full_s, full_jobs, small_s, small_jobs):
    """Log-slope of conservative's time between the small and the full stream."""
    if min(full_s, full_jobs, small_s, small_jobs) <= 0 or full_jobs == small_jobs:
        return 0.0
    return math.log(full_s / small_s) / math.log(full_jobs / small_jobs)


# -------------------------------------------------------------- references

def load_references(path=REFERENCES):
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def reference_key(raw):
    """Workloads whose input ignores --seed share one reference, under "*"."""
    return str(raw["seed"]) if raw["seeded"] else "*"


def reference_for(references, raw):
    return references.get("seeds", {}).get(reference_key(raw), {}).get(raw["workload"])


def check_references(raw, reference):
    """Mismatches between a run's outputs and its pinned reference."""
    if reference is None:
        return []
    problems = []
    outputs = raw.get("outputs", {})
    if "makespans" in reference:
        got, want = outputs.get("makespans", []), reference["makespans"]
        if len(got) != len(want):
            problems.append(f"{len(got)} makespans, reference has {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            if not abs(g - w) <= MAKESPAN_RTOL * abs(w):
                problems.append(f"makespan {i}: {g!r} vs reference {w!r}")
    for policy, want in sorted(reference.get("hashes", {}).items()):
        got = outputs.get("hashes", {}).get(policy)
        if got != want:
            problems.append(f"{policy} schedule hash {got} vs reference {want}")
    for run in raw.get("layer_runs", []):
        for name, want in sorted(reference.get("counters", {}).items()):
            got = run.get(name, 0.0)
            if got != want:
                problems.append(f"counter {name}: {got!r} vs reference {want!r}")
    return problems


def pinned_entry(raw):
    """What --bless records for a traced run."""
    entry = dict(raw["outputs"])
    layers = raw["layer_runs"][0]
    entry["counters"] = {k: layers[k] for k in EXACT_COUNTERS if k in layers}
    return entry


# ------------------------------------------------------------ build & run

def build():
    """Configure once and build bbsim_perf; returns the binary's path."""
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, required)):
            raise BenchError(f"no bbsim sources: {required} is missing from the checkout")
    # The Makefile appears only when a configure succeeded.
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=False)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    done = subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "bbsim_perf",
                           "-j", jobs], stdout=sys.stderr, check=False)
    binary = os.path.join(BUILD_DIR, "bbsim_perf")
    if done.returncode != 0 or not os.path.exists(binary):
        raise BenchError("building bbsim_perf failed")
    return binary


def run_binary(binary, workload, seed, seconds, trace):
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    if trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--trace", "--spans",
                    os.path.join(spans_dir, f"{workload}.seed{seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} did not finish within {RUN_TIMEOUT_S} s") from e
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"bbsim_perf exited with {done.returncode}")
    raw = json.loads(lines[-1])
    raw["seed"] = seed  # the JSON number may not hold every 64-bit seed exactly
    return raw


def evaluate(raw, references):
    """The benchmark's result object for one raw run."""
    problems = check_references(raw, reference_for(references, raw))
    if raw["traced"]:
        problems += [f"counter {name} differs between repetitions"
                     for name in unsteady_counters(raw["layer_runs"])]
        values = per_layer_metrics(merge_layer_runs(raw["layer_runs"]))
        units = PER_LAYER_UNITS
    else:
        values, units = end_to_end_metrics(raw), END_TO_END_UNITS
    failed = raw["failed"] + len(problems)
    return {
        "correct": failed == 0,
        "attempted": max(1, raw["attempted"]),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }, raw["errors"] + problems


def report(workload, seed, result, problems, out=sys.stdout):
    print(f"# {workload} seed {seed}: attempted {result['attempted']}, "
          f"failed {result['failed']}", file=out)
    for problem in problems:
        print(f"#   FAILED {problem}", file=out)
    for name, metric in result["metrics"].items():
        alias = f" ({ITEM_NAMES[workload]})" if name == "items_per_s" else ""
        print(f"#   {name}{alias} = {metric['value']:.6g} {metric['unit']}", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--bless", action="store_true",
                        help="pin this seed's outputs and exact counters in references.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
        references = load_references()
        if args.bless:
            workloads = WORKLOADS if args.workload == "all" else [args.workload]
            for workload in workloads:
                raw = run_binary(binary, workload, args.seed, args.seconds, True)
                unsteady = unsteady_counters(raw["layer_runs"])
                if raw["failed"] or unsteady:
                    raise BenchError(f"{workload}: refusing to pin a failing run: "
                                     f"{raw['errors'] + unsteady}")
                seeds = references.setdefault("seeds", {})
                seeds.setdefault(reference_key(raw), {})[workload] = pinned_entry(raw)
                print(f"pinned {workload} seed {args.seed}", file=sys.stderr)
            with open(REFERENCES, "w") as f:
                json.dump(references, f, indent=2, sort_keys=True)
                f.write("\n")
            return 0
        if args.workload == "all":
            results = {}
            for workload in WORKLOADS:
                raw = run_binary(binary, workload, args.seed, args.seconds, args.trace == 1)
                result, problems = evaluate(raw, references)
                report(workload, args.seed, result, problems)
                results[workload] = result
            print(json.dumps(results))
            return 0
        raw = run_binary(binary, args.workload, args.seed, args.seconds, args.trace == 1)
        result, problems = evaluate(raw, references)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, result, problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
