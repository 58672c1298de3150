#!/usr/bin/env python3
"""Compare a fresh bench JSON against the checked-in baseline.

Usage: check_bench_regression.py BASELINE.json CURRENT.json [--threshold 0.20]
                                 [--relative]

Supports two bench schemas; both files must carry the SAME schema, and the
schema selects the gate:

bbsim.bench.flow_solver.v1 (BENCH_flow_solver.json)
  For every tier present in BOTH files, `solves_per_second` in CURRENT must
  be at least (1 - threshold) x the BASELINE value. Tiers only present on
  one side are reported but do not fail the check (CI measures a subset of
  the checked-in tiers). Divergence fields are also validated: the
  incremental solver must still agree with the full re-solve and the oracle
  to 1e-6.

  Exact work counts, with and without --relative: `transfers`, `solves`,
  `engine.flows` and `engine.events` of every tier in both files must equal
  the baseline. They are deterministic functions of the tier's seeded
  input, so they gate the solver's and the engine phase's work (the
  FlowManager's schedule/cancel churn) on any hardware.

  With --relative, the absolute solves_per_second comparison is skipped:
  absolute throughput measured on shared CI runners is not comparable to a
  baseline captured on different hardware. Instead the gate uses
  hardware-insensitive quantities only -- divergence, and `speedup_vs_full`
  (incremental vs full re-solve, both measured back-to-back on the SAME
  machine within the run), which must stay within --speedup-threshold of
  the baseline's speedup and never drop below --min-speedup.

bbsim.bench.critpath.v1 (BENCH_critpath.json)
  Hardware-insensitive gates, always applied (the overhead ratio is
  measured back-to-back on one machine, so it transfers across hardware):
    - `off_bitwise_identical` must be true: a --critpath run's report
      minus its "critpath" key is byte-identical to a run without the
      recorder, i.e. the layer costs nothing when off.
    - `attribution_exact` must be true: path length, blame sum, and the
      baseline what-if replay all reproduce the makespan within 1e-9.
    - `overhead_ratio` (enabled wall / disabled wall) must stay at or
      below 1 + --critpath-overhead (default 0.05).
  Baseline tiers are reported for context only.

bbsim.bench.batch.v1 (BENCH_batch.json)
  Hardware-insensitive gates, always applied:
    - `schedule_hash` (combined and per-policy) must match the baseline
      exactly: the batch scheduler is deterministic, so any hash drift
      means scheduling behaviour changed and the baseline must be
      re-recorded deliberately.
    - `fcfs_over_easy_slowdown` must stay >= max(--min-ratio, baseline
      ratio x (1 - --ratio-threshold)): EASY must keep beating FCFS on
      mean bounded slowdown under BB contention.
  Without --relative, `jobs_per_second` is additionally gated against the
  baseline with --threshold, like solves_per_second above.

Exit status: 0 = pass, 1 = regression or divergence, 2 = bad input.
"""

import argparse
import json
import sys

DIVERGENCE_TOL = 1e-6
# flow_solver fields that must equal the baseline exactly ("a.b" = nested).
FLOW_SOLVER_EXACT_COUNTS = ("transfers", "solves", "engine.flows",
                            "engine.events")
SCHEMAS = ("bbsim.bench.flow_solver.v1", "bbsim.bench.batch.v1",
           "bbsim.bench.critpath.v1")


def load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    schema = doc.get("schema")
    if schema not in SCHEMAS:
        print(f"error: {path}: schema is {schema!r}, want one of {SCHEMAS}",
              file=sys.stderr)
        sys.exit(2)
    tiers = {}
    for tier in doc.get("tiers", []):
        tiers[tier["tier"]] = tier
    if not tiers:
        print(f"error: {path}: no tiers", file=sys.stderr)
        sys.exit(2)
    return schema, tiers


def gate_throughput(label, key, base_tier, cur_tier, threshold):
    """Absolute throughput floor; returns True when the tier regressed."""
    base_tp = base_tier[key]
    cur_tp = cur_tier[key]
    floor = base_tp * (1.0 - threshold)
    ratio = cur_tp / base_tp if base_tp > 0 else float("inf")
    verdict = "ok" if cur_tp >= floor else "FAIL"
    print(f"tier {label}: {verdict} {key} {cur_tp:,.0f} vs baseline "
          f"{base_tp:,.0f} ({ratio:.2f}x, floor {floor:,.0f})")
    return cur_tp < floor


def field(tier, dotted):
    """The value at a dotted path in a tier, or None when absent."""
    value = tier
    for part in dotted.split("."):
        value = value.get(part) if isinstance(value, dict) else None
    return value


def check_flow_solver(baseline, current, args):
    failed = False
    for label in sorted(set(baseline) | set(current)):
        if label not in current:
            print(f"tier {label}: only in baseline -- skipped")
            continue
        cur = current[label]

        if label in baseline:
            mismatched = False
            for key in FLOW_SOLVER_EXACT_COUNTS:
                base_count = field(baseline[label], key)
                cur_count = field(cur, key)
                if cur_count != base_count:
                    print(f"tier {label}: FAIL {key} {cur_count} != "
                          f"baseline {base_count}")
                    mismatched = True
            if mismatched:
                failed = True
            else:
                print(f"tier {label}: ok work counts match "
                      f"({len(FLOW_SOLVER_EXACT_COUNTS)} checked)")

        for key in ("max_rel_divergence_full", "max_rel_divergence_oracle"):
            div = cur.get(key, 0.0)
            if div > DIVERGENCE_TOL:
                print(f"tier {label}: FAIL {key} = {div:.3e} > {DIVERGENCE_TOL:.0e}")
                failed = True

        if args.relative:
            cur_sp = cur.get("speedup_vs_full", 0.0)
            floor = args.min_speedup
            if label in baseline:
                base_sp = baseline[label].get("speedup_vs_full", 0.0)
                floor = max(floor, base_sp * (1.0 - args.speedup_threshold))
                detail = f"vs baseline {base_sp:,.0f}x"
            else:
                detail = "no baseline tier"
            verdict = "ok" if cur_sp >= floor else "FAIL"
            print(f"tier {label}: {verdict} speedup_vs_full {cur_sp:,.0f}x "
                  f"{detail} (floor {floor:,.0f}x)")
            if cur_sp < floor:
                failed = True
            continue

        if label not in baseline:
            print(f"tier {label}: only in current -- no baseline to compare")
            continue
        if gate_throughput(label, "solves_per_second",
                           baseline[label], cur, args.threshold):
            failed = True
    return failed


def check_batch(baseline, current, args):
    failed = False
    for label in sorted(set(baseline) | set(current)):
        if label not in current:
            print(f"tier {label}: only in baseline -- skipped")
            continue
        cur = current[label]
        if label not in baseline:
            print(f"tier {label}: only in current -- no baseline to compare")
            continue
        base = baseline[label]

        # Determinism: schedules must be bit-identical to the baseline.
        hashes = [("schedule_hash", base.get("schedule_hash"),
                   cur.get("schedule_hash"))]
        for policy, base_entry in base.get("policies", {}).items():
            cur_entry = cur.get("policies", {}).get(policy, {})
            hashes.append((f"policies.{policy}.schedule_hash",
                           base_entry.get("schedule_hash"),
                           cur_entry.get("schedule_hash")))
        hash_failed = False
        for key, base_hash, cur_hash in hashes:
            if cur_hash != base_hash:
                print(f"tier {label}: FAIL {key} {cur_hash} != "
                      f"baseline {base_hash}")
                hash_failed = True
        if hash_failed:
            failed = True
        else:
            print(f"tier {label}: ok schedule hashes match "
                  f"({len(hashes)} checked)")

        # Policy quality: EASY must keep beating FCFS on mean BSLD.
        base_ratio = base.get("fcfs_over_easy_slowdown", 0.0)
        cur_ratio = cur.get("fcfs_over_easy_slowdown", 0.0)
        floor = max(args.min_ratio, base_ratio * (1.0 - args.ratio_threshold))
        verdict = "ok" if cur_ratio >= floor else "FAIL"
        print(f"tier {label}: {verdict} fcfs_over_easy_slowdown "
              f"{cur_ratio:.2f}x vs baseline {base_ratio:.2f}x "
              f"(floor {floor:.2f}x)")
        if cur_ratio < floor:
            failed = True

        if not args.relative:
            if gate_throughput(label, "jobs_per_second", base, cur,
                               args.threshold):
                failed = True
    return failed


def check_critpath(baseline, current, args):
    failed = False
    ceiling = 1.0 + args.critpath_overhead
    for label in sorted(set(baseline) | set(current)):
        if label not in current:
            print(f"tier {label}: only in baseline -- skipped")
            continue
        cur = current[label]

        for key in ("off_bitwise_identical", "attribution_exact"):
            if cur.get(key) is not True:
                print(f"tier {label}: FAIL {key} = {cur.get(key)!r}")
                failed = True

        ratio = cur.get("overhead_ratio", float("inf"))
        base_note = ""
        if label in baseline:
            base_note = (f" (baseline "
                         f"{baseline[label].get('overhead_ratio', 0.0):.3f}x)")
        verdict = "ok" if ratio <= ceiling else "FAIL"
        print(f"tier {label}: {verdict} overhead_ratio {ratio:.3f}x "
              f"<= {ceiling:.2f}x{base_note}")
        if ratio > ceiling:
            failed = True
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional throughput drop (default 0.20)")
    parser.add_argument("--relative", action="store_true",
                        help="skip absolute throughput comparisons (different "
                             "hardware); gate on hardware-insensitive "
                             "quantities only")
    parser.add_argument("--speedup-threshold", type=float, default=0.50,
                        help="flow_solver with --relative: allowed fractional "
                             "drop in speedup_vs_full (default 0.50)")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="flow_solver with --relative: absolute floor on "
                             "speedup_vs_full (default 5.0)")
    parser.add_argument("--ratio-threshold", type=float, default=0.50,
                        help="batch: allowed fractional drop in "
                             "fcfs_over_easy_slowdown (default 0.50)")
    parser.add_argument("--min-ratio", type=float, default=1.0,
                        help="batch: absolute floor on "
                             "fcfs_over_easy_slowdown (default 1.0)")
    parser.add_argument("--critpath-overhead", type=float, default=0.05,
                        help="critpath: allowed fractional wall-clock "
                             "overhead with the recorder enabled "
                             "(default 0.05)")
    args = parser.parse_args()

    base_schema, baseline = load_doc(args.baseline)
    cur_schema, current = load_doc(args.current)
    if base_schema != cur_schema:
        print(f"error: schema mismatch: baseline {base_schema!r} vs "
              f"current {cur_schema!r}", file=sys.stderr)
        sys.exit(2)

    if base_schema == "bbsim.bench.batch.v1":
        failed = check_batch(baseline, current, args)
    elif base_schema == "bbsim.bench.critpath.v1":
        failed = check_critpath(baseline, current, args)
    else:
        failed = check_flow_solver(baseline, current, args)

    if failed:
        print("bench regression check FAILED", file=sys.stderr)
        return 1
    print("bench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
