#!/usr/bin/env python3
"""Gate a fresh bench JSON against the checked-in baseline.

Usage: check_bench_regression.py BASELINE.json CURRENT.json [--relative]

Both files are bbsim.bench.v1 documents of one bench:
{"schema": "bbsim.bench.v1", "bench": NAME, "tiers": [{"tier": LABEL, ...}]}.
GATES holds a row per gated quantity of each bench, and one walk applies
them to every tier of CURRENT. Tiers only in BASELINE are skipped.

A row is (key, kind, bound, mode); a key is a dotted path into a tier,
where a `*` part stands for each key of the baseline tier's object there.
  equal  equals the baseline (needs a baseline tier): work counts and
         schedule hashes are exact functions of seeded inputs.
  true   is JSON true.
  max    is at most `bound`.
  min    is at least max(lo, frac x baseline) for bound (lo, frac), or lo
         for a tier with no baseline (not gated when lo is None too).
A row's mode is "both", "relative" (only with --relative) or "absolute"
(only without it). CI runs on other hardware than the baseline's and
passes --relative, which drops the absolute throughput floors.

Exit status: 0 = pass, 1 = regression or divergence, 2 = bad input.
"""

import argparse
import json
import sys

SCHEMA = "bbsim.bench.v1"
DIVERGENCE_TOL = 1e-6       # incremental solver vs full re-solve and oracle
THROUGHPUT_FLOOR = (None, 0.8)  # >= 0.8 x baseline, same hardware only
CRITPATH_OVERHEAD = 1.05    # recorder-on wall / recorder-off wall

GATES = {
    "flow_solver": [
        ("transfers", "equal", None, "both"),
        ("solves", "equal", None, "both"),
        ("engine.flows", "equal", None, "both"),
        ("engine.events", "equal", None, "both"),
        ("engine.flows_settled", "equal", None, "both"),
        ("max_rel_divergence_full", "max", DIVERGENCE_TOL, "both"),
        ("max_rel_divergence_oracle", "max", DIVERGENCE_TOL, "both"),
        # Incremental vs full re-solve, timed back-to-back in one run.
        ("speedup_vs_full", "min", (5.0, 0.5), "relative"),
        ("solves_per_second", "min", THROUGHPUT_FLOOR, "absolute"),
    ],
    "batch": [
        ("schedule_hash", "equal", None, "both"),
        ("policies.*.schedule_hash", "equal", None, "both"),
        ("policies.*.profile_segments_scanned", "equal", None, "both"),
        # EASY must keep beating FCFS on mean bounded slowdown.
        ("fcfs_over_easy_slowdown", "min", (1.0, 0.5), "both"),
        ("jobs_per_second", "min", THROUGHPUT_FLOOR, "absolute"),
    ],
    "critpath": [
        # A run's report minus "critpath" equals a run's without the pass.
        ("off_bitwise_identical", "true", None, "both"),
        # Path length, blame sum and baseline what-if equal the makespan.
        ("attribution_exact", "true", None, "both"),
        ("overhead_ratio", "max", CRITPATH_OVERHEAD, "both"),
    ],
    "sweep": [
        # The report at N workers is byte-identical to the serial one.
        ("report_identical", "true", None, "both"),
    ],
}


def fail_input(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    """(bench, {label: tier}) of a bbsim.bench.v1 file; exits 2 if bad."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        tiers = {tier["tier"]: tier for tier in doc["tiers"]}
        schema, bench = doc["schema"], doc["bench"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        fail_input(f"cannot read {path}: {exc!r}")
    if schema != SCHEMA or bench not in GATES:
        fail_input(f"{path}: not {SCHEMA}, or bench not in {sorted(GATES)}")
    if not tiers:
        fail_input(f"{path}: no tiers")
    return bench, tiers


def field(tier, dotted):
    """The value at a dotted path in a tier, or None when absent."""
    value = tier
    for part in dotted.split("."):
        value = value.get(part) if isinstance(value, dict) else None
    return value


def expand(key, base):
    """The keys a row names: a `*` part becomes each key of the baseline."""
    head, star, tail = key.partition(".*.")
    if not star:
        return [key]
    return [f"{head}.{name}.{tail}" for name in field(base, head) or {}]


def verdict(kind, bound, cur, base):
    """(failed, bound text) of one gate, or None when it does not apply."""
    number = isinstance(cur, (int, float))
    if kind == "equal":
        return None if base is None else (cur != base, f"baseline {base}")
    if kind == "true":
        return cur is not True, "want true"
    if kind == "max":
        return not (number and cur <= bound), f"<= {bound:g}"
    lo, frac = bound
    floor = lo if base is None else max(lo or 0.0, frac * base)
    if floor is None:
        return None
    return not (number and cur >= floor), f">= {floor:,.6g}"


def check(bench, baseline, current, relative):
    """Walks every gate of `bench` over the tiers; True when one failed."""
    failed = False
    for label in sorted(set(baseline) | set(current)):
        if label not in current:
            print(f"tier {label}: only in baseline -- skipped")
            continue
        base_tier = baseline.get(label)
        for key, kind, bound, mode in GATES[bench]:
            if mode != "both" and (mode == "relative") != relative:
                continue
            for path in expand(key, base_tier):
                base = field(base_tier, path) if base_tier else None
                cur = field(current[label], path)
                result = verdict(kind, bound, cur, base)
                if result is None:
                    continue
                bad, detail = result
                failed = failed or bad
                print(f"tier {label}: {'FAIL' if bad else 'ok'} {path} "
                      f"{cur!r} ({detail})")
    return failed


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--relative", action="store_true",
                        help="the runs come from different hardware: skip "
                             "the absolute throughput floors")
    args = parser.parse_args()

    bench, baseline = load(args.baseline)
    cur_bench, current = load(args.current)
    if bench != cur_bench:
        fail_input(f"bench mismatch: baseline {bench!r}, current "
                   f"{cur_bench!r}")
    if check(bench, baseline, current, args.relative):
        print("bench regression check FAILED", file=sys.stderr)
        return 1
    print("bench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
