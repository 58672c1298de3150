#!/usr/bin/env python3
"""Tests of check_bench_regression.py against the checked-in baselines.

Each case doctors one value of a copy of a BENCH_*.json baseline and runs
the checker on (baseline, copy) with and without --relative. The cases are
listed here, apart from the checker's gate table, so that a gate row
deleted from the table fails the case that pushes its value past the bound.

Run: python3 tools/test_check_bench_regression.py
"""

import copy
import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECKER = ROOT / "tools" / "check_bench_regression.py"
BENCHES = ("flow_solver", "batch", "critpath", "sweep")
BOTH, RELATIVE, ABSOLUTE = (True, False), (True,), (False,)

# (bench, tier, dotted key, new value from the old one, modes that fail).
# A mode is True for --relative. Each case pushes one gate past its bound.
PAST = [
    ("flow_solver", "10k", "transfers", lambda v: v + 1, BOTH),
    ("flow_solver", "10k", "solves", lambda v: v - 1, BOTH),
    ("flow_solver", "10k", "engine.flows", lambda v: v + 1, BOTH),
    ("flow_solver", "100k", "engine.events", lambda v: v + 1, BOTH),
    ("flow_solver", "100k", "engine.flows_settled", lambda v: v - 1, BOTH),
    ("flow_solver", "10k", "max_rel_divergence_full", lambda v: 1.001e-6,
     BOTH),
    ("flow_solver", "10k", "max_rel_divergence_oracle", lambda v: 1.001e-6,
     BOTH),
    ("flow_solver", "10k", "speedup_vs_full", lambda v: v * 0.499, RELATIVE),
    ("flow_solver", "100k", "solves_per_second", lambda v: v * 0.799,
     ABSOLUTE),
    ("batch", "500", "schedule_hash", lambda v: "0x0", BOTH),
    ("batch", "2k", "policies.easy.schedule_hash", lambda v: "0x0", BOTH),
    ("batch", "2k", "policies.conservative.profile_segments_scanned",
     lambda v: v + 1, BOTH),
    ("batch", "500", "policies.plan.profile_segments_scanned",
     lambda v: v - 1, BOTH),
    ("batch", "500", "fcfs_over_easy_slowdown", lambda v: v * 0.499, BOTH),
    ("batch", "2k", "jobs_per_second", lambda v: v * 0.799, ABSOLUTE),
    ("critpath", "swarp-8", "off_bitwise_identical", lambda v: False, BOTH),
    ("critpath", "swarp-32", "attribution_exact", lambda v: False, BOTH),
    ("critpath", "swarp-8", "overhead_ratio", lambda v: 1.0501, BOTH),
    ("sweep", "4", "report_identical", lambda v: False, BOTH),
]

# The same gates kept just inside their bounds: these pass in both modes.
INSIDE = [
    ("flow_solver", "10k", "max_rel_divergence_full", lambda v: 0.999e-6),
    ("flow_solver", "10k", "max_rel_divergence_oracle", lambda v: 0.999e-6),
    ("flow_solver", "10k", "speedup_vs_full", lambda v: v * 0.501),
    ("flow_solver", "100k", "solves_per_second", lambda v: v * 0.801),
    ("batch", "500", "fcfs_over_easy_slowdown", lambda v: v * 0.501),
    ("batch", "2k", "jobs_per_second", lambda v: v * 0.801),
    ("batch", "2k", "policies.fcfs.bsld_mean", lambda v: v * 2),
    ("critpath", "swarp-32", "overhead_ratio", lambda v: 1.0499),
    ("sweep", "8", "wall_seconds", lambda v: v * 100),
]


def baseline(bench):
    with open(ROOT / f"BENCH_{bench}.json", encoding="utf-8") as f:
        return json.load(f)


def tier(doc, label):
    return next(t for t in doc["tiers"] if t["tier"] == label)


def doctor(bench, label, key, change):
    doc = copy.deepcopy(baseline(bench))
    *head, last = key.split(".")
    obj = tier(doc, label)
    for part in head:
        obj = obj[part]
    obj[last] = change(obj[last])
    return doc


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = pathlib.Path(self.tmp.name) / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def check(self, base, current, relative):
        args = [sys.executable, str(CHECKER), str(base), str(current)]
        return subprocess.run(args + ["--relative"] * relative,
                              capture_output=True, text=True).returncode

    def assert_codes(self, base, current, codes):
        """`codes` maps --relative (True/False) to the wanted exit code."""
        for relative, want in codes.items():
            with self.subTest(relative=relative):
                self.assertEqual(self.check(base, current, relative), want)

    def test_checked_in_baselines_pass(self):
        for bench in BENCHES:
            with self.subTest(bench=bench):
                path = ROOT / f"BENCH_{bench}.json"
                self.assert_codes(path, path, {False: 0, True: 0})

    def test_each_gate_fails_past_its_bound(self):
        for bench, label, key, change, modes in PAST:
            with self.subTest(bench=bench, tier=label, key=key):
                current = self.write("cur.json",
                                     doctor(bench, label, key, change))
                self.assert_codes(
                    ROOT / f"BENCH_{bench}.json", current,
                    {mode: 1 if mode in modes else 0 for mode in BOTH})

    def test_each_gate_passes_inside_its_bound(self):
        for bench, label, key, change in INSIDE:
            with self.subTest(bench=bench, tier=label, key=key):
                current = self.write("cur.json",
                                     doctor(bench, label, key, change))
                self.assert_codes(ROOT / f"BENCH_{bench}.json", current,
                                  {False: 0, True: 0})

    def test_absolute_floors(self):
        """speedup_vs_full >= 5 and fcfs_over_easy_slowdown >= 1 hold when
        half the baseline is lower, and for a tier with no baseline."""
        for bench, label, key, low, bad, codes in (
                ("flow_solver", "10k", "speedup_vs_full", 8.0, 4.99,
                 {False: 0, True: 1}),
                ("batch", "2k", "fcfs_over_easy_slowdown", 1.5, 0.999,
                 {False: 1, True: 1})):
            with self.subTest(bench=bench):
                base = self.write("base.json", doctor(bench, label, key,
                                                      lambda v: low))
                current = doctor(bench, label, key, lambda v: bad)
                self.assert_codes(base, self.write("cur.json", current),
                                  codes)
                tier(current, label)["tier"] = "new"
                self.assert_codes(ROOT / f"BENCH_{bench}.json",
                                  self.write("cur.json", current), codes)

    def test_tiers_only_in_the_baseline_are_skipped(self):
        doc = baseline("flow_solver")
        doc["tiers"] = [tier(doc, "10k")]
        self.assert_codes(ROOT / "BENCH_flow_solver.json",
                          self.write("cur.json", doc), {False: 0, True: 0})

    def test_bench_mismatch_and_unreadable_files_are_bad_input(self):
        garbage = pathlib.Path(self.tmp.name) / "garbage.json"
        garbage.write_text("{not json", encoding="utf-8")
        old_schema = dict(baseline("batch"), schema="bbsim.bench.batch.v1")
        batch = ROOT / "BENCH_batch.json"
        for base, current in (
                (ROOT / "BENCH_critpath.json", batch), (batch, garbage),
                (batch, pathlib.Path(self.tmp.name) / "missing.json"),
                (batch, self.write("old.json", old_schema))):
            with self.subTest(base=base.name, current=current.name):
                self.assert_codes(base, current, {False: 2, True: 2})


if __name__ == "__main__":
    unittest.main()
