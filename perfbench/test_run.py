"""Self-tests for the benchmark's own logic: the derived per-layer metrics,
the reference checks, and the agreement between run.py, BENCHMARK.json,
manifest.json and references.json. They need no build:

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
MANIFEST = os.path.join(run.HERE, "manifest.json")


def raw_run(**overrides):
    raw = {"workload": "sim_wide", "seed": 1, "seeded": True, "traced": False,
           "attempted": 3, "failed": 0, "errors": [], "setup_s": [0.3, 0.1, 0.2],
           "setup_calibration_s": [run.REFERENCE_CALIBRATION_S] * 3,
           "iterations": [{"key": "simulation", "items": 10.0, "seconds": 1.0,
                           "calibration_s": run.REFERENCE_CALIBRATION_S},
                          {"key": "simulation", "items": 10.0, "seconds": 0.5,
                           "calibration_s": run.REFERENCE_CALIBRATION_S}],
           "measured_s": 1.5, "peak_rss_mb": 80.0,
           "outputs": {"makespans": [100.0]}, "layer_runs": []}
    raw.update(overrides)
    return raw


class DerivedMetrics(unittest.TestCase):
    def test_dispatch_split(self):
        m = run.per_layer_metrics({"exec.run_s": 12.0, "sim.dispatch_s": 10.0,
                                   "flow.solve_s": 3.0, "exec.placement_s": 1.0,
                                   "sim.events": 1e6})
        self.assertAlmostEqual(m["sim.dispatch_other_s"], 6.0)
        self.assertAlmostEqual(m["sim.dispatch_other_share"], 0.6)
        self.assertAlmostEqual(m["exec.outside_dispatch_s"], 2.0)
        self.assertAlmostEqual(m["sim.us_per_event"], 10.0)

    def test_flows_per_solve(self):
        m = run.per_layer_metrics({"flow.solve_flows_resolved": 700.0, "flow.solve_calls": 10.0})
        self.assertAlmostEqual(m["flow.flows_per_solve"], 70.0)

    def test_conservative_exponent_is_the_log_slope(self):
        self.assertAlmostEqual(run.conservative_exponent(16.0, 4000, 1.0, 1000), 2.0)
        self.assertAlmostEqual(run.conservative_exponent(4.0, 4000, 1.0, 1000), 1.0)
        m = run.per_layer_metrics({"batch.conservative_s": 8.0, "batch.jobs": 4000.0,
                                   "batch.conservative_quarter_s": 1.0,
                                   "batch.quarter_jobs": 1000.0})
        self.assertAlmostEqual(m["batch.conservative_exponent"], 1.5)

    def test_unloaded_layers_read_zero(self):
        m = run.per_layer_metrics({})
        self.assertEqual(set(m), set(run.PER_LAYER_UNITS))
        self.assertTrue(all(v == 0.0 for v in m.values()))

    def test_ratios_and_sweep_walls(self):
        m = run.per_layer_metrics({"observers.on_s": 3.0, "observers.off_s": 2.0,
                                   "exec.run_s": 5.5, "exec.untraced_run_s": 5.0,
                                   "sweep.run_s": [1.0, 4.0, 2.0]})
        self.assertAlmostEqual(m["observers.overhead_ratio"], 1.5)
        self.assertAlmostEqual(m["trace_overhead"], 1.1)
        self.assertAlmostEqual(m["sweep.run_s_median"], 2.0)
        self.assertAlmostEqual(m["sweep.run_s_max"], 4.0)

    def test_end_to_end_metrics(self):
        m = run.end_to_end_metrics(raw_run())
        self.assertAlmostEqual(m["items_per_s"], 20.0 / 1.5)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertEqual(m["peak_rss_mb"], 80.0)

    def test_times_are_scaled_to_the_reference_host(self):
        ref = run.REFERENCE_CALIBRATION_S
        self.assertAlmostEqual(run.at_reference_speed(3.0, 2 * ref), 1.5)
        self.assertAlmostEqual(run.at_reference_speed(3.0, 0.0), 3.0)
        m = run.end_to_end_metrics(raw_run(setup_s=[0.4, 0.9, 0.2],
                                           setup_calibration_s=[2 * ref, 2 * ref, ref]))
        self.assertAlmostEqual(m["setup_s"], 0.2)

    def test_reference_rate_keeps_each_keys_median_scaled_time(self):
        ref = run.REFERENCE_CALIBRATION_S
        iterations = [{"key": "a", "items": 10.0, "seconds": 2.0, "calibration_s": ref},
                      {"key": "b", "items": 30.0, "seconds": 6.0, "calibration_s": 2 * ref},
                      {"key": "a", "items": 10.0, "seconds": 1.0, "calibration_s": ref},
                      {"key": "a", "items": 10.0, "seconds": 9.0, "calibration_s": ref}]
        # a: the median of 1, 2 and 9 s; b: 6 s on a host at half speed is 3 s.
        self.assertAlmostEqual(run.reference_rate(iterations), 40.0 / 5.0)
        self.assertEqual(run.reference_rate([]), 0.0)

    def test_merge_takes_medians_and_joins_lists(self):
        merged = run.merge_layer_runs([{"a": 1.0, "w": [1.0]}, {"a": 5.0, "w": [2.0]},
                                       {"a": 2.0, "w": [3.0]}])
        self.assertEqual(merged, {"a": 2.0, "w": [1.0, 2.0, 3.0]})

    def test_unsteady_counters(self):
        steady = [{"sim.events": 5.0}, {"sim.events": 5.0}]
        self.assertEqual(run.unsteady_counters(steady), [])
        self.assertEqual(run.unsteady_counters(steady + [{"sim.events": 6.0}]),
                         ["sim.events"])


class ReferenceChecks(unittest.TestCase):
    REF = {"makespans": [100.0, 200.0], "hashes": {"fcfs": "0x01"},
           "counters": {"sim.events": 42.0}}

    def outputs(self, makespans=(100.0, 200.0), fcfs="0x01"):
        return {"makespans": list(makespans), "hashes": {"fcfs": fcfs}}

    def test_matching_outputs_pass(self):
        raw = raw_run(outputs=self.outputs(makespans=(100.0 * (1 + 5e-7), 200.0)),
                      layer_runs=[{"sim.events": 42.0}])
        self.assertEqual(run.check_references(raw, self.REF), [])

    def test_perturbed_makespan_is_rejected(self):
        raw = raw_run(outputs=self.outputs(makespans=(100.0 * (1 + 2e-6), 200.0)))
        self.assertEqual(len(run.check_references(raw, self.REF)), 1)

    def test_missing_makespan_is_rejected(self):
        raw = raw_run(outputs=self.outputs(makespans=(100.0,)))
        self.assertEqual(len(run.check_references(raw, self.REF)), 1)

    def test_perturbed_hash_is_rejected(self):
        raw = raw_run(outputs=self.outputs(fcfs="0x02"))
        self.assertEqual(len(run.check_references(raw, self.REF)), 1)

    def test_perturbed_counter_is_rejected(self):
        raw = raw_run(outputs=self.outputs(), layer_runs=[{"sim.events": 43.0}])
        self.assertEqual(len(run.check_references(raw, self.REF)), 1)

    def test_unpinned_seed_is_not_checked(self):
        self.assertEqual(run.check_references(raw_run(), None), [])

    def test_mismatch_counts_as_a_failed_operation(self):
        refs = {"seeds": {"1": {"sim_wide": {"makespans": [101.0]}}}}
        result, problems = run.evaluate(raw_run(), refs)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(len(problems), 1)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END_UNITS))

    def test_seedless_workloads_share_one_reference(self):
        refs = {"seeds": {"*": {"fleet": {"hashes": {"fcfs": "0x01"}}}}}
        raw = raw_run(workload="fleet", seed=77, seeded=False,
                      outputs={"hashes": {"fcfs": "0x01"}})
        self.assertIsNotNone(run.reference_for(refs, raw))
        self.assertTrue(run.evaluate(raw, refs)[0]["correct"])


class Consistency(unittest.TestCase):
    def test_benchmark_json_names_and_units(self):
        if not os.path.exists(BENCHMARK):
            self.skipTest("no BENCHMARK.json beside perfbench")
        with open(BENCHMARK) as f:
            bench = json.load(f)
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER_UNITS)

    def test_manifest_maps_every_layer_metric(self):
        with open(MANIFEST) as f:
            manifest = json.load(f)
        mapped = {m for entry in manifest["layer_map"] for m in entry["metrics"]}
        self.assertEqual(mapped, set(run.PER_LAYER_UNITS))
        self.assertEqual(set(manifest["workloads"]), set(run.WORKLOADS))

    def test_references_pin_default_and_held_out_seeds(self):
        seeds = run.load_references()["seeds"]
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            for workload in ("sim_wide", "sim_narrow"):
                entry = seeds[str(seed)][workload]
                self.assertEqual(len(entry["makespans"]), 1)
                self.assertGreater(entry["counters"]["sim.events"], 0)
        self.assertEqual(len(seeds["*"]["genomes_resil"]["makespans"]), 2)
        self.assertEqual(set(seeds["*"]["fleet"]["hashes"]), set(run.POLICIES))


if __name__ == "__main__":
    unittest.main()
