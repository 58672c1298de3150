// Figure 8 -- distribution of Resample execution time when varying the
// number of pipelines (all files in the BB): measuring I/O at scale on a
// shared machine is noisy.
//
// Paper findings reproduced here:
//   * on-node (Summit) is the fastest and the most stable;
//   * private beats striped by about an order of magnitude and is steadier;
//   * striped-mode runs vary by ~15%.
#include "bench_common.hpp"

using namespace bbsim;

int main() {
  bench::banner("Figure 8", "runtime variability",
                "Resample execution time distribution per # pipelines "
                "(15 repetitions; all files in the BB; 1 core per task).");

  const std::vector<int> pipeline_sweep = {1, 4, 16, 32};

  analysis::Table t({"system", "pipelines", "mean (s)", "stddev", "cv %", "min",
                     "median", "max"});
  std::map<std::string, double> worst_cv;

  for (const auto system : bench::kAllSystems) {
    testbed::TestbedOptions opt;
    const testbed::Testbed tb(system, opt);
    for (const int pipelines : pipeline_sweep) {
      wf::SwarpConfig scfg;
      scfg.pipelines = pipelines;
      scfg.cores_per_task = 1;
      scfg.stage_in_per_pipeline = true;  // N independent instances (paper)
      const wf::Workflow workflow = wf::make_swarp(scfg);
      exec::ExecutionConfig cfg;
      cfg.placement = exec::all_bb_policy();
      cfg.collect_trace = false;
      const auto results = tb.run_repetitions(workflow, cfg);

      std::vector<double> durations;
      for (const exec::Result& r : results) {
        for (const auto* rec : r.records_of("resample")) {
          durations.push_back(rec->duration());
        }
      }
      const analysis::Stats s = analysis::describe(durations);
      t.add_row({to_string(system), std::to_string(pipelines),
                 util::format("%.2f", s.mean), util::format("%.2f", s.stddev),
                 util::format("%.1f", s.cv() * 100.0), util::format("%.2f", s.min),
                 util::format("%.2f", s.median), util::format("%.2f", s.max)});
      worst_cv[to_string(system)] = std::max(worst_cv[to_string(system)], s.cv());
    }
  }
  t.print();
  bench::save_csv(t, "fig08_variability.csv");

  std::printf("\nWorst-case coefficient of variation per system:\n");
  for (const auto& [system, cv] : worst_cv) {
    std::printf("  %-14s %.1f%%\n", system.c_str(), cv * 100.0);
  }
  std::printf("(paper: striped ~15%%, private ~1 order steadier, on-node lowest)\n");
  return 0;
}
