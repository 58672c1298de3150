// Figure 7 -- task execution time vs. number of concurrent pipelines on one
// compute node (1 core per task, all files in burst buffers).
//
// Paper findings reproduced here:
//   * on Cori, Resample/Combine slow down by up to ~3x at 32 pipelines --
//     the BB bandwidth saturates although usage is far below peak;
//   * on Summit the slowdown is nearly negligible for Stage-In/Resample and
//     more visible for Combine.
#include "bench_common.hpp"

using namespace bbsim;

int main() {
  bench::banner("Figure 7", "pipeline concurrency",
                "Mean task time (s) vs. # concurrent pipelines (1 core per "
                "task, all files in the BB).");

  const std::vector<int> pipeline_sweep = {1, 2, 4, 8, 16, 32};

  for (const char* task_type : {wf::kStageInType, "resample", "combine"}) {
    std::vector<analysis::Series> panel;
    for (const auto system : bench::kAllSystems) {
      testbed::TestbedOptions opt;
      opt.repetitions = 5;  // sweep is wide; 5 repetitions keep it quick
      const testbed::Testbed tb(system, opt);
      analysis::Series s;
      s.label = to_string(system);
      for (const int pipelines : pipeline_sweep) {
        wf::SwarpConfig scfg;
        scfg.pipelines = pipelines;
        scfg.cores_per_task = 1;
        scfg.stage_in_per_pipeline = true;  // N independent instances (paper)
        const wf::Workflow workflow = wf::make_swarp(scfg);
        exec::ExecutionConfig cfg;
        cfg.placement = exec::all_bb_policy();
        const auto results = tb.run_repetitions(workflow, cfg);
        const auto stats = testbed::Testbed::summarize(results);
        if (std::string(task_type) == wf::kStageInType) {
          s.add(pipelines, stats.stage_in.mean, stats.stage_in.stddev);
        } else {
          const auto& d = stats.duration_by_type.at(task_type);
          s.add(pipelines, d.mean, d.stddev);
        }
      }
      panel.push_back(std::move(s));
    }
    analysis::Table t = analysis::series_table("pipelines", panel);
    std::printf("--- %s ---\n", task_type);
    t.print();
    bench::save_csv(t, util::format("fig07_%s.csv", task_type));
    for (const analysis::Series& s : panel) {
      std::printf("  %s slowdown 1 -> 32 pipelines: %.2fx\n", s.label.c_str(),
                  s.y.back() / s.y.front());
    }
    std::printf("\n");
  }
  return 0;
}
