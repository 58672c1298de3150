// Figure 6 -- task execution time vs. cores per task (1 pipeline, all input
// files staged into burst buffers).
//
// Paper findings reproduced here:
//   * Resample benefits from parallelism up to ~8 cores (shared BB) /
//     ~16 cores (on-node), then flattens;
//   * Combine barely benefits (its coaddition serialises on locks);
//   * the mode/architecture ranking does not depend on the core count.
#include "bench_common.hpp"
#include "model/fitting.hpp"

using namespace bbsim;

int main() {
  bench::banner("Figure 6", "cores per task",
                "Resample/Combine execution time (s) vs. cores per task "
                "(SWarp, 1 pipeline, all inputs staged into the BB).");

  const std::vector<int> cores_sweep = {1, 2, 4, 8, 16, 32};

  for (const char* task_type : {"resample", "combine"}) {
    std::vector<analysis::Series> panel;
    for (const auto system : bench::kAllSystems) {
      testbed::TestbedOptions opt;
      const testbed::Testbed tb(system, opt);
      analysis::Series s;
      s.label = to_string(system);
      for (const int cores : cores_sweep) {
        wf::SwarpConfig scfg;
        scfg.cores_per_task = cores;
        const wf::Workflow workflow = wf::make_swarp(scfg);
        exec::ExecutionConfig cfg;
        cfg.placement = exec::all_bb_policy();
        const auto results = tb.run_repetitions(workflow, cfg);
        const auto stats = testbed::Testbed::summarize(results);
        const auto& d = stats.duration_by_type.at(task_type);
        s.add(cores, d.mean, d.stddev);
      }
      panel.push_back(std::move(s));
    }
    analysis::Table t = analysis::series_table("cores", panel);
    std::printf("--- %s ---\n", task_type);
    t.print();
    bench::save_csv(t, util::format("fig06_%s.csv", task_type));

    // Where does the speedup flatten? (plateau = first core count whose
    // gain over the previous step is < 10%), plus the Amdahl alpha the
    // "measurements" imply -- the parameter the paper's Eq. (4) sets to 0.
    for (const analysis::Series& s : panel) {
      int plateau = cores_sweep.back();
      for (std::size_t i = 1; i < s.y.size(); ++i) {
        if (s.y[i - 1] / s.y[i] < 1.10) {
          plateau = static_cast<int>(s.x[i - 1]);
          break;
        }
      }
      std::vector<model::ScalingSample> samples;
      for (std::size_t i = 0; i < s.size(); ++i) {
        samples.push_back({static_cast<int>(s.x[i]), s.y[i]});
      }
      const model::AmdahlFit fit = model::fit_amdahl(samples);
      std::printf("  %-14s plateau ~%2d cores, fitted Amdahl alpha %.2f "
                  "(paper's model assumes 0)\n",
                  s.label.c_str(), plateau, fit.alpha);
    }
    std::printf("\n");
  }
  return 0;
}
