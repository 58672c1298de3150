// Figure 5 -- Resample and Combine execution time vs. % of input files in
// the BB, with intermediate files on either the BB or the PFS; six panels:
// {private, striped, on-node} x {Resample, Combine} (1 pipeline, 32 cores).
//
// Paper findings reproduced here:
//   * private mode: writing intermediates to the BB beats the PFS (up to
//     ~1.5x) and more inputs in the BB helps Resample;
//   * striped mode: much slower overall (metadata pathology of the 1:N
//     pattern), reads from the PFS can beat reads from the BB;
//   * on-node: fast and flat, with BB placement slightly ahead.
#include "bench_common.hpp"

using namespace bbsim;

int main() {
  bench::banner("Figure 5", "task-level storage impact",
                "Resample/Combine execution time (s) vs. % input files in BB; "
                "intermediates in BB or PFS (SWarp, 1 pipeline, 32 cores).");

  const wf::Workflow workflow = wf::make_swarp({});
  const std::vector<double> fractions = {0.0, 0.25, 0.5, 0.75, 1.0};

  for (const auto system : bench::kAllSystems) {
    testbed::TestbedOptions opt;
    const testbed::Testbed tb(system, opt);

    for (const char* task_type : {"resample", "combine"}) {
      std::vector<analysis::Series> panel;
      for (const exec::Tier tier : {exec::Tier::BurstBuffer, exec::Tier::PFS}) {
        analysis::Series s;
        s.label = std::string("intermediates=") + exec::to_string(tier);
        for (const double fraction : fractions) {
          exec::ExecutionConfig cfg;
          cfg.placement = std::make_shared<exec::FractionPolicy>(fraction, tier);
          const auto results = tb.run_repetitions(workflow, cfg);
          const auto stats = testbed::Testbed::summarize(results);
          const auto& d = stats.duration_by_type.at(task_type);
          s.add(fraction * 100.0, d.mean, d.stddev);
        }
        panel.push_back(std::move(s));
      }
      analysis::Table t = analysis::series_table("% input in BB", panel);
      std::printf("--- %s / %s ---\n", to_string(system), task_type);
      t.print();
      bench::save_csv(t, util::format("fig05_%s_%s.csv", to_string(system), task_type));
      std::printf("\n");
    }
  }

  std::printf("Summary: compare panel magnitudes -- private ~ seconds, striped "
              "~ 10-100x slower, on-node fastest (paper Fig. 5).\n");
  return 0;
}
