// Figure 4 -- execution time of the SWarp Stage-In task vs. the percentage
// of input files stored in burst buffers (1 pipeline, 32 cores per task).
//
// Paper findings reproduced here:
//   * stage-in time grows linearly with the staged volume;
//   * the on-node implementation (Summit) outperforms the shared one (Cori)
//     by up to ~5x;
//   * both Cori modes show run-to-run variability (competing load);
//   * the striped mode shows a reproducible anomaly at 75% staged.
#include "bench_common.hpp"

using namespace bbsim;

int main() {
  bench::banner("Figure 4", "stage-in cost",
                "Stage-In execution time vs. % of input files staged into the BB "
                "(SWarp, 1 pipeline, 32 cores; mean ± stddev over 15 runs).");

  const wf::Workflow workflow = wf::make_swarp({});
  const std::vector<double> fractions = {0.0, 0.25, 0.5, 0.75, 1.0};

  std::vector<analysis::Series> series;
  for (const auto system : bench::kAllSystems) {
    testbed::TestbedOptions opt;
    const testbed::Testbed tb(system, opt);
    analysis::Series s;
    s.label = to_string(system);
    for (const double fraction : fractions) {
      exec::ExecutionConfig cfg;
      cfg.placement =
          std::make_shared<exec::FractionPolicy>(fraction, exec::Tier::BurstBuffer);
      const auto results = tb.run_repetitions(workflow, cfg);
      const auto stats = testbed::Testbed::summarize(results);
      s.add(fraction * 100.0, stats.stage_in.mean, stats.stage_in.stddev);
    }
    series.push_back(std::move(s));
  }

  analysis::Table t = analysis::series_table("% files in BB", series);
  std::printf("Stage-In execution time (seconds):\n");
  t.print();
  bench::save_csv(t, "fig04_stagein.csv");

  // Headline checks (printed, not asserted -- benches report, tests assert).
  const analysis::Series& priv = series[0];
  const analysis::Series& summit = series[2];
  if (priv.y.back() > 0 && summit.y.back() > 0) {
    std::printf("\nShared(private)/on-node stage-in ratio at 100%%: %.1fx "
                "(paper: up to ~5x)\n",
                priv.y.back() / summit.y.back());
  }
  const analysis::Series& striped = series[1];
  std::printf("Striped anomaly: t(75%%)=%.2fs vs linear-expected=%.2fs\n",
              striped.y[3], 0.75 * striped.y.back());
  return 0;
}
