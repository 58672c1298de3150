// Figure 10 -- real vs. simulated makespan when varying the fraction of
// input files staged into the BB (1 pipeline, 32 cores per task).
//
// Methodology exactly as the paper's Section IV-B: calibrate each task
// type's sequential compute time from the *reference characterization*
// (the all-PFS run, as in Daley et al. [24]) using Eq. (4), feed Table I to
// the simple model, and compare against the (emulated) measurements.
//
// Paper numbers for context: average error ~5.6% (private), ~12.8%
// (striped, underestimated -- fragmentation latency not modelled), ~6.5%
// (on-node); the private panel is the one case whose measured trend
// diverges from the simulated trend.
#include "bench_common.hpp"

using namespace bbsim;

int main() {
  bench::banner("Figure 10", "model accuracy vs. staging fraction",
                "Measured (testbed) vs. simulated (Table I model) makespan; "
                "per-mode mean relative error.");

  const wf::Workflow workflow = wf::make_swarp({});
  const std::vector<double> fractions = {0.0, 0.25, 0.5, 0.75, 1.0};

  analysis::Table summary({"system", "avg error %", "bias", "paper error %"});
  const std::map<std::string, std::string> paper_errors = {
      {"cori-private", "5.6"}, {"cori-striped", "12.8"}, {"summit", "6.5"}};

  for (const auto system : bench::kAllSystems) {
    // Two measurement campaigns, as in reality: the characterization that
    // feeds the calibration happened earlier than the validation sweep (the
    // paper's lambda values come from a separate study [24]).
    testbed::TestbedOptions calib_opt;
    calib_opt.campaign = 1;
    const testbed::Testbed tb_calib(system, calib_opt);
    testbed::TestbedOptions opt;
    opt.campaign = 2;
    const testbed::Testbed tb(system, opt);

    // Reference characterization: everything on the PFS (as in [24]).
    exec::ExecutionConfig ref_cfg;
    ref_cfg.placement = exec::all_pfs_policy();
    const auto observations =
        testbed::Testbed::observations(tb_calib.run_repetitions(workflow, ref_cfg));

    analysis::Series measured, simulated;
    measured.label = "measured";
    simulated.label = "simulated";
    std::vector<double> errors;
    double bias = 0;
    for (const double fraction : fractions) {
      exec::ExecutionConfig cfg;
      cfg.placement =
          std::make_shared<exec::FractionPolicy>(fraction, exec::Tier::BurstBuffer);
      const auto results = tb.run_repetitions(workflow, cfg);
      // The figure plots the pipeline span; the stage-in phase (whose cost
      // is Figure 4's experiment) is excluded on both sides.
      std::vector<double> spans;
      for (const exec::Result& r : results) spans.push_back(r.workflow_span);
      const double measured_mean = analysis::describe(spans).mean;
      const double predicted =
          bench::simple_model_run(system, workflow, observations, cfg).workflow_span;
      measured.add(fraction * 100.0, measured_mean);
      simulated.add(fraction * 100.0, predicted);
      errors.push_back(analysis::relative_error(predicted, measured_mean));
      bias += predicted - measured_mean;
    }
    analysis::Table t = analysis::series_table("% staged", {measured, simulated});
    std::printf("--- %s ---\n", to_string(system));
    t.print();
    bench::save_csv(t, util::format("fig10_%s.csv", to_string(system)));
    const double avg_error = analysis::describe(errors).mean;
    std::printf("  average relative error: %.1f%%  (paper: %s%%)\n\n",
                avg_error * 100.0, paper_errors.at(to_string(system)).c_str());
    summary.add_row({to_string(system), util::format("%.1f", avg_error * 100.0),
                     bias < 0 ? "underestimates" : "overestimates",
                     paper_errors.at(to_string(system))});
  }
  std::printf("Summary:\n");
  summary.print();
  bench::save_csv(summary, "fig10_summary.csv");
  return 0;
}
