// Figure 11 -- real vs. simulated makespan when increasing the number of
// concurrent pipelines (1 core per task, all files in the BB).
//
// Paper numbers for context: average errors ~11.8% (private), ~11.6%
// (striped), ~15.9% (on-node); predicted trends follow the measured ones,
// and accuracy improves as concurrency grows (the contention model captures
// the bandwidth competition).
#include "bench_common.hpp"

using namespace bbsim;

int main() {
  bench::banner("Figure 11", "model accuracy vs. pipeline concurrency",
                "Measured (testbed) vs. simulated (Table I model) makespan as "
                "pipelines scale; per-mode mean relative error.");

  const std::vector<int> pipeline_sweep = {1, 2, 4, 8, 16, 32};
  analysis::Table summary({"system", "avg error %", "error@1", "error@32",
                           "paper error %"});
  const std::map<std::string, std::string> paper_errors = {
      {"cori-private", "11.8"}, {"cori-striped", "11.6"}, {"summit", "15.9"}};

  for (const auto system : bench::kAllSystems) {
    testbed::TestbedOptions calib_opt;
    calib_opt.campaign = 1;  // characterization campaign (see Figure 10)
    const testbed::Testbed tb_calib(system, calib_opt);
    testbed::TestbedOptions opt;
    opt.repetitions = 5;
    opt.campaign = 2;  // validation campaign
    const testbed::Testbed tb(system, opt);

    // Calibrate once from the single-pipeline all-PFS reference, 1 core.
    wf::SwarpConfig ref_cfg_wf;
    ref_cfg_wf.cores_per_task = 1;
    const wf::Workflow ref_workflow = wf::make_swarp(ref_cfg_wf);
    exec::ExecutionConfig ref_cfg;
    ref_cfg.placement = exec::all_pfs_policy();
    const auto observations = testbed::Testbed::observations(
        tb_calib.run_repetitions(ref_workflow, ref_cfg));

    analysis::Series measured, simulated;
    measured.label = "measured";
    simulated.label = "simulated";
    std::vector<double> errors;
    for (const int pipelines : pipeline_sweep) {
      wf::SwarpConfig scfg;
      scfg.pipelines = pipelines;
      scfg.cores_per_task = 1;
      scfg.stage_in_per_pipeline = true;  // N independent instances (paper)
      const wf::Workflow workflow = wf::make_swarp(scfg);
      exec::ExecutionConfig cfg;
      cfg.placement = exec::all_bb_policy();
      cfg.collect_trace = false;
      // Stage-ins overlap the other instances' pipelines here, so the
      // turnaround (makespan) is the quantity compared on both sides.
      const auto results = tb.run_repetitions(workflow, cfg);
      std::vector<double> makespans;
      for (const exec::Result& r : results) makespans.push_back(r.makespan);
      const double measured_mean = analysis::describe(makespans).mean;
      const double predicted =
          bench::simple_model_run(system, workflow, observations, cfg).makespan;
      measured.add(pipelines, measured_mean);
      simulated.add(pipelines, predicted);
      errors.push_back(analysis::relative_error(predicted, measured_mean));
    }
    analysis::Table t = analysis::series_table("pipelines", {measured, simulated});
    std::printf("--- %s ---\n", to_string(system));
    t.print();
    bench::save_csv(t, util::format("fig11_%s.csv", to_string(system)));
    const double avg_error = analysis::describe(errors).mean;
    std::printf("  average relative error: %.1f%%  (paper: %s%%)\n\n",
                avg_error * 100.0, paper_errors.at(to_string(system)).c_str());
    summary.add_row({to_string(system), util::format("%.1f", avg_error * 100.0),
                     util::format("%.1f", errors.front() * 100.0),
                     util::format("%.1f", errors.back() * 100.0),
                     paper_errors.at(to_string(system))});
  }
  std::printf("Summary (paper: accuracy improves as concurrency increases):\n");
  summary.print();
  bench::save_csv(summary, "fig11_summary.csv");
  return 0;
}
