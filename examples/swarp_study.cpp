// SWarp study: the paper's Section III characterization in miniature --
// run the SWarp workflow on all three testbed systems, sweep the staging
// fraction, and print a compact comparison (the full sweeps live in bench/).
//
// The (system x fraction x repetition) grid is embarrassingly parallel, so
// it runs through sweep::SweepRunner: one isolated simulation stack per
// repetition, results in deterministic grid order regardless of worker
// count. Usage: swarp_study [pipelines] [jobs]   (jobs 0 = all hardware
// threads, the default).
#include <cstdio>

#include "analysis/report.hpp"
#include "sweep/runner.hpp"
#include "util/strings.hpp"
#include "exec/engine.hpp"
#include "testbed/testbed.hpp"
#include "workflow/swarp.hpp"
#include "workflow/wfformat.hpp"

using namespace bbsim;

int main(int argc, char** argv) {
  int pipelines = 4;
  if (argc > 1) pipelines = std::max(1, std::atoi(argv[1]));
  int jobs = 0;  // default: one worker per hardware thread
  if (argc > 2) jobs = std::max(0, std::atoi(argv[2]));

  wf::SwarpConfig scfg;
  scfg.pipelines = pipelines;
  scfg.cores_per_task = 8;
  const wf::Workflow workflow = wf::make_swarp(scfg);
  std::printf("SWarp: %d pipelines, %zu tasks, %.0f MiB input per pipeline\n\n",
              pipelines, workflow.task_count(),
              workflow.input_data_bytes() / (1024.0 * 1024.0) / pipelines);

  // Export the workflow so it can be inspected / reloaded.
  wf::save_workflow("swarp_workflow.json", workflow);
  std::printf("[json] wrote swarp_workflow.json\n\n");

  const std::vector<testbed::System> systems = {testbed::System::CoriPrivate,
                                                testbed::System::CoriStriped,
                                                testbed::System::Summit};
  const std::vector<double> fractions = {0.0, 0.5, 1.0};
  constexpr int kReps = 5;

  // One testbed per system; run_once is const and safe to share between
  // workers. One sweep run per repetition of every (system, fraction) cell.
  std::vector<testbed::Testbed> testbeds;
  for (const auto system : systems) {
    testbed::TestbedOptions opt;
    opt.repetitions = kReps;
    testbeds.emplace_back(system, opt);
  }
  std::vector<sweep::RunSpec> specs;
  for (std::size_t s = 0; s < systems.size(); ++s) {
    for (const double fraction : fractions) {
      for (int rep = 0; rep < kReps; ++rep) {
        const testbed::Testbed& tb = testbeds[s];
        specs.push_back(sweep::RunSpec{
            util::format("%s/frac%.1f/rep%d", to_string(systems[s]), fraction, rep),
            [&tb, &workflow, fraction, rep] {
              exec::ExecutionConfig cfg;
              cfg.placement = std::make_shared<exec::FractionPolicy>(
                  fraction, exec::Tier::BurstBuffer);
              cfg.collect_trace = false;
              return tb.run_once(workflow, cfg, static_cast<unsigned long long>(rep));
            }});
      }
    }
  }

  sweep::SweepOptions sopt;
  sopt.jobs = jobs;
  const std::vector<sweep::RunOutcome> outcomes = sweep::SweepRunner(sopt).run(specs);

  analysis::Table t({"system", "% staged", "stage-in (s)", "resample (s)",
                     "combine (s)", "makespan (s)"});
  std::size_t next = 0;  // outcomes are in grid order: system, fraction, rep
  for (std::size_t s = 0; s < systems.size(); ++s) {
    for (const double fraction : fractions) {
      std::vector<exec::Result> cell;
      for (int rep = 0; rep < kReps; ++rep, ++next) {
        if (!outcomes[next].ok) {
          std::fprintf(stderr, "FAILED %s: %s\n", outcomes[next].name.c_str(),
                       outcomes[next].error.c_str());
          continue;
        }
        cell.push_back(outcomes[next].result);
      }
      if (cell.empty()) continue;
      const auto stats = testbed::Testbed::summarize(cell);
      t.add_row({to_string(systems[s]), util::format("%.0f", fraction * 100),
                 util::format("%.2f", stats.stage_in.mean),
                 util::format("%.2f", stats.duration_by_type.at("resample").mean),
                 util::format("%.2f", stats.duration_by_type.at("combine").mean),
                 util::format("%.2f", stats.makespan.mean)});
    }
  }
  t.print();
  std::printf("\nExpected shape (paper Figs 4-8): on-node < private << striped;\n"
              "staging more input helps private/on-node, hurts striped little.\n");
  return 0;
}
