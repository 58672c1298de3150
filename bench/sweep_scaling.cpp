// Sweep scaling -- serial vs. parallel execution of the SWarp validation
// sweep (the Figure 10 campaign: 3 systems x 5 staged fractions x 5
// repetitions).
//
// Every simulation in the campaign is independent, so sweep::SweepRunner
// should scale with worker count while producing a byte-identical report.
// Each tier runs the whole sweep at one worker count, times it, and checks
// that its report is byte-identical to a serial reference run
// (report_identical, the gate tools/check_bench_regression.py applies).
// Writes BENCH_sweep.json (schema bbsim.bench.v1, bench "sweep").
//
// Speedups are bounded by the physical core count: on an N-core machine
// expect ~min(jobs, N)x; each tier records hardware_threads so results can
// be interpreted.
//
// Usage: bench_sweep_scaling [--tiers 1,2,4,8] [--out FILE]
#include <optional>
#include <utility>

#include "bench_common.hpp"
#include "json/json.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"

using namespace bbsim;

namespace {

/// The Figure 10 measurement campaign as independent sweep runs.
std::vector<sweep::RunSpec> validation_sweep(const wf::Workflow& workflow,
                                             const std::vector<testbed::Testbed>& tbs,
                                             int reps) {
  const std::vector<double> fractions = {0.0, 0.25, 0.5, 0.75, 1.0};
  std::vector<sweep::RunSpec> specs;
  for (const testbed::Testbed& tb : tbs) {
    for (const double fraction : fractions) {
      for (int rep = 0; rep < reps; ++rep) {
        specs.push_back(sweep::RunSpec{
            util::format("%s/frac%.2f/rep%d", to_string(tb.system()), fraction, rep),
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
  return specs;
}

struct Tier {
  std::string label;
  int jobs = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Sweep scaling", "engine extension, no paper counterpart",
                "Wall time of the SWarp validation sweep (Fig. 10 campaign) at "
                "1/2/4/8 workers; parallel reports must be byte-identical to "
                "serial.");

  const wf::Workflow workflow = wf::make_swarp({});
  constexpr int kReps = 5;
  std::vector<testbed::Testbed> testbeds;
  for (const auto system : bench::kAllSystems) {
    testbed::TestbedOptions opt;
    opt.repetitions = kReps;
    testbeds.emplace_back(system, opt);
  }
  const std::vector<sweep::RunSpec> specs = validation_sweep(workflow, testbeds, kReps);
  std::printf("campaign: %zu independent simulations, %d hardware threads\n\n",
              specs.size(), sweep::effective_jobs(0));

  // Wall time of the sweep at `jobs` workers, and its report without
  // timings, which must not depend on `jobs`.
  const auto run_sweep = [&specs](int jobs) {
    sweep::SweepOptions sopt;
    sopt.jobs = jobs;
    const bench::Clock::time_point t0 = bench::Clock::now();
    const std::vector<sweep::RunOutcome> outcomes = sweep::SweepRunner(sopt).run(specs);
    const double wall = bench::seconds_since(t0);
    return std::pair{wall, sweep::sweep_report("swarp-validation", outcomes, false).dump()};
  };
  std::optional<std::pair<double, std::string>> serial;  // the reference run

  return bench::run_bench(
      argc, argv, "sweep", std::vector<Tier>{{"1", 1}, {"2", 2}, {"4", 4}, {"8", 8}},
      "1,2,4,8", [&](const Tier& tier) {
        if (!serial) serial = run_sweep(1);
        const auto [wall, report] = run_sweep(tier.jobs);
        const bool identical = report == serial->second;
        const double speedup = wall > 0 ? serial->first / wall : 0.0;
        std::printf("jobs %d: %.3fs, %.2fx vs serial, report %s\n", tier.jobs, wall,
                    speedup, identical ? "identical" : "DIVERGED");
        json::Object m;
        m.set("tier", tier.label);
        m.set("jobs", tier.jobs);
        m.set("runs", specs.size());
        m.set("hardware_threads", sweep::effective_jobs(0));
        m.set("wall_seconds", wall);
        m.set("speedup_vs_serial", speedup);
        m.set("report_identical", identical);
        return json::Value(std::move(m));
      });
}
