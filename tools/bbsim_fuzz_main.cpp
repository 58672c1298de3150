// bbsim_fuzz -- differential fuzzer driving the production engine against
// the naive reference implementation (src/oracle). See --help.
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "fuzz/runner.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

const char* kUsage = R"(bbsim_fuzz -- differential testing of bbsim against a naive reference

  --mode <exec|solver|churn|resil>  what to fuzz (default: exec)
                            exec: full engine vs reference replayer
                            solver: flow::Network::solve vs brute-force max-min
                            churn: incremental solve under add/remove/
                            set_capacity churn vs full re-solve and oracle
                            resil: scenarios with a fault/checkpoint cocktail;
                            each is checked for baseline oracle agreement,
                            faults-disabled bitwise identity, faulty-run
                            determinism, audit cleanliness and accounting
  --seed S                  campaign seed (default: 42)
  --iters N                 scenarios to sample (default: 100)
  --rel-tol X               relative diff tolerance (default: 1e-6)
  --abs-tol X               absolute diff tolerance (default: 1e-6)
  --max-failures N          stop after N minimized failures (default: 1)
  --out DIR                 write minimized fuzzcase JSON files to DIR
  --no-minimize             keep failing cases unminimized
  --perturb-bb F            scale the engine-side BB capacity by F
                            (fault injection; any F != 1 must be caught)
  --replay FILE.json        replay one bbsim.fuzzcase.v1 file and diff
  --help

Exit status: 0 = no divergence, 1 = divergence found, 2 = usage error.
)";

}  // namespace

int main(int argc, char** argv) {
  using bbsim::fuzz::CampaignOptions;
  using bbsim::util::to_integer;
  using bbsim::util::to_number;

  std::string mode = "exec";
  std::string replay_path;
  CampaignOptions options;
  options.iterations = 100;

  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    std::size_t i = 0;
    auto next_value = [&](const std::string& flag) -> std::string {
      if (i + 1 >= args.size()) {
        throw bbsim::util::ConfigError("missing value for " + flag);
      }
      return args[++i];
    };
    for (; i < args.size(); ++i) {
      const std::string& a = args[i];
      if (a == "--help" || a == "-h") {
        std::cout << kUsage;
        return 0;
      } else if (a == "--mode") {
        mode = next_value(a);
        if (mode != "exec" && mode != "solver" && mode != "churn" &&
            mode != "resil") {
          throw bbsim::util::ConfigError("unknown --mode '" + mode + "'");
        }
      } else if (a == "--seed") {
        options.seed = to_integer<std::uint64_t>(next_value(a), a);
      } else if (a == "--iters") {
        options.iterations = to_integer<int>(next_value(a), a);
      } else if (a == "--rel-tol") {
        options.run.diff.rel_tol = to_number(next_value(a), a);
      } else if (a == "--abs-tol") {
        options.run.diff.abs_tol = to_number(next_value(a), a);
      } else if (a == "--max-failures") {
        options.max_failures = to_integer<int>(next_value(a), a);
      } else if (a == "--out") {
        options.out_dir = next_value(a);
      } else if (a == "--no-minimize") {
        options.minimize = false;
      } else if (a == "--perturb-bb") {
        options.run.engine_bb_capacity_scale = to_number(next_value(a), a);
      } else if (a == "--replay") {
        replay_path = next_value(a);
      } else {
        throw bbsim::util::ConfigError("unknown argument '" + a + "' (try --help)");
      }
    }
    if (options.iterations < 1) {
      throw bbsim::util::ConfigError("--iters must be >= 1");
    }
    if (!options.out_dir.empty()) {
      std::filesystem::create_directories(options.out_dir);
    }
  } catch (const std::exception& e) {
    std::cerr << "bbsim_fuzz: " << e.what() << "\n";
    return 2;
  }

  try {
    if (!replay_path.empty()) {
      const bbsim::fuzz::RunOutcome outcome =
          bbsim::fuzz::replay_case_file(replay_path, options.run);
      if (!outcome.engine_error.empty()) {
        std::cout << "engine error: " << outcome.engine_error << "\n";
      }
      if (!outcome.reference_error.empty()) {
        std::cout << "reference error: " << outcome.reference_error << "\n";
      }
      for (const auto& d : outcome.divergences) {
        std::cout << "DIVERGENCE " << d.describe() << "\n";
      }
      std::cout << (outcome.diverged ? "case diverges\n" : "case agrees\n");
      return outcome.diverged ? 1 : 0;
    }

    if (mode == "churn") {
      const auto result = bbsim::fuzz::run_solver_churn_campaign(
          options.seed, options.iterations, options.run.diff.rel_tol);
      std::cout << "churn campaign: " << result.iterations_run << " iterations, "
                << result.divergent << " divergent\n";
      if (!result.clean()) {
        std::cout << "first divergence: " << result.first_divergence << "\n";
      }
      return result.clean() ? 0 : 1;
    }

    if (mode == "solver") {
      const auto result = bbsim::fuzz::run_solver_campaign(
          options.seed, options.iterations, options.run.engine_bb_capacity_scale,
          options.run.diff.rel_tol);
      std::cout << "solver campaign: " << result.iterations_run << " iterations, "
                << result.divergent << " divergent\n";
      if (!result.clean()) {
        std::cout << "first divergence: " << result.first_divergence << "\n";
      }
      return result.clean() ? 0 : 1;
    }

    options.resil_cocktail = mode == "resil";
    const auto result = bbsim::fuzz::run_campaign(options);
    std::cout << mode << " campaign: " << result.iterations_run << " iterations, "
              << result.failures.size() << " failing\n";
    for (const auto& failure : result.failures) {
      std::cout << "failure at iteration " << failure.iteration << " (minimized to "
                << failure.minimized.workflow.task_count() << " tasks, "
                << failure.minimized.platform.hosts.size() << " hosts)\n";
      for (const auto& d : failure.divergences) {
        std::cout << "  " << d.describe() << "\n";
      }
      if (!failure.written_path.empty()) {
        std::cout << "  written: " << failure.written_path << "\n";
      }
    }
    return result.clean() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bbsim_fuzz: " << e.what() << "\n";
    return 2;
  }
}
