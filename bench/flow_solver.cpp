// bench_flow_solver -- the incremental max-min solver scale trajectory.
//
// Drives the solver with the churn profile of a large pipeline-parallel
// workflow run (wf::make_scale_dag): a sliding window of active transfers
// over per-host burst-buffer channels plus a shared PFS link, with flows
// added/removed as tasks start/finish and occasional capacity changes
// (interference injection). Tiers of 10k / 100k / 1M tasks.
//
// Three referees keep the numbers honest:
//   * sampled steps re-run a full from-scratch solve on the same state and
//     compare every rate (reported as max_rel_divergence_full);
//   * a few sampled steps also run the long-double oracle
//     (oracle::reference_maxmin) over the whole window;
//   * an engine-driven phase times end-to-end event dispatch through
//     FlowManager + sim::Engine's event heap, as the median of five
//     repetitions, each with a fresh Engine and FlowManager over the same
//     transfers (every repetition must do the same work).
//
// Writes BENCH_flow_solver.json (schema bbsim.bench.v1, bench
// "flow_solver") -- the trajectory tools/check_bench_regression.py gates.
// The work counts (transfers, solves, engine flows, events and flows
// settled) are exact functions of the seeded input, and the regression
// check requires them to equal the baseline on any hardware.
//
// Usage: bench_flow_solver [--tiers 10k,100k,1m] [--out FILE]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "flow/manager.hpp"
#include "flow/network.hpp"
#include "json/json.hpp"
#include "oracle/maxmin_ref.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workflow/random_dag.hpp"
#include "workflow/workflow.hpp"

namespace {

using namespace bbsim;
using bench::Clock;
using bench::seconds_since;

/// Relative disagreement between two rates; infinities must match exactly.
double rel_diff(double a, double b) {
  if (std::isinf(a) || std::isinf(b)) return a == b ? 0.0 : 1.0;
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-30});
  return std::fabs(a - b) / scale;
}

struct Tier {
  std::string label;
  std::size_t tasks;
};

struct Platform {
  std::size_t hosts;
  std::vector<flow::ResourceId> bb_read;
  std::vector<flow::ResourceId> bb_write;
  flow::ResourceId pfs;
};

Platform build_platform(flow::Network& net, std::size_t tasks, util::Rng& rng) {
  Platform p;
  std::size_t hosts = 16;
  while (hosts * 512 < tasks) hosts *= 2;
  p.hosts = hosts;
  for (std::size_t h = 0; h < hosts; ++h) {
    p.bb_read.push_back(
        net.add_resource("bb_read_" + std::to_string(h), rng.uniform(1e9, 10e9)));
    p.bb_write.push_back(
        net.add_resource("bb_write_" + std::to_string(h), rng.uniform(1e9, 10e9)));
  }
  p.pfs = net.add_resource("pfs_link", 500e9);
  return p;
}

/// One transfer derived from the scale DAG: which host channel it crosses,
/// whether it also crosses the shared PFS link, and its shaping parameters.
struct TransferPlan {
  flow::ResourceId channel;
  bool crosses_pfs;
  double volume;
  double rate_cap;
  double weight;
};

/// Flattens the DAG's task I/O into the transfer sequence the window churns
/// through: every input is a read on the task's host, every output a write.
std::vector<TransferPlan> plan_transfers(const wf::Workflow& dag,
                                         const Platform& p, util::Rng& rng) {
  std::vector<TransferPlan> plans;
  plans.reserve(dag.task_count() * 3);
  std::size_t k = 0;
  for (wf::TaskId id = 0; id < dag.task_count(); ++id) {
    const std::size_t h = k % p.hosts;
    for (const wf::FileId f : dag.inputs(id)) {
      TransferPlan t{};
      t.channel = p.bb_read[h];
      t.crosses_pfs = rng.chance(0.002);
      t.volume = dag.file(f).size;
      t.rate_cap = rng.chance(0.3) ? rng.uniform(0.5e9, 2e9) : flow::kUnlimited;
      t.weight = (k % 3 == 0) ? 2.0 : 1.0;
      plans.push_back(t);
    }
    for (const wf::FileId f : dag.outputs(id)) {
      TransferPlan t{};
      t.channel = p.bb_write[h];
      t.crosses_pfs = rng.chance(0.002);
      t.volume = dag.file(f).size;
      t.rate_cap = flow::kUnlimited;
      t.weight = 1.0;
      plans.push_back(t);
    }
    ++k;
  }
  return plans;
}

flow::FlowSpec to_spec(const TransferPlan& t, const Platform& p) {
  flow::FlowSpec spec;
  spec.volume = t.volume;
  spec.path.push_back(t.channel);
  if (t.crosses_pfs) spec.path.push_back(p.pfs);
  spec.rate_cap = t.rate_cap;
  spec.weight = t.weight;
  return spec;
}

/// Snapshot of every active rate in storage order, for divergence checks:
/// two snapshots of one network with no flow added or removed in between
/// pair up by position.
std::vector<std::pair<flow::FlowId, double>> snapshot(const flow::Network& net) {
  std::vector<std::pair<flow::FlowId, double>> rates;
  rates.reserve(net.flow_count());
  net.for_each_flow([&rates](flow::FlowId id, const flow::FlowState& st) {
    rates.emplace_back(id, st.rate);
  });
  return rates;
}

double oracle_divergence(const flow::Network& net) {
  oracle::RefProblem problem;
  problem.capacities.reserve(net.resource_count());
  for (flow::ResourceId r = 0; r < net.resource_count(); ++r) {
    problem.capacities.push_back(net.resource(r).capacity);
  }
  std::vector<double> ours;
  net.for_each_flow([&](flow::FlowId, const flow::FlowState& st) {
    oracle::RefFlow f;
    f.path = st.spec.path;
    f.rate_cap = st.spec.rate_cap;
    f.weight = st.spec.weight;
    problem.flows.push_back(std::move(f));
    ours.push_back(st.rate);
  });
  const std::vector<double> ref = oracle::reference_maxmin(problem);
  double worst = 0.0;
  for (std::size_t i = 0; i < ours.size(); ++i) {
    worst = std::max(worst, rel_diff(ours[i], ref[i]));
  }
  return worst;
}

/// The work and wall time of one engine-phase repetition.
struct EngineRun {
  std::size_t flows = 0;
  std::size_t events = 0;
  std::uint64_t flows_settled = 0;
  double seconds = 0.0;
};

/// Drives the first `flows` transfers through a fresh FlowManager over a
/// copy of `resources` (so `platform`'s ids hold), keeping at most `window`
/// in flight: each completion starts the next.
EngineRun run_engine(const std::vector<TransferPlan>& plans, const Platform& platform,
                     const flow::Network& resources, std::size_t flows, std::size_t window) {
  sim::Engine engine;
  flow::FlowManager fm(engine);
  for (flow::ResourceId r = 0; r < resources.resource_count(); ++r) {
    fm.network().add_resource(resources.resource(r).name, resources.resource(r).capacity);
  }
  std::size_t started = 0;
  std::function<void()> start_next = [&] {
    while (started < flows && fm.active_count() < window) {
      fm.start(to_spec(plans[started], platform), [&] { start_next(); });
      ++started;
    }
  };
  const auto t0 = Clock::now();
  start_next();
  engine.run();
  return EngineRun{started, engine.executed_count(), fm.flows_settled(), seconds_since(t0)};
}

json::Value run_tier(const Tier& tier) {
  std::printf("== tier %s (%zu tasks)\n", tier.label.c_str(), tier.tasks);
  util::Rng rng(20260809);

  const auto t_gen = Clock::now();
  wf::ScaleDagConfig dag_cfg;
  dag_cfg.task_count = tier.tasks;
  const wf::Workflow dag = wf::make_scale_dag(dag_cfg, rng);
  const double gen_seconds = seconds_since(t_gen);

  flow::Network net;
  Platform platform = build_platform(net, tier.tasks, rng);
  const std::vector<TransferPlan> plans = plan_transfers(dag, platform, rng);
  const std::size_t window = 8 * platform.hosts;

  // Prefill the window (solve once at the end, like a warm simulation).
  std::deque<flow::FlowId> active;
  std::size_t next_plan = 0;
  while (active.size() < window && next_plan < plans.size()) {
    active.push_back(net.add_flow(to_spec(plans[next_plan], platform)));
    ++next_plan;
  }
  net.solve();

  // Steady-state churn: retire the oldest transfers, admit the next ones,
  // occasionally shift a channel capacity -- solving after every mutation,
  // exactly as FlowManager does. Sampled steps time a full re-solve of the
  // same state and diff every rate; a few also consult the oracle.
  const std::size_t total_steps = plans.size() - next_plan;
  // Referees are expensive at the big tiers (a full solve touches the whole
  // window; the oracle is O(F^2)): take fewer samples there and skip the
  // oracle entirely past 4096 active flows.
  const std::size_t target_samples = window > 4096 ? 32 : 200;
  const bool oracle_enabled = window <= 4096;
  const std::size_t sample_every =
      std::max<std::size_t>(1, total_steps / target_samples);
  std::size_t solves = 0;
  std::size_t full_solves = 0;
  double full_seconds = 0.0;
  double referee_seconds = 0.0;
  double incremental_sampled_seconds = 0.0;
  std::size_t incremental_sampled = 0;
  double worst_full = 0.0;
  double worst_oracle = 0.0;
  std::size_t oracle_checks = 0;
  std::size_t step = 0;

  // Throughput is reported as the best of ~16 timed blocks rather than the
  // whole-loop average: the loop only runs for tens of milliseconds at the
  // small tiers, so a single scheduler hiccup (or a CI neighbour) would
  // otherwise swing the number by 20%+ run to run.
  const std::size_t block_steps = std::max<std::size_t>(1, total_steps / 16);
  double best_throughput = 0.0;
  double block_referee = 0.0;
  std::size_t block_solves_start = 0;
  auto t_block = Clock::now();

  const auto t_churn = Clock::now();
  while (next_plan < plans.size()) {
    net.remove_flow(active.front());
    active.pop_front();
    net.solve();
    ++solves;

    active.push_back(net.add_flow(to_spec(plans[next_plan], platform)));
    ++next_plan;
    if (step % sample_every == 17 % sample_every) {
      const auto t0 = Clock::now();
      net.solve();
      incremental_sampled_seconds += seconds_since(t0);
      ++incremental_sampled;
    } else {
      net.solve();
    }
    ++solves;

    if (step % 997 == 996) {
      net.set_capacity(platform.bb_read[(step / 997) % platform.hosts],
                       rng.uniform(1e9, 10e9));
      net.solve();
      ++solves;
    }

    if (step % sample_every == 0) {
      const auto t_ref = Clock::now();
      const std::vector<std::pair<flow::FlowId, double>> before = snapshot(net);
      net.set_incremental(false);
      const auto t0 = Clock::now();
      net.solve();
      full_seconds += seconds_since(t0);
      ++full_solves;
      net.set_incremental(true);
      const std::vector<std::pair<flow::FlowId, double>> after = snapshot(net);
      for (std::size_t i = 0; i < before.size(); ++i) {
        worst_full = std::max(worst_full,
                              rel_diff(before[i].second, after[i].second));
      }
      if (oracle_enabled && step % (sample_every * 64) == 0) {
        worst_oracle = std::max(worst_oracle, oracle_divergence(net));
        ++oracle_checks;
      }
      const double ref_elapsed = seconds_since(t_ref);
      referee_seconds += ref_elapsed;
      block_referee += ref_elapsed;
    }
    ++step;

    if (step % block_steps == 0 || next_plan == plans.size()) {
      const double block_seconds = seconds_since(t_block) - block_referee;
      const std::size_t block_solves = solves - block_solves_start;
      if (block_seconds > 0.0 && block_solves > 0) {
        best_throughput =
            std::max(best_throughput,
                     static_cast<double>(block_solves) / block_seconds);
      }
      t_block = Clock::now();
      block_referee = 0.0;
      block_solves_start = solves;
    }
  }
  // Referee time (rate snapshots, full re-solves, oracle runs) is
  // measurement apparatus, not solver cost: report throughput without it.
  const double churn_seconds = seconds_since(t_churn) - referee_seconds;

  // End-to-end engine phase: the same transfers driven through FlowManager
  // completions, exercising the engine's schedule/cancel churn. One phase
  // runs in tens of milliseconds at the small tier, so it is timed as the
  // median of a few repetitions on one platform.
  constexpr int kEngineRepetitions = 5;
  const std::size_t engine_flows = std::min<std::size_t>(plans.size(), 200000);
  flow::Network eng_resources;
  const Platform eng_platform = build_platform(eng_resources, tier.tasks, rng);
  EngineRun engine_run;
  std::vector<double> engine_walls;
  for (int rep = 0; rep < kEngineRepetitions; ++rep) {
    const EngineRun run = run_engine(plans, eng_platform, eng_resources, engine_flows, window);
    if (rep == 0) engine_run = run;
    BBSIM_ASSERT(run.flows == engine_run.flows && run.events == engine_run.events &&
                     run.flows_settled == engine_run.flows_settled,
                 "engine repetition " + std::to_string(rep) + " did different work");
    engine_walls.push_back(run.seconds);
  }
  std::sort(engine_walls.begin(), engine_walls.end());
  const double engine_seconds = engine_walls[engine_walls.size() / 2];
  const double engine_events = static_cast<double>(engine_run.events);

  const double inc_us = incremental_sampled > 0
                            ? 1e6 * incremental_sampled_seconds /
                                  static_cast<double>(incremental_sampled)
                            : 0.0;
  const double full_us =
      full_solves > 0 ? 1e6 * full_seconds / static_cast<double>(full_solves) : 0.0;
  const double speedup = inc_us > 0.0 ? full_us / inc_us : 0.0;
  const double solves_per_second = best_throughput;

  std::printf("   dag: %zu tasks in %.2fs; window %zu over %zu hosts\n",
              dag.task_count(), gen_seconds, window, platform.hosts);
  std::printf("   churn: %zu solves in %.2fs (best block %.0f solves/s)\n",
              solves, churn_seconds, solves_per_second);
  std::printf("   incremental %.2f us/solve vs full %.2f us/solve -> %.1fx\n",
              inc_us, full_us, speedup);
  std::printf("   divergence: full %.3g, oracle %.3g (%zu oracle checks)\n",
              worst_full, worst_oracle, oracle_checks);
  std::printf("   engine: %zu flows, %zu events, %llu flows settled in %.3fs "
              "(median of %d; %.0f events/s)\n",
              engine_run.flows, engine_run.events,
              static_cast<unsigned long long>(engine_run.flows_settled), engine_seconds,
              kEngineRepetitions, engine_events / engine_seconds);

  json::Object out;
  out.set("tier", tier.label);
  out.set("tasks", static_cast<double>(tier.tasks));
  out.set("hosts", static_cast<double>(platform.hosts));
  out.set("window", static_cast<double>(window));
  out.set("transfers", static_cast<double>(plans.size()));
  out.set("dag_generation_seconds", gen_seconds);
  out.set("solves", static_cast<double>(solves));
  out.set("churn_seconds", churn_seconds);
  out.set("solves_per_second", solves_per_second);
  out.set("incremental_us_per_solve", inc_us);
  out.set("full_us_per_solve", full_us);
  out.set("speedup_vs_full", speedup);
  out.set("max_rel_divergence_full", worst_full);
  out.set("max_rel_divergence_oracle", worst_oracle);
  out.set("oracle_checks", static_cast<double>(oracle_checks));
  json::Object eng;
  eng.set("flows", static_cast<double>(engine_run.flows));
  eng.set("events", engine_events);
  eng.set("flows_settled", static_cast<double>(engine_run.flows_settled));
  eng.set("repetitions", static_cast<double>(kEngineRepetitions));
  eng.set("wall_seconds", engine_seconds);
  eng.set("events_per_second", engine_events / engine_seconds);
  out.set("engine", json::Value(std::move(eng)));
  return json::Value(std::move(out));
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_bench(argc, argv, "flow_solver",
                          std::vector<Tier>{{"10k", 10000}, {"100k", 100000},
                                            {"1m", 1000000}},
                          "10k,100k", run_tier);
}
