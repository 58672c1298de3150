#include "fuzz/runner.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "flow/network.hpp"
#include "fuzz/minimize.hpp"
#include "json/json.hpp"
#include "oracle/maxmin_ref.hpp"
#include "resil/fault.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace bbsim::fuzz {

namespace {

/// The critpath invariant battery. A twin run with the recorder on must
///   1. change nothing except adding the "critpath" section (the
///      nullable-observer off-identity, seen from the on side);
///   2. produce a path whose length and per-class blame total both equal
///      the makespan within 1e-9 (the partition-of-[0, makespan] invariant);
///   3. replay to the observed makespan exactly with every scale at 1
///      (the what-if baseline identity);
///   4. never produce a what-if makespan above the observed one (scales
///      only relax constraints).
/// `base_dump` is the serialized result of the identical run without
/// critpath.
void check_critpath_battery(const Scenario& scenario,
                            const exec::ExecutionConfig& base_cfg,
                            const std::string& base_dump, RunOutcome& out) {
  auto fail = [&out](const char* field, const std::string& what, double engine,
                     double reference) {
    out.diverged = true;
    out.divergences.push_back(oracle::Divergence{field, what, engine, reference});
  };
  try {
    exec::ExecutionConfig cfg = base_cfg;
    cfg.critpath = true;
    const exec::Result r =
        exec::Simulation(scenario.platform, scenario.workflow, cfg).run();
    const json::Value full = r.to_json();
    if (!full.is_object() || full.as_object().find("critpath") == nullptr) {
      fail("critpath.section", "no critpath section in a critpath run", 0.0, 1.0);
      return;
    }
    json::Object stripped;
    for (const auto& [key, value] : full.as_object()) {
      if (key != "critpath") stripped.set(key, value);
    }
    if (json::Value(std::move(stripped)).dump() != base_dump) {
      fail("critpath.identity",
           "enabling critpath changed the result beyond adding its section",
           1.0, 0.0);
    }
    const json::Object& cp = full.as_object().at("critpath").as_object();
    const double makespan = cp.at("makespan").as_number();
    const double tol = 1e-9 * std::max(1.0, makespan);
    const double path_length = cp.at("path_length").as_number();
    if (std::fabs(path_length - makespan) > tol) {
      fail("critpath.path_length", "critical-path length != makespan",
           path_length, makespan);
    }
    double blame_total = 0.0;
    for (const auto& [cls, seconds] : cp.at("blame").as_object()) {
      (void)cls;
      blame_total += seconds.as_number();
    }
    if (std::fabs(blame_total - makespan) > tol) {
      fail("critpath.blame", "blame classes do not sum to the makespan",
           blame_total, makespan);
    }
    for (const json::Value& w : cp.at("what_if").as_array()) {
      const std::string& name = w.at("scenario").as_string();
      const double m = w.at("makespan").as_number();
      if (name == "baseline" && std::fabs(m - makespan) > tol) {
        fail("critpath.baseline", "unit-scale replay missed the makespan", m,
             makespan);
      }
      if (m > makespan + tol) {
        fail("critpath.monotone", "what-if '" + name + "' exceeds the makespan",
             m, makespan);
      }
    }
  } catch (const util::Error& e) {
    fail("critpath.exception", e.what(), 1.0, 0.0);
  }
}

/// The resil invariant battery (the oracle models no faults, so a faulty
/// scenario cannot be diffed against it directly):
///   1. the spec-stripped twin must agree with the oracle (plain diff);
///   2. explicitly-empty specs must leave the twin's result byte-identical
///      (the "faults disabled = bitwise-identical engine" guarantee);
///   3. two faulty runs must produce byte-identical results (determinism);
///   4. the faulty run must be audit-clean under the full invariant audit;
///   5. accounting identities: every task has a record, restarts match
///      attempts, drained checkpoint bytes never exceed written ones;
///   6. the critpath battery under faults (check_critpath_battery).
RunOutcome run_resil_battery(const Scenario& scenario, const RunOptions& options) {
  Scenario stripped = scenario;
  stripped.config.fault_spec.clear();
  stripped.config.checkpoint_spec.clear();
  RunOutcome out = run_scenario(stripped, options);
  if (out.diverged || !out.engine_error.empty()) return out;

  auto fail = [&out](const char* field, const std::string& what, double engine,
                     double reference) {
    out.diverged = true;
    out.divergences.push_back(oracle::Divergence{field, what, engine, reference});
  };

  try {
    const auto run_once = [&scenario](const exec::ExecutionConfig& cfg) {
      return exec::Simulation(scenario.platform, scenario.workflow, cfg).run();
    };

    const exec::Result base = run_once(stripped.exec_config());
    exec::ExecutionConfig empty_cfg = stripped.exec_config();
    empty_cfg.faults = resil::FaultSpec::parse("");
    empty_cfg.checkpoint = resil::CheckpointSpec::parse("");
    if (base.to_json().dump() != run_once(empty_cfg).to_json().dump()) {
      fail("resil.identity", "empty specs changed the faultless result", 1.0, 0.0);
    }

    exec::ExecutionConfig faulty_cfg = scenario.exec_config();
    faulty_cfg.audit = true;
    const exec::Result f0 = run_once(faulty_cfg);
    const exec::Result f1 = run_once(faulty_cfg);
    if (f0.to_json().dump() != f1.to_json().dump()) {
      fail("resil.determinism", "faulty run not reproducible", 1.0, 0.0);
    }
    if (f0.audit_violations != 0) {
      fail("resil.audit", "audit violations under faults",
           static_cast<double>(f0.audit_violations), 0.0);
    }
    if (f0.tasks.size() != scenario.workflow.task_count()) {
      fail("resil.records", "task record count",
           static_cast<double>(f0.tasks.size()),
           static_cast<double>(scenario.workflow.task_count()));
    }
    if (f0.resil_stats != nullptr) {
      const resil::RunStats& rs = *f0.resil_stats;
      int extra_attempts = 0;
      for (const auto& entry : rs.tasks) extra_attempts += entry.second.attempts - 1;
      if (extra_attempts != rs.restarts) {
        fail("resil.restarts", "restarts != sum(attempts - 1)",
             static_cast<double>(rs.restarts), static_cast<double>(extra_attempts));
      }
      if (rs.checkpoint_bytes_drained > rs.checkpoint_bytes_written + 1e-6) {
        fail("resil.drain", "drained more checkpoint bytes than written",
             rs.checkpoint_bytes_drained, rs.checkpoint_bytes_written);
      }
      if (rs.wasted_core_seconds() < -1e-9) {
        fail("resil.waste", "negative waste", rs.wasted_core_seconds(), 0.0);
      }
    }
    if (!out.diverged) {
      // 6. critpath invariants must hold under faults too (rework and
      //    requeue edges are exactly where the back-walk is subtle).
      check_critpath_battery(scenario, faulty_cfg, f0.to_json().dump(), out);
    }
  } catch (const util::Error& e) {
    out.engine_error = e.what();
    fail("resil.exception", e.what(), 1.0, 0.0);
  }
  return out;
}

}  // namespace

RunOutcome run_scenario(const Scenario& scenario, const RunOptions& options) {
  if (!scenario.config.fault_spec.empty() ||
      !scenario.config.checkpoint_spec.empty()) {
    return run_resil_battery(scenario, options);
  }

  RunOutcome out;

  exec::Result engine_result;
  bool engine_ok = false;
  try {
    exec::Simulation sim(scenario.platform, scenario.workflow, scenario.exec_config());
    if (options.engine_bb_capacity_scale != 1.0) {
      const std::size_t bb_idx =
          sim.fabric().spec().find_kind(platform::StorageKind::SharedBB) !=
                  platform::PlatformSpec::npos
              ? sim.fabric().spec().find_kind(platform::StorageKind::SharedBB)
              : sim.fabric().spec().find_kind(platform::StorageKind::NodeLocalBB);
      if (bb_idx != platform::PlatformSpec::npos) {
        sim.fabric().scale_storage_capacity(bb_idx, options.engine_bb_capacity_scale);
      }
    }
    engine_result = sim.run();
    engine_ok = true;
  } catch (const util::Error& e) {
    out.engine_error = e.what();
  }

  oracle::RefResult reference_result;
  bool reference_ok = false;
  try {
    reference_result =
        oracle::reference_execute(scenario.platform, scenario.workflow,
                                  scenario.ref_config());
    reference_ok = true;
  } catch (const util::Error& e) {
    out.reference_error = e.what();
  }

  if (engine_ok != reference_ok) {
    // One side completed, the other rejected the scenario: a semantic
    // divergence, not float noise.
    out.diverged = true;
    out.divergences.push_back(oracle::Divergence{
        "exception", engine_ok ? out.reference_error : out.engine_error,
        engine_ok ? 1.0 : 0.0, reference_ok ? 1.0 : 0.0});
    return out;
  }
  if (!engine_ok) return out;  // both rejected: agreement

  out.divergences = oracle::diff_results(engine_result, reference_result, options.diff);
  out.diverged = !out.divergences.empty();
  if (!out.diverged && options.engine_bb_capacity_scale == 1.0) {
    // The twin builds its own stack from the scenario, so it only matches the
    // engine run when no out-of-band capacity scaling was applied.
    check_critpath_battery(scenario, scenario.exec_config(),
                           engine_result.to_json().dump(), out);
  }
  return out;
}

CampaignResult run_campaign(const CampaignOptions& options) {
  CampaignResult result;
  const util::Rng root(options.seed);
  for (int i = 0; i < options.iterations; ++i) {
    ++result.iterations_run;
    util::Rng iter_rng = root.fork(static_cast<std::uint64_t>(i));
    Scenario scenario = options.resil_cocktail ? sample_resil_scenario(iter_rng)
                                               : sample_scenario(iter_rng);
    scenario.label =
        util::format("seed=%llu iter=%d", static_cast<unsigned long long>(options.seed), i);
    RunOutcome outcome = run_scenario(scenario, options.run);
    if (!outcome.diverged) continue;

    CampaignFailure failure;
    failure.iteration = static_cast<std::uint64_t>(i);
    failure.minimized =
        options.minimize ? minimize_scenario(scenario, options.run) : scenario;
    failure.divergences = run_scenario(failure.minimized, options.run).divergences;
    if (failure.divergences.empty()) {
      // Minimization must preserve the divergence; fall back to the
      // original case rather than report a non-reproducing file.
      failure.minimized = scenario;
      failure.divergences = std::move(outcome.divergences);
    }
    if (!options.out_dir.empty()) {
      failure.written_path = util::format("%s/fuzzcase_seed%llu_iter%d.json",
                                          options.out_dir.c_str(),
                                          static_cast<unsigned long long>(options.seed), i);
      json::write_file(failure.written_path, failure.minimized.to_json());
    }
    result.failures.push_back(std::move(failure));
    if (static_cast<int>(result.failures.size()) >= options.max_failures) break;
  }
  return result;
}

RunOutcome replay_case_file(const std::string& path, const RunOptions& options) {
  return run_scenario(scenario_from_file(path), options);
}

SolverCampaignResult run_solver_campaign(std::uint64_t seed, int iterations,
                                         double engine_capacity_scale, double rel_tol) {
  SolverCampaignResult result;
  const util::Rng root(seed);
  for (int i = 0; i < iterations; ++i) {
    ++result.iterations_run;
    util::Rng rng = root.fork(static_cast<std::uint64_t>(i));

    // Random allocation problem: a handful of resources, flows with random
    // paths, occasional rate caps and non-unit weights.
    const int n_res = static_cast<int>(rng.uniform_int(1, 6));
    std::vector<double> capacities;
    for (int r = 0; r < n_res; ++r) {
      capacities.push_back(rng.chance(0.15) ? flow::kUnlimited
                                            : rng.uniform(1e8, 1e10));
    }
    const int n_flows = static_cast<int>(rng.uniform_int(1, 12));
    oracle::RefProblem problem;
    problem.capacities = capacities;
    flow::Network network;
    for (int r = 0; r < n_res; ++r) {
      const double cap =
          r == 0 && engine_capacity_scale != 1.0 && capacities[0] != flow::kUnlimited
              ? capacities[0] * engine_capacity_scale
              : capacities[static_cast<std::size_t>(r)];
      network.add_resource(util::format("r%d", r), cap);
    }
    std::vector<flow::FlowId> ids;
    for (int f = 0; f < n_flows; ++f) {
      oracle::RefFlow ref;
      for (int r = 0; r < n_res; ++r) {
        if (rng.chance(0.5)) ref.path.push_back(static_cast<std::uint32_t>(r));
      }
      ref.rate_cap = rng.chance(0.3) ? rng.uniform(1e7, 5e9) : flow::kUnlimited;
      ref.weight = rng.chance(0.25) ? rng.uniform(0.5, 4.0) : 1.0;
      flow::FlowSpec spec;
      spec.volume = 1.0;
      spec.path = ref.path;
      spec.rate_cap = ref.rate_cap;
      spec.weight = ref.weight;
      ids.push_back(network.add_flow(spec));
      problem.flows.push_back(std::move(ref));
    }

    network.solve();
    const std::vector<double> reference = oracle::reference_maxmin(problem);

    for (int f = 0; f < n_flows; ++f) {
      const double engine_rate = network.flow(ids[static_cast<std::size_t>(f)]).rate;
      const double ref_rate = reference[static_cast<std::size_t>(f)];
      const bool agree =
          (std::isinf(engine_rate) && std::isinf(ref_rate)) ||
          std::fabs(engine_rate - ref_rate) <=
              rel_tol * std::max({std::fabs(engine_rate), std::fabs(ref_rate), 1.0});
      if (!agree) {
        ++result.divergent;
        if (result.first_divergence.empty()) {
          std::ostringstream os;
          os << "iter " << i << " flow " << f << ": engine=" << engine_rate
             << " reference=" << ref_rate;
          result.first_divergence = os.str();
        }
        break;
      }
    }
  }
  return result;
}

SolverCampaignResult run_solver_churn_campaign(std::uint64_t seed, int iterations,
                                               double rel_tol) {
  SolverCampaignResult result;
  const util::Rng root(seed);

  const auto rates_agree = [rel_tol](double a, double b) {
    return (std::isinf(a) && std::isinf(b)) ||
           std::fabs(a - b) <= rel_tol * std::max({std::fabs(a), std::fabs(b), 1.0});
  };

  for (int i = 0; i < iterations; ++i) {
    ++result.iterations_run;
    util::Rng rng = root.fork(static_cast<std::uint64_t>(i));

    const int n_res = static_cast<int>(rng.uniform_int(1, 6));
    flow::Network network;
    for (int r = 0; r < n_res; ++r) {
      network.add_resource(util::format("r%d", r),
                           rng.chance(0.15) ? flow::kUnlimited
                                            : rng.uniform(1e8, 1e10));
    }

    const auto random_spec = [&rng, n_res] {
      flow::FlowSpec spec;
      spec.volume = 1.0;
      for (int r = 0; r < n_res; ++r) {
        if (rng.chance(0.5)) spec.path.push_back(static_cast<std::uint32_t>(r));
      }
      spec.rate_cap = rng.chance(0.3) ? rng.uniform(1e7, 5e9) : flow::kUnlimited;
      spec.weight = rng.chance(0.25) ? rng.uniform(0.5, 4.0) : 1.0;
      return spec;
    };

    std::vector<flow::FlowId> live;
    bool iteration_diverged = false;
    const int n_steps = static_cast<int>(rng.uniform_int(6, 30));
    for (int s = 0; s < n_steps && !iteration_diverged; ++s) {
      // Mutate: add, remove an *arbitrary* live flow (recycling its id into
      // the free-list while younger flows survive), or shift a capacity.
      const double op = rng.uniform(0.0, 1.0);
      if (op < 0.45 || live.empty()) {
        live.push_back(network.add_flow(random_spec()));
      } else if (op < 0.8) {
        const std::size_t victim = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        network.remove_flow(live[victim]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        const auto res = static_cast<flow::ResourceId>(
            rng.uniform_int(0, n_res - 1));
        network.set_capacity(res, rng.chance(0.15) ? flow::kUnlimited
                                                   : rng.uniform(1e8, 1e10));
      }
      network.solve();

      // Referee 1: a full re-solve of the identical state must not move
      // any rate. Referee 2: neither may the oracle.
      std::vector<flow::FlowId> order;
      std::vector<double> incremental_rates;
      oracle::RefProblem problem;
      for (int r = 0; r < n_res; ++r) {
        problem.capacities.push_back(
            network.resource(static_cast<flow::ResourceId>(r)).capacity);
      }
      network.for_each_flow([&](flow::FlowId id, const flow::FlowState& st) {
        order.push_back(id);
        incremental_rates.push_back(st.rate);
        oracle::RefFlow ref;
        ref.path = st.spec.path;
        ref.rate_cap = st.spec.rate_cap;
        ref.weight = st.spec.weight;
        problem.flows.push_back(std::move(ref));
      });

      network.set_incremental(false);
      network.solve();
      network.set_incremental(true);
      const std::vector<double> reference = oracle::reference_maxmin(problem);

      for (std::size_t f = 0; f < order.size(); ++f) {
        const double incremental_rate = incremental_rates[f];
        const double full_rate = network.flow(order[f]).rate;
        const double oracle_rate = reference[f];
        if (!rates_agree(incremental_rate, full_rate) ||
            !rates_agree(incremental_rate, oracle_rate)) {
          ++result.divergent;
          iteration_diverged = true;
          if (result.first_divergence.empty()) {
            std::ostringstream os;
            os << "iter " << i << " step " << s << " flow id " << order[f]
               << ": incremental=" << incremental_rate << " full=" << full_rate
               << " oracle=" << oracle_rate;
            result.first_divergence = os.str();
          }
          break;
        }
      }
    }
  }
  return result;
}

}  // namespace bbsim::fuzz
