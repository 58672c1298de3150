#include "testbed/testbed.hpp"

#include <exception>
#include <memory>
#include <utility>

#include "sweep/runner.hpp"
#include "util/error.hpp"

namespace bbsim::testbed {

using platform::BBMode;
using platform::PlatformSpec;
using platform::PresetOptions;
using platform::StorageKind;

const char* to_string(System system) {
  switch (system) {
    case System::CoriPrivate: return "cori-private";
    case System::CoriStriped: return "cori-striped";
    case System::Summit: return "summit";
  }
  return "?";
}

namespace {

/// Physical-truth fidelity constants. These are bbsim calibration choices
/// (the paper publishes figure shapes, not microscopic parameters); they
/// were tuned so the characterization benches reproduce the published
/// orderings and ratios. See EXPERIMENTS.md for the resulting numbers.
struct FidelityConstants {
  // Burst buffer overlays
  int bb_nodes = 1;              ///< testbed BB node count (striping targets)
  double bb_stream_bw = 0.0;     ///< per-stream cap (B/s)
  double bb_base_latency = 0.0;  ///< per-op service latency (s)
  double bb_metadata_ops = 0.0;  ///< metadata server ops/s
  double bb_stage_latency = 0.0; ///< per-file staging-API overhead (s)
  /// Effective-bandwidth factor on the BB's Table I capacity: the POSIX
  /// workflow never reaches peak on the shared design (paper finding (iii):
  /// "the effective bandwidth ... is well below the peak").
  double bb_effective_scale = 1.0;
  // PFS overlays
  double pfs_stream_bw = 0.0;
  double pfs_base_latency = 0.0;
  double pfs_metadata_ops = 0.0;
  NoiseProfile noise;
};

FidelityConstants constants_for(System system) {
  FidelityConstants c;
  switch (system) {
    case System::CoriPrivate:
      c.bb_nodes = 1;
      c.bb_stream_bw = 280e6;
      c.bb_base_latency = 4e-3;
      c.bb_metadata_ops = 500.0;
      // Cray DataWarp stage-in requests carry a documented per-file
      // overhead; this is what separates the shared designs from a plain
      // cp to the node-local NVMe in paper Figure 4 (up to ~5x).
      c.bb_stage_latency = 0.85;
      c.bb_effective_scale = 0.625;  // ~500 MB/s achieved of the 800 peak
      c.pfs_stream_bw = 150e6;
      c.pfs_base_latency = 10e-3;
      c.pfs_metadata_ops = 200.0;
      c.noise = NoiseProfile{0.35, 0.05, 0.03, 0.015};
      break;
    case System::CoriStriped:
      c.bb_nodes = 4;
      c.bb_stream_bw = 100e6;
      c.bb_base_latency = 100e-3;
      c.bb_metadata_ops = 9.0;
      c.bb_stage_latency = 0.7;
      c.pfs_stream_bw = 150e6;
      c.pfs_base_latency = 10e-3;
      c.pfs_metadata_ops = 200.0;
      c.noise = NoiseProfile{0.55, 0.18, 0.16, 0.02};
      break;
    case System::Summit:
      c.bb_nodes = 1;  // per-host; normalised to host count by validation
      c.bb_stream_bw = 1.2e9;
      c.bb_base_latency = 0.15e-3;
      c.bb_metadata_ops = 5000.0;
      c.pfs_stream_bw = 150e6;
      c.pfs_base_latency = 8e-3;
      c.pfs_metadata_ops = 400.0;
      c.noise = NoiseProfile{0.10, 0.02, 0.01, 0.01};
      break;
  }
  return c;
}

}  // namespace

PlatformSpec paper_platform(System system, int compute_nodes) {
  PresetOptions opt;
  opt.compute_nodes = compute_nodes;
  switch (system) {
    case System::CoriPrivate:
      opt.bb_mode = BBMode::Private;
      return platform::cori_platform(opt);
    case System::CoriStriped:
      opt.bb_mode = BBMode::Striped;
      return platform::cori_platform(opt);
    case System::Summit:
      return platform::summit_platform(opt);
  }
  throw util::ConfigError("unknown system");
}

PlatformSpec testbed_platform(System system, const TestbedOptions& opt) {
  const FidelityConstants c = constants_for(system);
  PresetOptions popt;
  popt.compute_nodes = opt.compute_nodes;
  popt.bb_nodes = c.bb_nodes;
  PlatformSpec p;
  switch (system) {
    case System::CoriPrivate:
      popt.bb_mode = BBMode::Private;
      p = platform::cori_platform(popt);
      break;
    case System::CoriStriped:
      popt.bb_mode = BBMode::Striped;
      p = platform::cori_platform(popt);
      break;
    case System::Summit:
      p = platform::summit_platform(popt);
      break;
  }
  for (platform::StorageSpec& s : p.storage) {
    if (s.kind == StorageKind::PFS) {
      s.stream_bw = c.pfs_stream_bw;
      s.base_latency = c.pfs_base_latency;
      s.metadata_ops_per_sec = c.pfs_metadata_ops;
    } else {
      s.stream_bw = c.bb_stream_bw;
      s.base_latency = c.bb_base_latency;
      s.metadata_ops_per_sec = c.bb_metadata_ops;
      s.stage_latency = c.bb_stage_latency;
      if (s.kind == StorageKind::SharedBB) {
        s.disk.read_bw *= c.bb_effective_scale;
        s.disk.write_bw *= c.bb_effective_scale;
        s.link.bandwidth *= c.bb_effective_scale;
        if (s.num_nodes > 1) {
          // Keep the aggregate at Table I: the paper's 800/950 MB/s are
          // allocation-level figures; the testbed spreads them over stripes.
          s.disk.read_bw /= s.num_nodes;
          s.disk.write_bw /= s.num_nodes;
          s.link.bandwidth /= s.num_nodes;
        }
      }
      if (s.kind == StorageKind::NodeLocalBB) {
        // Device truth: PM1725a reads ~6 GB/s, writes ~2.1 GB/s
        // (Section III-A2); Table I's symmetric 3.3 GB/s is what the
        // simple model sees.
        s.disk.read_bw = 6.0e9;
        s.disk.write_bw = 2.1e9;
      }
    }
  }
  p.validate_and_normalize();
  return p;
}

Testbed::Testbed(System system, TestbedOptions opt)
    : system_(system),
      opt_(opt),
      platform_(testbed_platform(system, opt)),
      noise_(constants_for(system).noise) {
  if (opt_.repetitions < 1) throw util::ConfigError("testbed: repetitions must be >= 1");
}

exec::Result Testbed::run_once(const wf::Workflow& workflow,
                               const exec::ExecutionConfig& config,
                               unsigned long long salt) const {
  util::Rng base(util::mix64(opt_.seed) ^ util::mix64(salt + 1));

  // Between-campaign drift: deterministic per (system, campaign), shared by
  // every repetition of the campaign.
  util::Rng campaign_rng(util::mix64(0xCA3Bull) ^
                         util::mix64(static_cast<unsigned long long>(system_) * 131 +
                                     static_cast<unsigned long long>(opt_.campaign)));
  const double compute_drift =
      opt_.campaign == 0 ? 1.0 : campaign_rng.truncated_normal(1.0, 0.05, 0.88, 1.12);
  const double bw_drift =
      opt_.campaign == 0 ? 1.0 : campaign_rng.truncated_normal(1.0, 0.09, 0.75, 1.25);

  PlatformSpec plat = platform_;
  exec::ExecutionConfig cfg = config;

  // Per-task compute jitter (always carries the campaign drift).
  {
    auto compute_rng = std::make_shared<util::Rng>(base.fork("compute"));
    const double sigma = opt_.noise ? noise_.compute_sigma : 0.0;
    cfg.compute_noise = [compute_rng, sigma, compute_drift](const wf::Task&,
                                                            std::size_t) {
      return compute_drift *
             (sigma > 0 ? compute_rng->truncated_normal(1.0, sigma, 0.85, 1.25) : 1.0);
    };
  }

  exec::Simulation simulation(std::move(plat), workflow, cfg);

  {
    // Per-repetition background load on the shared services: competing jobs
    // eat a slice of the nominal capacity (paper Section III-D: "BBs are
    // shared across user jobs").
    util::Rng load_rng = base.fork("load");
    for (std::size_t s = 0; s < simulation.fabric().spec().storage.size(); ++s) {
      const bool shared_service =
          simulation.fabric().spec().storage[s].kind != StorageKind::NodeLocalBB;
      const double sigma = shared_service ? noise_.run_load_sigma : noise_.run_load_sigma / 4;
      const double factor =
          bw_drift * (opt_.noise ? load_rng.truncated_normal(1.0, sigma, 0.6, 1.15) : 1.0);
      simulation.fabric().scale_storage_capacity(s, factor);
    }
  }

  if (opt_.noise) {

    // Per-operation latency/cap jitter, plus the striped stage-in anomaly.
    auto op_rng = std::make_shared<util::Rng>(base.fork("ops"));
    const NoiseProfile prof = noise_;
    const auto* fraction =
        dynamic_cast<const exec::FractionPolicy*>(config.placement.get());
    const double staged = fraction != nullptr ? fraction->input_fraction() : -1.0;
    const bool anomaly = opt_.striped_anomaly && system_ == System::CoriStriped &&
                         staged >= 0.70 && staged < 0.80;
    double base_latency = 0.0;  // the BB's service latency drives the jitter scale
    for (const platform::StorageSpec& s : platform_.storage) {
      if (s.kind != StorageKind::PFS) base_latency = s.base_latency;
    }
    simulation.storage().set_perturbation(
        [op_rng, prof, anomaly, base_latency](bool is_write, std::size_t) {
          storage::IoPerturbation p;
          // Log-normal tail on the service latency (metadata jitter).
          p.extra_latency = base_latency * (op_rng->lognormal_mean(1.0, prof.latency_sigma) - 1.0);
          if (p.extra_latency < 0.0) p.extra_latency = 0.0;
          if (anomaly && is_write) {
            // The reproducible threshold behaviour around 75% staged
            // (paper Figure 4): writes into the striped allocation stall.
            p.extra_latency += base_latency * 6.0;
          }
          p.rate_cap_scale = op_rng->truncated_normal(1.0, prof.cap_sigma, 0.5, 1.4);
          return p;
        });
  }

  return simulation.run();
}

std::vector<exec::Result> Testbed::run_repetitions(const wf::Workflow& workflow,
                                                   const exec::ExecutionConfig& config,
                                                   int jobs) const {
  // Each repetition is an isolated simulation stack seeded by its index, so
  // the result vector is the same for any job count.
  std::vector<sweep::RunSpec> specs;
  specs.reserve(static_cast<std::size_t>(opt_.repetitions));
  for (int rep = 0; rep < opt_.repetitions; ++rep) {
    specs.push_back(sweep::RunSpec{
        "rep" + std::to_string(rep), [this, &workflow, &config, rep] {
          return run_once(workflow, config, static_cast<unsigned long long>(rep));
        }});
  }
  sweep::SweepOptions sopt;
  sopt.jobs = jobs;
  sopt.cancel_on_error = true;
  std::vector<sweep::RunOutcome> outcomes = sweep::SweepRunner(sopt).run(specs);
  // With jobs > 1 a worker can claim a repetition and then find the sweep
  // cancelled by a later one, so a skipped repetition (no exception) may
  // come first: rethrow the first repetition that ran and failed.
  for (const sweep::RunOutcome& o : outcomes) {
    if (o.exception) std::rethrow_exception(o.exception);
  }
  std::vector<exec::Result> out;
  out.reserve(outcomes.size());
  for (sweep::RunOutcome& o : outcomes) out.push_back(std::move(o.result));
  return out;
}

MeasuredStats Testbed::summarize(const std::vector<exec::Result>& results) {
  if (results.empty()) throw util::InvariantError("summarize: no results");
  MeasuredStats m;
  std::vector<double> makespans;
  std::vector<double> stageins;
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, std::vector<double>> lambdas;
  for (const exec::Result& r : results) {
    makespans.push_back(r.makespan);
    stageins.push_back(r.stage_in_duration);
    for (const auto& [_, rec] : r.tasks) {
      durations[rec.type].push_back(rec.duration());
      lambdas[rec.type].push_back(rec.lambda_io());
    }
  }
  m.makespan = analysis::describe(makespans);
  m.stage_in = analysis::describe(stageins);
  for (const auto& [type, sample] : durations) {
    m.duration_by_type[type] = analysis::describe(sample);
  }
  for (const auto& [type, sample] : lambdas) {
    m.lambda_by_type[type] = analysis::describe(sample).mean;
  }
  return m;
}

std::map<std::string, model::TaskObservation> Testbed::observations(
    const std::vector<exec::Result>& results) {
  if (results.empty()) throw util::InvariantError("observations: no results");
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, std::vector<double>> lambdas;
  std::map<std::string, int> cores;
  for (const exec::Result& r : results) {
    for (const auto& [_, rec] : r.tasks) {
      if (rec.type == wf::kStageInType) continue;
      durations[rec.type].push_back(rec.duration());
      lambdas[rec.type].push_back(rec.lambda_io());
      cores[rec.type] = rec.cores;
    }
  }
  std::map<std::string, model::TaskObservation> out;
  for (const auto& [type, sample] : durations) {
    model::TaskObservation obs;
    obs.observed_time = analysis::describe(sample).mean;
    obs.lambda_io = analysis::describe(lambdas[type]).mean;
    obs.observed_cores = cores[type];
    obs.alpha = 0.0;  // the paper's perfect-speedup assumption (Eq. (4))
    out[type] = obs;
  }
  return out;
}

}  // namespace bbsim::testbed
