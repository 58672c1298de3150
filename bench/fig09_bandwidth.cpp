// Figure 9 -- average achieved I/O bandwidth (MB/s) for Cori's shared
// implementation (private and striped) and Summit's on-node implementation.
//
// Paper finding reproduced here: the effective bandwidth achieved by the
// POSIX-I/O workflow is far below the peak of Table I, and the ranking is
// on-node > private > striped.
#include "bench_common.hpp"

using namespace bbsim;

int main() {
  bench::banner("Figure 9", "achieved bandwidth",
                "Average achieved BB bandwidth (bytes served / busy time) for "
                "the SWarp workload, vs. the Table I peak.");

  analysis::Table t({"system", "perceived bw (MB/s)", "device bw (MB/s)",
                     "peak (MB/s)", "efficiency %"});

  for (const auto system : bench::kAllSystems) {
    testbed::TestbedOptions opt;
    const testbed::Testbed tb(system, opt);
    // Reference workload: 8 concurrent pipelines, everything on the BB.
    wf::SwarpConfig scfg;
    scfg.pipelines = 8;
    scfg.cores_per_task = 4;
    const wf::Workflow workflow = wf::make_swarp(scfg);
    exec::ExecutionConfig cfg;
    cfg.placement = exec::all_bb_policy();
    cfg.collect_trace = false;
    const auto results = tb.run_repetitions(workflow, cfg);

    // Application-perceived bandwidth: bytes a task moved divided by the
    // wall time it spent in I/O (includes metadata stalls and latency --
    // what the paper's instrumentation sees).
    double bytes = 0, io_time = 0;
    std::vector<double> device_bw;
    for (const exec::Result& r : results) {
      for (const auto& [name, rec] : r.tasks) {
        if (rec.type == wf::kStageInType) continue;
        bytes += rec.bytes_read + rec.bytes_written;
        io_time += rec.io_time();
      }
      for (const exec::StorageCounters& s : r.storage) {
        if (s.service == "bb" && s.busy_time > 0) {
          device_bw.push_back(s.achieved_bandwidth());
        }
      }
    }
    const double perceived = io_time > 0 ? bytes / io_time : 0;
    const double device = device_bw.empty() ? 0 : analysis::describe(device_bw).mean;

    // Peak per Table I: aggregate BB disk bandwidth of the simple model.
    const auto paper = testbed::paper_platform(system);
    double peak = 0;
    for (const auto& s : paper.storage) {
      if (s.kind != platform::StorageKind::PFS) peak = s.disk.read_bw;
    }
    t.add_row({to_string(system), util::format("%.1f", perceived / 1e6),
               util::format("%.1f", device / 1e6), util::format("%.1f", peak / 1e6),
               util::format("%.1f", 100.0 * perceived / peak)});
  }
  t.print();
  bench::save_csv(t, "fig09_bandwidth.csv");
  std::printf("\n(paper: achieved bandwidth well below peak; on-node highest, "
              "striped lowest)\n");
  return 0;
}
