// Tests for the simulation invariant auditor (src/audit): the collector,
// the per-layer probes under deliberately corrupted event streams, the
// max-min fairness certificate, post-run result auditing, and clean
// end-to-end audits of the paper's two case-study workflows.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "audit/probes.hpp"
#include "exec/engine.hpp"
#include "exec/validate.hpp"
#include "flow/network.hpp"
#include "obs/sinks.hpp"
#include "platform/presets.hpp"
#include "stats/metrics.hpp"
#include "storage/system.hpp"
#include "workflow/genomes.hpp"
#include "workflow/swarp.hpp"

// Every operator new in this test binary is counted, so a test can assert
// that a code path allocates nothing. The deletes stay out of line: inlined
// into a caller, GCC would pair its new expression with free() and warn.
// The nothrow forms are replaced too: under ASan the sanitizer's own
// nothrow new (std::stable_sort's buffer) would otherwise be released by
// the free() below, an alloc-dealloc mismatch.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}
void* operator new(std::size_t size, const std::nothrow_t& /*tag*/) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t& /*tag*/) noexcept {
  std::free(p);
}

namespace bbsim {
namespace {

using audit::Auditor;
using audit::Code;

// ------------------------------------------------------------- collector

TEST(Auditor, StartsClean) {
  Auditor a;
  EXPECT_TRUE(a.clean());
  EXPECT_EQ(a.total(), 0u);
  EXPECT_EQ(a.count(Code::kClockRegression), 0u);
  EXPECT_TRUE(a.violations().empty());
}

TEST(Auditor, CountsPerCodeExactly) {
  Auditor a;
  a.report(Code::kClockRegression, 1.0, "e1", "m1");
  a.report(Code::kClockRegression, 2.0, "e2", "m2");
  a.report(Code::kCapacityExceeded, 3.0, "bb", "m3");
  EXPECT_FALSE(a.clean());
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.count(Code::kClockRegression), 2u);
  EXPECT_EQ(a.count(Code::kCapacityExceeded), 1u);
  EXPECT_EQ(a.count(Code::kPrecedence), 0u);
  ASSERT_EQ(a.violations().size(), 3u);
  EXPECT_EQ(a.violations()[0].subject, "e1");
  EXPECT_EQ(a.violations()[2].code, Code::kCapacityExceeded);
}

TEST(Auditor, StoredSampleIsBoundedButCountsStayExact) {
  Auditor a(/*metrics=*/nullptr, /*max_stored=*/2);
  for (int i = 0; i < 5; ++i) a.report(Code::kEventLifecycle, i, "e", "m");
  EXPECT_EQ(a.total(), 5u);
  EXPECT_EQ(a.count(Code::kEventLifecycle), 5u);
  EXPECT_EQ(a.violations().size(), 2u);
  const json::Value j = a.to_json();
  EXPECT_TRUE(j.at("truncated").as_bool());
  EXPECT_EQ(j.at("total_violations").as_number(), 5.0);
}

TEST(Auditor, JsonFollowsSchema) {
  Auditor a;
  a.report(Code::kByteConservation, 4.5, "file.fits", "size mismatch");
  const json::Value j = a.to_json();
  EXPECT_EQ(j.at("schema").as_string(), "bbsim.audit.v1");
  EXPECT_FALSE(j.at("clean").as_bool());
  EXPECT_EQ(j.at("counts").at("byte_conservation").as_number(), 1.0);
  const json::Array& v = j.at("violations").as_array();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].at("code").as_string(), "byte_conservation");
  EXPECT_EQ(v[0].at("time").as_number(), 4.5);
  EXPECT_EQ(v[0].at("subject").as_string(), "file.fits");
}

TEST(Auditor, PublishesMetricsCounters) {
  stats::MetricsRegistry metrics;
  Auditor a(&metrics);
  EXPECT_NE(metrics.find_counter("audit.violations"), nullptr);  // seeded at 0
  a.report(Code::kPrecedence, 1.0, "t", "early");
  a.report(Code::kPrecedence, 2.0, "t", "again");
  EXPECT_EQ(metrics.counter("audit.violations").value(), 2.0);
  EXPECT_EQ(metrics.counter("audit.violations.precedence").value(), 2.0);
}

TEST(Auditor, CodeNamesAreStable) {
  EXPECT_STREQ(audit::to_string(Code::kClockRegression), "clock_regression");
  EXPECT_STREQ(audit::to_string(Code::kFlowNotMaxMin), "flow_not_max_min");
  EXPECT_STREQ(audit::to_string(Code::kCoreOversubscription),
               "core_oversubscription");
}

// ----------------------------------------------------------- EngineProbe

TEST(EngineProbe, AcceptsLegalEventStream) {
  Auditor a;
  audit::EngineProbe probe(a);
  probe.on_scheduled(1, 0.0, 1.0);
  probe.on_scheduled(2, 0.0, 2.0);
  probe.on_executed(1, 1.0);
  probe.on_cancelled(2);
  EXPECT_TRUE(a.clean());
  EXPECT_EQ(probe.live_events(), 0u);
}

TEST(EngineProbe, PastDatedScheduleIsClockRegression) {
  Auditor a;
  audit::EngineProbe probe(a);
  probe.on_scheduled(1, 5.0, 4.0);  // when < now
  EXPECT_EQ(a.count(Code::kClockRegression), 1u);
}

TEST(EngineProbe, NonMonotoneExecutionIsClockRegression) {
  Auditor a;
  audit::EngineProbe probe(a);
  probe.on_scheduled(1, 0.0, 2.0);
  probe.on_scheduled(2, 0.0, 1.0);
  probe.on_executed(1, 2.0);
  probe.on_executed(2, 1.0);  // the clock already reached 2.0
  EXPECT_EQ(a.count(Code::kClockRegression), 1u);
}

TEST(EngineProbe, UnknownExecutionIsLifecycleViolation) {
  Auditor a;
  audit::EngineProbe probe(a);
  probe.on_executed(7, 1.0);  // never scheduled
  EXPECT_EQ(a.count(Code::kEventLifecycle), 1u);
}

TEST(EngineProbe, DoubleFireIsLifecycleViolation) {
  Auditor a;
  audit::EngineProbe probe(a);
  probe.on_scheduled(1, 0.0, 1.0);
  probe.on_executed(1, 1.0);
  probe.on_executed(1, 1.0);  // fired twice
  EXPECT_EQ(a.count(Code::kEventLifecycle), 1u);
}

TEST(EngineProbe, IdReuseWhilePendingIsLifecycleViolation) {
  Auditor a;
  audit::EngineProbe probe(a);
  probe.on_scheduled(1, 0.0, 1.0);
  probe.on_scheduled(1, 0.0, 2.0);  // same id scheduled again
  EXPECT_EQ(a.count(Code::kEventLifecycle), 1u);
}

TEST(EngineProbe, ObservesARealEngineCleanly) {
  Auditor a;
  audit::EngineProbe probe(a);
  obs::Sinks sinks;
  sinks.engine_observer = &probe;
  sim::Engine engine(sinks);
  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  const sim::EventId cancelled = engine.schedule_at(2.0, [&] { ++fired; });
  engine.schedule_at(1.5, [&] { ++fired; });
  engine.cancel(cancelled);
  engine.run();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(a.clean()) << a.to_json().dump(2);
  EXPECT_EQ(probe.live_events(), 0u);
}

// ---------------------------------------------------------- StorageProbe

/// A platform with a 10 kB burst buffer (see tests/storage_test.cpp).
platform::PlatformSpec probe_platform() {
  platform::PlatformSpec p;
  p.name = "probe";
  p.hosts.push_back({"h0", 4, 1e9, platform::kUnlimited});
  platform::StorageSpec pfs;
  pfs.name = "pfs";
  pfs.kind = platform::StorageKind::PFS;
  pfs.disk = {100.0, 100.0, platform::kUnlimited};
  pfs.link = {1000.0, 0.0};
  p.storage.push_back(pfs);
  platform::StorageSpec bb;
  bb.name = "bb";
  bb.kind = platform::StorageKind::SharedBB;
  bb.mode = platform::BBMode::Private;
  bb.disk = {950.0, 950.0, 10000.0};
  bb.link = {800.0, 0.0};
  p.storage.push_back(bb);
  p.validate_and_normalize();
  return p;
}

TEST(StorageProbe, CleanLifecycleOnRealServices) {
  Auditor a;
  platform::Fabric* clock = nullptr;  // the probe reads it once events run
  audit::StorageProbe probe(a, [&] { return clock->engine().now(); });
  probe.set_expected_size({0, 4000.0, "f"});
  obs::Sinks sinks;
  sinks.storage_observer = &probe;
  platform::Fabric fabric(probe_platform(), sinks);
  clock = &fabric;
  storage::StorageSystem sys(fabric);

  sys.pfs().register_file({0, 4000.0, "f"}, 0);
  bool done = false;
  sys.transfer({0, 4000.0, "f"}, sys.pfs(), *sys.burst_buffer(), 0, [&] { done = true; });
  fabric.engine().run();
  ASSERT_TRUE(done);
  sys.burst_buffer()->erase_file(0);
  probe.finalize();
  EXPECT_TRUE(a.clean()) << a.to_json().dump(2);
}

TEST(StorageProbe, OversubscribedBufferIsCapacityViolation) {
  platform::Fabric fabric(probe_platform());
  storage::StorageSystem sys(fabric);
  Auditor a;
  audit::StorageProbe probe(a, [&] { return fabric.engine().now(); });

  // Feed the probe a corrupted event stream directly: the service claims an
  // occupancy above its 10 kB capacity (the real service would throw before
  // ever reaching this state).
  const storage::StorageService& bb = *sys.burst_buffer();
  probe.on_occupancy_change(bb, 0, 15000.0, 15000.0);
  EXPECT_EQ(a.count(Code::kCapacityExceeded), 1u);
}

TEST(StorageProbe, DroppedBytesAreByteConservationViolations) {
  platform::Fabric fabric(probe_platform());
  storage::StorageSystem sys(fabric);
  Auditor a;
  audit::StorageProbe probe(a, [&] { return fabric.engine().now(); });
  probe.set_expected_size({0, 4000.0, "f"});

  const storage::StorageService& bb = *sys.burst_buffer();
  probe.on_replica_created(bb, {0, 3999.0, "f"});  // one byte went missing
  EXPECT_EQ(a.count(Code::kByteConservation), 1u);
  probe.on_replica_erased(bb, 0, 2000.0);  // released half of the file
  EXPECT_EQ(a.count(Code::kByteConservation), 2u);
  probe.on_replica_created(bb, {1, 1.0, "undeclared"});  // unknown files skipped
  EXPECT_EQ(a.count(Code::kByteConservation), 2u);
}

TEST(StorageProbe, LedgerDivergenceIsAllocationImbalance) {
  platform::Fabric fabric(probe_platform());
  storage::StorageSystem sys(fabric);
  Auditor a;
  audit::StorageProbe probe(a, [&] { return fabric.engine().now(); });

  const storage::StorageService& bb = *sys.burst_buffer();
  probe.on_occupancy_change(bb, 0, 100.0, 100.0);  // consistent
  probe.on_occupancy_change(bb, 1, 100.0, 300.0);  // service says 300, ledger 200
  EXPECT_EQ(a.count(Code::kAllocationImbalance), 1u);
  // The probe resynchronises: a consistent follow-up adds no violation.
  probe.on_occupancy_change(bb, 2, 50.0, 350.0);
  EXPECT_EQ(a.count(Code::kAllocationImbalance), 1u);
}

TEST(StorageProbe, FinalImbalanceIsReportedPostRun) {
  Auditor a;
  audit::StorageProbe probe(a, [] { return 0.0; });
  obs::Sinks sinks;
  sinks.storage_observer = &probe;
  platform::Fabric fabric(probe_platform(), sinks);
  storage::StorageSystem sys(fabric);

  // A write still in flight has reserved 100 bytes that are no replica yet:
  // at finalize() they read as a leaked reservation.
  sys.burst_buffer()->write({0, 100.0, "leak"}, 0, nullptr);
  probe.finalize();
  EXPECT_GE(a.count(Code::kAllocationImbalance), 1u);
}

// ----------------------------------------------------- max-min certificate

TEST(FlowAudit, ConvergedSolveIsCertifiedFair) {
  flow::Network net;
  const flow::ResourceId r = net.add_resource("disk", 100.0);
  net.add_flow({1e9, {r}, flow::kUnlimited, 1.0});
  net.add_flow({1e9, {r}, flow::kUnlimited, 1.0});
  net.solve();
  Auditor a;
  audit::audit_flow_network(a, net, 1.0);
  EXPECT_TRUE(a.clean()) << a.to_json().dump(2);
}

TEST(FlowAudit, StaleAllocationOverShrunkCapacityIsOverCapacity) {
  flow::Network net;
  const flow::ResourceId r = net.add_resource("disk", 100.0);
  net.add_flow({1e9, {r}, flow::kUnlimited, 1.0});
  net.add_flow({1e9, {r}, flow::kUnlimited, 1.0});
  net.solve();  // 50 + 50
  net.set_capacity(r, 60.0);  // stale rates now sum over capacity
  Auditor a;
  audit::audit_flow_network(a, net, 2.0);
  EXPECT_EQ(a.count(Code::kFlowOverCapacity), 1u);
}

TEST(FlowAudit, StaleAllocationUnderGrownCapacityIsNotMaxMin) {
  flow::Network net;
  const flow::ResourceId r = net.add_resource("disk", 100.0);
  net.add_flow({1e9, {r}, flow::kUnlimited, 1.0});
  net.add_flow({1e9, {r}, flow::kUnlimited, 1.0});
  net.solve();  // 50 + 50 saturates the disk
  net.set_capacity(r, 1000.0);  // nobody is saturated or capped any more
  Auditor a;
  audit::audit_flow_network(a, net, 3.0);
  EXPECT_GE(a.count(Code::kFlowNotMaxMin), 1u);
  EXPECT_EQ(a.count(Code::kFlowOverCapacity), 0u);
}

// The exact certificate: an allocation can be feasible and leave no slack
// on any flow's path and still be unfair. Each case below solves, then
// raises a side resource's capacity without re-solving, which leaves a
// saturated link split unfairly.

TEST(FlowAudit, UnfairSplitOfASaturatedLinkIsNotMaxMin) {
  // A 10 B/s link carries an uncapped flow and one that also crosses a
  // 1 B/s side link: the solve gives 9 and 1. At 100 B/s on the side link
  // the narrow flow could take from the wide one, so 9/1 is not fair.
  flow::Network net;
  const flow::ResourceId link = net.add_resource("link", 10.0);
  const flow::ResourceId side = net.add_resource("side", 1.0);
  const flow::FlowId wide = net.add_flow({1e9, {link}, flow::kUnlimited, 1.0});
  const flow::FlowId narrow = net.add_flow({1e9, {link, side}, flow::kUnlimited, 1.0});
  net.solve();
  ASSERT_DOUBLE_EQ(net.flow(wide).rate, 9.0);
  ASSERT_DOUBLE_EQ(net.flow(narrow).rate, 1.0);
  Auditor fair;
  audit::audit_flow_network(fair, net, 1.0);
  EXPECT_TRUE(fair.clean()) << fair.to_json().dump(2);

  net.set_capacity(side, 100.0);
  Auditor a;
  audit::audit_flow_network(a, net, 2.0);
  EXPECT_EQ(a.total(), 1u) << a.to_json().dump(2);
  ASSERT_EQ(a.count(Code::kFlowNotMaxMin), 1u);
  EXPECT_EQ(a.violations()[0].subject, "flow " + std::to_string(narrow));
}

TEST(FlowAudit, WeightedUnfairSplitIsNotMaxMin) {
  // Weights 2 (link and side) and 1 (link only). The 6 B/s side link
  // saturates first at 3 per unit of weight: 6 and 4. The heavy flow has
  // the larger rate but the smaller rate per weight, so once the side link
  // is raised it is the starved one.
  flow::Network net;
  const flow::ResourceId link = net.add_resource("link", 10.0);
  const flow::ResourceId side = net.add_resource("side", 6.0);
  const flow::FlowId heavy = net.add_flow({1e9, {link, side}, flow::kUnlimited, 2.0});
  const flow::FlowId light = net.add_flow({1e9, {link}, flow::kUnlimited, 1.0});
  net.solve();
  ASSERT_DOUBLE_EQ(net.flow(heavy).rate, 6.0);
  ASSERT_DOUBLE_EQ(net.flow(light).rate, 4.0);

  net.set_capacity(side, 100.0);
  Auditor a;
  audit::audit_flow_network(a, net, 1.0);
  EXPECT_EQ(a.total(), 1u) << a.to_json().dump(2);
  ASSERT_EQ(a.count(Code::kFlowNotMaxMin), 1u);
  EXPECT_EQ(a.violations()[0].subject, "flow " + std::to_string(heavy));

  // Re-solved, the link splits 2:1: unequal rates, equal rate per weight.
  net.solve();
  ASSERT_NEAR(net.flow(heavy).rate, 2.0 * net.flow(light).rate, 1e-9);
  Auditor fair;
  audit::audit_flow_network(fair, net, 2.0);
  EXPECT_TRUE(fair.clean()) << fair.to_json().dump(2);
}

TEST(FlowAudit, CappedFlowBesideAnUnfairPairIsNotReported) {
  // A flow capped at 2 B/s shares a 12 B/s link with the 9/1 pair. It has
  // less than the wide flow too, but it is at its cap: only the starved
  // narrow flow is reported.
  flow::Network net;
  const flow::ResourceId link = net.add_resource("link", 12.0);
  const flow::ResourceId side = net.add_resource("side", 1.0);
  const flow::FlowId capped = net.add_flow({1e9, {link}, 2.0, 1.0});
  const flow::FlowId wide = net.add_flow({1e9, {link}, flow::kUnlimited, 1.0});
  const flow::FlowId narrow = net.add_flow({1e9, {link, side}, flow::kUnlimited, 1.0});
  net.solve();
  ASSERT_DOUBLE_EQ(net.flow(capped).rate, 2.0);
  ASSERT_DOUBLE_EQ(net.flow(wide).rate, 9.0);
  ASSERT_DOUBLE_EQ(net.flow(narrow).rate, 1.0);

  net.set_capacity(side, 100.0);
  Auditor a;
  audit::audit_flow_network(a, net, 1.0);
  EXPECT_EQ(a.total(), 1u) << a.to_json().dump(2);
  ASSERT_EQ(a.count(Code::kFlowNotMaxMin), 1u);
  EXPECT_EQ(a.violations()[0].subject, "flow " + std::to_string(narrow));
}

TEST(FlowAudit, SolveProbeChecksOnlyTheLastClosure) {
  // Two components: the 9/1 pair and a disk. After an incremental solve
  // that touched only the disk, an unfairness left in the other component
  // is outside the probe's scope; the whole-network audit still sees it.
  Auditor a;
  audit::SolveProbe probe(a, [] { return 5.0; });
  obs::Sinks sinks;
  sinks.solve_observer = &probe;
  flow::Network net(sinks);
  const flow::ResourceId link = net.add_resource("link", 10.0);
  const flow::ResourceId side = net.add_resource("side", 1.0);
  const flow::ResourceId disk = net.add_resource("disk", 5.0);
  net.add_flow({1e9, {link}, flow::kUnlimited, 1.0});
  net.add_flow({1e9, {link, side}, flow::kUnlimited, 1.0});
  net.add_flow({1e9, {disk}, flow::kUnlimited, 1.0});
  net.solve();  // the first solve covers everything
  net.add_flow({1e9, {disk}, flow::kUnlimited, 1.0});
  net.solve();  // closure: the disk and its two flows
  EXPECT_TRUE(a.clean()) << a.to_json().dump(2);

  net.set_capacity(side, 100.0);
  probe.on_solved(net, 0);  // stale 9/1 split, outside the last closure
  EXPECT_TRUE(a.clean()) << a.to_json().dump(2);
  Auditor whole;
  audit::audit_flow_network(whole, net, 5.0);
  EXPECT_EQ(whole.count(Code::kFlowNotMaxMin), 1u);

  net.solve();  // the side link is dirty: its component is re-solved, fair
  EXPECT_TRUE(a.clean()) << a.to_json().dump(2);
  Auditor after;
  audit::audit_flow_network(after, net, 5.0);
  EXPECT_TRUE(after.clean()) << after.to_json().dump(2);
}

TEST(FlowAudit, CleanAuditedSolvesAllocateNothing) {
  // Steady-state churn through the audit's SolveProbe: once the solver's
  // and the certificate's scratch has grown, a clean solve allocates
  // nothing.
  Auditor a;
  audit::SolveProbe probe(a, [] { return 0.0; });
  obs::Sinks sinks;
  sinks.solve_observer = &probe;
  flow::Network net(sinks);
  std::vector<flow::ResourceId> res;
  for (int i = 0; i < 16; ++i) res.push_back(net.add_resource("r" + std::to_string(i), 100.0 + i));
  const auto spec = [&res](int i) {
    return flow::FlowSpec{1e9,
                          {res[static_cast<std::size_t>(i % 16)],
                           res[static_cast<std::size_t>((i * 7 + 3) % 16)]},
                          i % 5 == 0 ? 7.0 : flow::kUnlimited,
                          1.0 + i % 3};
  };
  std::vector<flow::FlowId> ids;
  for (int i = 0; i < 200; ++i) ids.push_back(net.add_flow(spec(i)));
  std::size_t allocations = 0;
  for (int round = 0; round < 1000; ++round) {
    const auto k = static_cast<std::size_t>(round % 200);
    if (round % 3 == 0) {
      net.set_capacity(res[k % 16], 50.0 + round % 97);
    } else {
      net.remove_flow(ids[k]);
      ids[k] = net.add_flow(spec(static_cast<int>(k) + round));
    }
    const std::size_t before = g_allocations.load();
    net.solve();
    if (round >= 10) allocations += g_allocations.load() - before;  // after warm-up
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_TRUE(a.clean()) << a.to_json().dump(2);
}

TEST(FlowAudit, PostSolveHookFiresOnEverySolve) {
  struct CountingObserver final : flow::SolveObserver {
    int calls = 0;
    void on_solved(const flow::Network&, int) override { ++calls; }
  } counting;
  obs::Sinks sinks;
  sinks.solve_observer = &counting;
  flow::Network net(sinks);
  const flow::ResourceId r = net.add_resource("disk", 100.0);
  net.add_flow({1000.0, {r}, flow::kUnlimited, 1.0});
  net.solve();
  net.solve();
  EXPECT_EQ(counting.calls, 2);
}

TEST(FlowAudit, SolveProbeCertifiesAtTheSimulatedClock) {
  Auditor a;
  audit::SolveProbe probe(a, [] { return 4.0; });
  obs::Sinks sinks;
  sinks.solve_observer = &probe;
  flow::Network net(sinks);
  const flow::ResourceId r = net.add_resource("disk", 100.0);
  net.add_flow({1e9, {r}, flow::kUnlimited, 1.0});
  net.add_flow({1e9, {r}, flow::kUnlimited, 1.0});
  net.solve();  // certified through the bundle: a converged solve is fair
  EXPECT_TRUE(a.clean()) << a.to_json().dump(2);
  net.set_capacity(r, 60.0);  // stale rates now sum over capacity
  probe.on_solved(net, 0);
  ASSERT_EQ(a.count(Code::kFlowOverCapacity), 1u);
  EXPECT_EQ(a.violations()[0].time, 4.0);
}

// ------------------------------------------------------ post-run auditing

TEST(AuditResult, CorruptedRecordsTriggerSpecificCodes) {
  wf::SwarpConfig cfg;
  cfg.pipelines = 1;
  const wf::Workflow w = wf::make_swarp(cfg);
  platform::PresetOptions popt;
  popt.compute_nodes = 1;
  const platform::PlatformSpec plat = platform::cori_platform(popt);

  exec::Simulation sim(plat, w, {});
  exec::Result r = sim.run();
  {
    Auditor a;
    exec::audit_result(r, w, plat, a);
    EXPECT_TRUE(a.clean()) << a.to_json().dump(2);
  }
  // Break precedence: the first resample starts before the stage-in ends.
  exec::Result broken = r;
  for (auto& [name, rec] : broken.tasks) {
    if (rec.type == "resample") {
      rec.t_ready = rec.t_start = 0.0;
      break;
    }
  }
  {
    Auditor a;
    exec::audit_result(broken, w, plat, a);
    EXPECT_GE(a.count(Code::kPrecedence), 1u);
  }
  // Drop bytes: a task read less than its declared inputs.
  broken = r;
  for (auto& [name, rec] : broken.tasks) {
    if (rec.type == "resample") {
      rec.bytes_read -= 1000.0;
      break;
    }
  }
  {
    Auditor a;
    exec::audit_result(broken, w, plat, a);
    EXPECT_EQ(a.count(Code::kByteConservation), 1u);
  }
  // Oversubscribe: all tasks run concurrently on host 0, each wanting most
  // of its cores (records stay individually well-formed so the sweep-line
  // check is reached).
  broken = r;
  for (auto& [name, rec] : broken.tasks) {
    rec.t_ready = 0.0;
    rec.t_start = 1.0;
    rec.t_reads_done = 1.5;
    rec.t_compute_done = 1.5;
    rec.t_end = 2.0;
    rec.host = 0;
    rec.cores = plat.hosts[0].cores - 1;
  }
  broken.makespan = 2.0;
  {
    Auditor a;
    exec::audit_result(broken, w, plat, a);
    EXPECT_GE(a.count(Code::kCoreOversubscription), 1u);
  }
}

// --------------------------------------------------------- end to end

TEST(AuditEndToEnd, SwarpPipelinesRunClean) {
  wf::SwarpConfig wcfg;
  wcfg.pipelines = 2;
  platform::PresetOptions popt;
  popt.compute_nodes = 2;
  exec::ExecutionConfig cfg;
  cfg.audit = true;
  exec::Simulation sim(platform::cori_platform(popt), wf::make_swarp(wcfg), cfg);
  const exec::Result r = sim.run();
  ASSERT_FALSE(r.audit.is_null());
  EXPECT_EQ(r.audit_violations, 0u) << r.audit.dump(2);
  EXPECT_EQ(r.audit.at("schema").as_string(), "bbsim.audit.v1");
  EXPECT_TRUE(r.audit.at("clean").as_bool());
}

TEST(AuditEndToEnd, GenomesRunsClean) {
  wf::GenomesConfig wcfg;
  wcfg.chromosomes = 4;
  platform::PresetOptions popt;
  popt.compute_nodes = 2;
  exec::ExecutionConfig cfg;
  cfg.audit = true;
  cfg.stage_in_mode = exec::StageInMode::Instant;
  exec::Simulation sim(platform::cori_platform(popt), wf::make_1000genomes(wcfg), cfg);
  const exec::Result r = sim.run();
  ASSERT_FALSE(r.audit.is_null());
  EXPECT_EQ(r.audit_violations, 0u) << r.audit.dump(2);
}

TEST(AuditEndToEnd, EvictionAndStageOutRunClean) {
  // Stress the storage ledger: tiny striped BB forces demotions/evictions.
  wf::SwarpConfig wcfg;
  wcfg.pipelines = 2;
  platform::PresetOptions popt;
  popt.compute_nodes = 1;
  popt.bb_mode = platform::BBMode::Striped;
  platform::PlatformSpec plat = platform::cori_platform(popt);
  for (platform::StorageSpec& s : plat.storage) {
    if (s.kind != platform::StorageKind::PFS) s.disk.capacity = 2e9;
  }
  exec::ExecutionConfig cfg;
  cfg.audit = true;
  cfg.bb_eviction = true;
  cfg.stage_out = true;
  exec::Simulation sim(plat, wf::make_swarp(wcfg), cfg);
  const exec::Result r = sim.run();
  ASSERT_FALSE(r.audit.is_null());
  EXPECT_EQ(r.audit_violations, 0u) << r.audit.dump(2);
}

TEST(AuditEndToEnd, AuditOffLeavesResultNull) {
  exec::Simulation sim(platform::cori_platform({}), wf::make_swarp({}), {});
  const exec::Result r = sim.run();
  EXPECT_TRUE(r.audit.is_null());
  EXPECT_EQ(r.audit_violations, 0u);
}

TEST(AuditEndToEnd, MetricsExportAuditCounters) {
  exec::ExecutionConfig cfg;
  cfg.audit = true;
  cfg.collect_metrics = true;
  exec::Simulation sim(platform::cori_platform({}), wf::make_swarp({}), cfg);
  const exec::Result r = sim.run();
  ASSERT_FALSE(r.metrics.is_null());
  EXPECT_EQ(r.metrics.at("counters").at("audit.violations").as_number(), 0.0);
}

}  // namespace
}  // namespace bbsim
