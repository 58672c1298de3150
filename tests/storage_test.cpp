// Unit tests for storage services: routing, modes, latency, capacity,
// transfers, and timing against hand-computed expectations.
#include <gtest/gtest.h>

#include "platform/presets.hpp"
#include "storage/system.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace bbsim::storage {
namespace {

using platform::BBMode;
using platform::Fabric;
using platform::PlatformSpec;
using platform::PresetOptions;
using platform::StorageKind;

/// Keys of the test files (exec keys a workflow file by its FileId); the
/// names only label plans and errors, and place files on the PFS.
enum Key : FileKey { kF, kG, kOut, kA, kB, kBig, kMore, kF0, kF1, kGhost };

/// A tiny deterministic platform where timing is easy to compute by hand:
/// PFS disk 100 B/s, PFS link 1000 B/s, BB disk 950 B/s, BB link 800 B/s,
/// all latencies zero.
PlatformSpec tiny_platform(StorageKind bb_kind, BBMode mode = BBMode::Private,
                           int bb_nodes = 1, int hosts = 1) {
  PlatformSpec p;
  p.name = "tiny";
  for (int i = 0; i < hosts; ++i) {
    p.hosts.push_back({"h" + std::to_string(i), 4, 1e9, platform::kUnlimited});
  }
  platform::StorageSpec pfs;
  pfs.name = "pfs";
  pfs.kind = StorageKind::PFS;
  pfs.disk = {100.0, 100.0, platform::kUnlimited};
  pfs.link = {1000.0, 0.0};
  p.storage.push_back(pfs);
  platform::StorageSpec bb;
  bb.name = "bb";
  bb.kind = bb_kind;
  bb.mode = mode;
  bb.num_nodes = bb_nodes;
  bb.disk = {950.0, 950.0, 10000.0};
  bb.link = {800.0, 0.0};
  p.storage.push_back(bb);
  p.validate_and_normalize();
  return p;
}

TEST(PfsServiceTest, ReadTimeIsBottleneckBandwidth) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB));
  StorageSystem sys(fabric);
  sys.pfs().register_file({kF, 1000.0, "f"}, 0);
  double done = -1;
  sys.pfs().read({kF, 1000.0, "f"}, 0, [&] { done = fabric.engine().now(); });
  fabric.engine().run();
  EXPECT_DOUBLE_EQ(done, 10.0);  // 1000 B / min(100 disk, 1000 link)
}

TEST(PfsServiceTest, WriteRegistersReplicaOnCompletion) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB));
  StorageSystem sys(fabric);
  bool during = true;
  sys.pfs().write({kOut, 500.0, "out"}, 0, [&] { during = sys.pfs().has_file(kOut); });
  EXPECT_FALSE(sys.pfs().has_file(kOut));  // not visible until done
  fabric.engine().run();
  EXPECT_TRUE(during);
  EXPECT_DOUBLE_EQ(sys.pfs().used_bytes(), 500.0);
}

TEST(PfsServiceTest, MissingFileReadThrows) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB));
  StorageSystem sys(fabric);
  EXPECT_THROW(sys.pfs().read({kGhost, 1.0, "ghost"}, 0, nullptr), util::NotFoundError);
}

TEST(PfsServiceTest, ConcurrentReadsShareDisk) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB));
  StorageSystem sys(fabric);
  sys.pfs().register_file({kA, 1000.0, "a"}, 0);
  sys.pfs().register_file({kB, 1000.0, "b"}, 0);
  double ta = -1, tb = -1;
  sys.pfs().read({kA, 1000.0, "a"}, 0, [&] { ta = fabric.engine().now(); });
  sys.pfs().read({kB, 1000.0, "b"}, 0, [&] { tb = fabric.engine().now(); });
  fabric.engine().run();
  EXPECT_DOUBLE_EQ(ta, 20.0);  // two flows share 100 B/s
  EXPECT_DOUBLE_EQ(tb, 20.0);
}

TEST(SharedBBTest, PrivateModeRestrictsReader) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB, BBMode::Private, 1, 2));
  StorageSystem sys(fabric);
  StorageService* bb = sys.burst_buffer();
  ASSERT_NE(bb, nullptr);
  bb->register_file({kF, 100.0, "f"}, /*host=*/0);
  EXPECT_TRUE(bb->readable_from(kF, 0));
  EXPECT_FALSE(bb->readable_from(kF, 1));
  EXPECT_THROW(bb->read({kF, 100.0, "f"}, 1, nullptr), util::InvariantError);
}

TEST(SharedBBTest, StripedModeReadableFromAnyHost) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB, BBMode::Striped, 2, 2));
  StorageSystem sys(fabric);
  StorageService* bb = sys.burst_buffer();
  bb->register_file({kF, 100.0, "f"}, 0);
  EXPECT_TRUE(bb->readable_from(kF, 0));
  EXPECT_TRUE(bb->readable_from(kF, 1));
  EXPECT_EQ(bb->replica(kF)->node, -1);  // striped marker
}

TEST(SharedBBTest, StripedReadTimeUsesAllNodes) {
  // 2 BB nodes, each disk 950 / link 800: a striped 1600-byte file moves as
  // two 800-byte sub-flows in parallel -> 1 second on the links.
  Fabric fabric(tiny_platform(StorageKind::SharedBB, BBMode::Striped, 2));
  StorageSystem sys(fabric);
  StorageService* bb = sys.burst_buffer();
  bb->register_file({kF, 1600.0, "f"}, 0);
  double done = -1;
  bb->read({kF, 1600.0, "f"}, 0, [&] { done = fabric.engine().now(); });
  fabric.engine().run();
  EXPECT_DOUBLE_EQ(done, 1.0);
}

TEST(SharedBBTest, PrivateModePinsToOneNode) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB, BBMode::Private, 2, 2));
  StorageSystem sys(fabric);
  StorageService* bb = sys.burst_buffer();
  bb->register_file({kF0, 10.0, "f0"}, 0);
  bb->register_file({kF1, 10.0, "f1"}, 1);
  EXPECT_EQ(bb->replica(kF0)->node, 0);
  EXPECT_EQ(bb->replica(kF1)->node, 1);
}

TEST(SharedBBTest, CapacityEnforced) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB));  // 10000 bytes capacity
  StorageSystem sys(fabric);
  StorageService* bb = sys.burst_buffer();
  bb->register_file({kBig, 9000.0, "big"}, 0);
  EXPECT_THROW(bb->register_file({kMore, 2000.0, "more"}, 0), util::ConfigError);
  // Overwriting the same file does not double-count.
  bb->register_file({kBig, 9500.0, "big"}, 0);
  EXPECT_DOUBLE_EQ(bb->used_bytes(), 9500.0);
  bb->erase_file(kBig);
  EXPECT_DOUBLE_EQ(bb->used_bytes(), 0.0);
}

TEST(NodeLocalBBTest, OnlyHolderHostReads) {
  Fabric fabric(tiny_platform(StorageKind::NodeLocalBB, BBMode::Private, 1, 2));
  StorageSystem sys(fabric);
  StorageService* bb = sys.burst_buffer();
  bb->register_file({kF, 100.0, "f"}, 1);
  EXPECT_FALSE(bb->readable_from(kF, 0));
  EXPECT_TRUE(bb->readable_from(kF, 1));
  EXPECT_EQ(bb->replica(kF)->node, 1);  // the holder's own device
  EXPECT_EQ(bb->replica(kGhost), nullptr);
}

TEST(NodeLocalBBTest, LocalReadTimeUsesDeviceOnly) {
  Fabric fabric(tiny_platform(StorageKind::NodeLocalBB));
  StorageSystem sys(fabric);
  StorageService* bb = sys.burst_buffer();
  bb->register_file({kF, 1600.0, "f"}, 0);
  double done = -1;
  bb->read({kF, 1600.0, "f"}, 0, [&] { done = fabric.engine().now(); });
  fabric.engine().run();
  EXPECT_DOUBLE_EQ(done, 2.0);  // 1600 / min(950 disk, 800 iface)
}

// ------------------------------------------------------ I/O plan shapes

/// One planned sub-flow by resource name, so a wrong hop fails even where
/// the resource is unlimited (the test hosts' NICs are) and timing is blind.
struct NamedSubFlow {
  double volume = 0.0;
  std::vector<std::string> path;
  bool operator==(const NamedSubFlow&) const = default;
};

void PrintTo(const NamedSubFlow& sf, std::ostream* os) {
  *os << sf.volume << " B via " << util::join(sf.path, " -> ");
}

std::vector<NamedSubFlow> named(Fabric& fabric, const IoPlan& plan) {
  std::vector<NamedSubFlow> out;
  for (const SubFlow& sf : plan.data) {
    NamedSubFlow n{sf.volume, {}};
    for (const flow::ResourceId r : sf.path) {
      n.path.push_back(fabric.flows().network().resource(r).name);
    }
    out.push_back(std::move(n));
  }
  return out;
}

TEST(IoPlanTest, EveryKindPinsPathsVolumesAndMetadataOps) {
  // 2 hosts; every plan is made for host 1, so node choices that ignore the
  // host (or swap read and write paths) show.
  struct Case {
    const char* what;
    StorageKind bb_kind;
    BBMode mode;
    int bb_nodes;
    const char* service;
    double metadata_ops;
    std::vector<NamedSubFlow> read;
    std::vector<NamedSubFlow> write;
  };
  const std::vector<Case> cases = {
      {"pfs", StorageKind::SharedBB, BBMode::Private, 2, "pfs", 1.0,
       {{1000.0, {"pfs[0].disk_read", "pfs[0].link_down", "h1.nic_down"}}},
       {{1000.0, {"h1.nic_up", "pfs[0].link_up", "pfs[0].disk_write"}}}},
      {"private shared bb", StorageKind::SharedBB, BBMode::Private, 2, "bb", 1.0,
       {{1000.0, {"bb[1].disk_read", "bb[1].link_down", "h1.nic_down"}}},
       {{1000.0, {"h1.nic_up", "bb[1].link_up", "bb[1].disk_write"}}}},
      {"striped shared bb", StorageKind::SharedBB, BBMode::Striped, 2, "bb", 2.0,
       {{500.0, {"bb[0].disk_read", "bb[0].link_down", "h1.nic_down"}},
        {500.0, {"bb[1].disk_read", "bb[1].link_down", "h1.nic_down"}}},
       {{500.0, {"h1.nic_up", "bb[0].link_up", "bb[0].disk_write"}},
        {500.0, {"h1.nic_up", "bb[1].link_up", "bb[1].disk_write"}}}},
      {"node-local bb", StorageKind::NodeLocalBB, BBMode::Private, 2, "bb", 1.0,
       {{1000.0, {"bb[1].disk_read", "bb[1].link_down"}}},
       {{1000.0, {"bb[1].link_up", "bb[1].disk_write"}}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    Fabric fabric(tiny_platform(c.bb_kind, c.mode, c.bb_nodes, /*hosts=*/2));
    StorageSystem sys(fabric);
    StorageService& svc = sys.service(c.service);
    svc.register_file({kF, 1000.0, "f"}, 1);
    const IoPlan read = svc.plan_read({kF, 1000.0, "f"}, 1);
    const IoPlan write = svc.plan_write({kG, 1000.0, "g"}, 1);
    EXPECT_EQ(named(fabric, read), c.read);
    EXPECT_EQ(named(fabric, write), c.write);
    EXPECT_DOUBLE_EQ(read.metadata_ops, c.metadata_ops);
    EXPECT_DOUBLE_EQ(write.metadata_ops, c.metadata_ops);
  }
}

TEST(ServiceTest, LatencyDelaysData) {
  PlatformSpec p = tiny_platform(StorageKind::SharedBB);
  p.storage[0].link.latency = 0.5;
  p.storage[0].base_latency = 0.25;
  Fabric fabric(std::move(p));
  StorageSystem sys(fabric);
  sys.pfs().register_file({kF, 100.0, "f"}, 0);
  double done = -1;
  sys.pfs().read({kF, 100.0, "f"}, 0, [&] { done = fabric.engine().now(); });
  fabric.engine().run();
  EXPECT_DOUBLE_EQ(done, 0.75 + 1.0);  // latency + 100 B at 100 B/s
}

TEST(ServiceTest, StreamCapLimitsSingleFlow) {
  PlatformSpec p = tiny_platform(StorageKind::SharedBB);
  p.storage[0].stream_bw = 10.0;
  Fabric fabric(std::move(p));
  StorageSystem sys(fabric);
  sys.pfs().register_file({kF, 100.0, "f"}, 0);
  double done = -1;
  sys.pfs().read({kF, 100.0, "f"}, 0, [&] { done = fabric.engine().now(); });
  fabric.engine().run();
  EXPECT_DOUBLE_EQ(done, 10.0);  // capped at 10 B/s despite 100 B/s disk
}

TEST(ServiceTest, MetadataServerSerialisesOps) {
  PlatformSpec p = tiny_platform(StorageKind::SharedBB);
  p.storage[0].metadata_ops_per_sec = 2.0;  // 0.5 s per exclusive op
  Fabric fabric(std::move(p));
  StorageSystem sys(fabric);
  sys.pfs().register_file({kF, 100.0, "f"}, 0);
  double done = -1;
  sys.pfs().read({kF, 100.0, "f"}, 0, [&] { done = fabric.engine().now(); });
  fabric.engine().run();
  EXPECT_DOUBLE_EQ(done, 0.5 + 1.0);  // metadata op then data
}

TEST(ServiceTest, PerturbationHookAddsLatencyAndScalesCap) {
  PlatformSpec p = tiny_platform(StorageKind::SharedBB);
  p.storage[0].stream_bw = 100.0;
  Fabric fabric(std::move(p));
  StorageSystem sys(fabric);
  sys.pfs().set_perturbation([](bool, std::size_t) {
    return IoPerturbation{2.0, 0.5};  // +2 s latency, cap halved to 50 B/s
  });
  sys.pfs().register_file({kF, 100.0, "f"}, 0);
  double done = -1;
  sys.pfs().read({kF, 100.0, "f"}, 0, [&] { done = fabric.engine().now(); });
  fabric.engine().run();
  EXPECT_DOUBLE_EQ(done, 2.0 + 2.0);  // 2 s latency + 100 B at 50 B/s
}

TEST(SystemTest, BestSourcePrefersReadableBB) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB, BBMode::Private, 1, 2));
  StorageSystem sys(fabric);
  sys.pfs().register_file({kF, 10.0, "f"}, 0);
  sys.burst_buffer()->register_file({kF, 10.0, "f"}, 0);
  EXPECT_EQ(sys.best_source(kF, 0), sys.burst_buffer());
  EXPECT_EQ(sys.best_source(kF, 1), &sys.pfs());  // private replica hidden
  EXPECT_EQ(sys.best_source(kGhost, 0), nullptr);
}

TEST(SystemTest, HasFileSeesEveryHolder) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB));
  StorageSystem sys(fabric);
  EXPECT_FALSE(sys.has_file(kF));
  sys.pfs().register_file({kF, 10.0, "f"}, 0);
  EXPECT_TRUE(sys.has_file(kF));
  sys.burst_buffer()->register_file({kF, 10.0, "f"}, 0);
  sys.pfs().erase_file(kF);
  EXPECT_TRUE(sys.has_file(kF));  // the BB replica alone still counts
  sys.burst_buffer()->erase_file(kF);
  EXPECT_FALSE(sys.has_file(kF));
  EXPECT_FALSE(sys.has_file(kGhost));
}

TEST(SystemTest, TransferCoupledBottleneck) {
  // PFS -> BB copy of 1000 bytes: rate = min(100 pfs disk, ... , 800 bb link)
  // = 100 B/s -> 10 s.
  Fabric fabric(tiny_platform(StorageKind::SharedBB));
  StorageSystem sys(fabric);
  sys.pfs().register_file({kF, 1000.0, "f"}, 0);
  double done = -1;
  sys.transfer({kF, 1000.0, "f"}, sys.pfs(), *sys.burst_buffer(), 0,
               [&] { done = fabric.engine().now(); });
  fabric.engine().run();
  EXPECT_DOUBLE_EQ(done, 10.0);
  EXPECT_TRUE(sys.burst_buffer()->has_file(kF));
  EXPECT_DOUBLE_EQ(sys.burst_buffer()->used_bytes(), 1000.0);
}

TEST(SystemTest, TransferToStripedSplitsAcrossNodes) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB, BBMode::Striped, 2));
  StorageSystem sys(fabric);
  sys.pfs().register_file({kF, 1000.0, "f"}, 0);
  double done = -1;
  sys.transfer({kF, 1000.0, "f"}, sys.pfs(), *sys.burst_buffer(), 0,
               [&] { done = fabric.engine().now(); });
  fabric.engine().run();
  // Both stripes share the PFS read path (100 B/s total) -> still 10 s.
  EXPECT_DOUBLE_EQ(done, 10.0);
  EXPECT_EQ(sys.burst_buffer()->replica(kF)->node, -1);
}

TEST(SystemTest, ServiceLookupByName) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB));
  StorageSystem sys(fabric);
  EXPECT_EQ(&sys.service("pfs"), &sys.pfs());
  EXPECT_THROW(sys.service("nope"), util::NotFoundError);
  EXPECT_EQ(sys.service_count(), 2u);
}

TEST(SystemTest, WriteReservesCapacityUpFront) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB));  // BB capacity 10000
  StorageSystem sys(fabric);
  StorageService* bb = sys.burst_buffer();
  bb->write({kA, 6000.0, "a"}, 0, nullptr);
  // Second concurrent write would overflow: reservation catches it now.
  EXPECT_THROW(bb->write({kB, 6000.0, "b"}, 0, nullptr), util::ConfigError);
  fabric.engine().run();
  EXPECT_TRUE(bb->has_file(kA));
}

// ------------------------------------------------------- cancellable I/O

TEST(CancellableIo, CancelledWriteReleasesReservationAndReplicaNeverAppears) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB));
  StorageSystem sys(fabric);
  StorageService* bb = sys.burst_buffer();
  bool fired = false;
  const IoHandle op = bb->write({kOut, 6000.0, "out"}, 0, [&] { fired = true; });
  EXPECT_DOUBLE_EQ(bb->used_bytes(), 6000.0);  // reserved up front
  fabric.engine().schedule_at(1.0, [&] { op->cancel(); });
  fabric.engine().run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(op->cancelled());
  EXPECT_FALSE(bb->has_file(kOut));
  EXPECT_DOUBLE_EQ(bb->used_bytes(), 0.0);  // reservation rolled back
}

TEST(CancellableIo, CancelAfterCompletionIsNoOp) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB));
  StorageSystem sys(fabric);
  StorageService* bb = sys.burst_buffer();
  bool fired = false;
  const IoHandle op = bb->write({kOut, 800.0, "out"}, 0, [&] { fired = true; });
  fabric.engine().run();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(op->finished());
  EXPECT_DOUBLE_EQ(op->cancel(), 800.0);  // no-op: reports bytes moved
  EXPECT_TRUE(bb->has_file(kOut));       // replica survives
  EXPECT_DOUBLE_EQ(bb->used_bytes(), 800.0);
}

TEST(CancellableIo, CancelDuringLatencyWindowMovesNoBytes) {
  // The PFS read below spends its whole latency window before any byte
  // moves; cancelling inside it must move nothing and fire no callback.
  PlatformSpec p = tiny_platform(StorageKind::SharedBB);
  p.storage[0].base_latency = 5.0;
  Fabric fabric(p);
  StorageSystem sys(fabric);
  sys.pfs().register_file({kF, 1000.0, "f"}, 0);
  bool fired = false;
  const IoHandle op = sys.pfs().read({kF, 1000.0, "f"}, 0, [&] { fired = true; });
  fabric.engine().schedule_at(1.0, [&] { EXPECT_DOUBLE_EQ(op->cancel(), 0.0); });
  fabric.engine().run();
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(op->moved(), 0.0);
}

TEST(CancellableIo, CancelledReadSettlesPartialBytes) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB));
  StorageSystem sys(fabric);
  sys.pfs().register_file({kF, 1000.0, "f"}, 0);  // reads at 100 B/s
  bool fired = false;
  const IoHandle op = sys.pfs().read({kF, 1000.0, "f"}, 0, [&] { fired = true; });
  double moved = -1.0;
  fabric.engine().schedule_at(4.0, [&] { moved = op->cancel(); });
  fabric.engine().run();
  EXPECT_FALSE(fired);
  // ~4 s at 100 B/s (the metadata flow finishes effectively instantly on
  // the unlimited metadata resource, so the data flow spans the window).
  EXPECT_NEAR(moved, 400.0, 1.0);
}

TEST(CancellableIo, CancelledTransferRollsBackDestination) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB));
  StorageSystem sys(fabric);
  sys.pfs().register_file({kF, 1000.0, "f"}, 0);
  StorageService* bb = sys.burst_buffer();
  bool fired = false;
  const IoHandle op = sys.transfer({kF, 1000.0, "f"}, sys.pfs(), *bb, 0,
                                               [&] { fired = true; });
  EXPECT_DOUBLE_EQ(bb->used_bytes(), 1000.0);  // destination reservation
  fabric.engine().schedule_at(2.0, [&] { op->cancel(); });
  fabric.engine().run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(bb->has_file(kF));
  EXPECT_DOUBLE_EQ(bb->used_bytes(), 0.0);
  EXPECT_TRUE(sys.pfs().has_file(kF));  // source untouched
}

TEST(CancellableIo, CancelledOverwriteKeepsOldReplica) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB));
  StorageSystem sys(fabric);
  StorageService* bb = sys.burst_buffer();
  bb->register_file({kOut, 300.0, "out"}, 0);
  const IoHandle op = bb->write({kOut, 900.0, "out"}, 0, nullptr);
  // Overwrite reservation: delta = 900 - 300.
  EXPECT_DOUBLE_EQ(bb->used_bytes(), 900.0);
  fabric.engine().schedule_at(0.25, [&] { op->cancel(); });
  fabric.engine().run();
  ASSERT_TRUE(bb->has_file(kOut));
  EXPECT_DOUBLE_EQ(bb->replica(kOut)->size, 300.0);  // old replica survives
  EXPECT_DOUBLE_EQ(bb->used_bytes(), 300.0);
}

TEST(CancellableIo, DoubleCancelIsIdempotent) {
  Fabric fabric(tiny_platform(StorageKind::SharedBB));
  StorageSystem sys(fabric);
  StorageService* bb = sys.burst_buffer();
  const IoHandle op = bb->write({kOut, 6000.0, "out"}, 0, nullptr);
  fabric.engine().schedule_at(1.0, [&] {
    const double first = op->cancel();
    EXPECT_DOUBLE_EQ(op->cancel(), first);  // second cancel changes nothing
  });
  fabric.engine().run();
  EXPECT_DOUBLE_EQ(bb->used_bytes(), 0.0);  // reservation released once
}

}  // namespace
}  // namespace bbsim::storage
