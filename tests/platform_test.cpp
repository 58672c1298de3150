// Unit tests for platform specs, presets, JSON round-trip, and the fabric.
#include <gtest/gtest.h>

#include "platform/fabric.hpp"
#include "platform/platform_json.hpp"
#include "platform/presets.hpp"
#include "util/error.hpp"

namespace bbsim::platform {
namespace {

TEST(Presets, CoriMatchesTableOne) {
  const PlatformSpec p = cori_platform();
  EXPECT_EQ(p.name, "cori");
  ASSERT_EQ(p.hosts.size(), 1u);
  EXPECT_EQ(p.hosts[0].cores, 32);
  EXPECT_DOUBLE_EQ(p.hosts[0].core_speed, 36.80e9);
  const StorageSpec& pfs = p.storage[p.find_kind(StorageKind::PFS)];
  EXPECT_DOUBLE_EQ(pfs.disk.read_bw, 100e6);
  EXPECT_DOUBLE_EQ(pfs.link.bandwidth, 1.0e9);
  const StorageSpec& bb = p.storage[p.find_kind(StorageKind::SharedBB)];
  EXPECT_DOUBLE_EQ(bb.disk.read_bw, 950e6);
  EXPECT_DOUBLE_EQ(bb.link.bandwidth, 800e6);
  EXPECT_EQ(bb.mode, BBMode::Private);
}

TEST(Presets, SummitMatchesTableOne) {
  const PlatformSpec p = summit_platform();
  EXPECT_EQ(p.hosts[0].cores, 42);
  EXPECT_DOUBLE_EQ(p.hosts[0].core_speed, 49.12e9);
  const StorageSpec& bb = p.storage[p.find_kind(StorageKind::NodeLocalBB)];
  EXPECT_DOUBLE_EQ(bb.disk.read_bw, 3.3e9);
  EXPECT_DOUBLE_EQ(bb.link.bandwidth, 6.5e9);
  const StorageSpec& pfs = p.storage[p.find_kind(StorageKind::PFS)];
  EXPECT_DOUBLE_EQ(pfs.link.bandwidth, 2.1e9);
}

TEST(Presets, MultiNodeExpansion) {
  PresetOptions opt;
  opt.compute_nodes = 4;
  const PlatformSpec p = summit_platform(opt);
  EXPECT_EQ(p.hosts.size(), 4u);
  // Node-local BB: one device per host.
  const StorageSpec& bb = p.storage[p.find_kind(StorageKind::NodeLocalBB)];
  EXPECT_EQ(bb.num_nodes, 4);
  EXPECT_EQ(p.total_cores(), 4 * 42);
}

TEST(Presets, StripedModeOption) {
  PresetOptions opt;
  opt.bb_mode = BBMode::Striped;
  opt.bb_nodes = 4;
  const PlatformSpec p = cori_platform(opt);
  const StorageSpec& bb = p.storage[p.find_kind(StorageKind::SharedBB)];
  EXPECT_EQ(bb.mode, BBMode::Striped);
  EXPECT_EQ(bb.num_nodes, 4);
}

TEST(Spec, LookupsAndErrors) {
  const PlatformSpec p = cori_platform();
  EXPECT_EQ(p.host_index("cn000"), 0u);
  EXPECT_THROW(p.host_index("missing"), util::NotFoundError);
  EXPECT_EQ(p.storage_index("bb"), 1u);
  EXPECT_THROW(p.storage_index("missing"), util::NotFoundError);
  EXPECT_EQ(p.find_kind(StorageKind::NodeLocalBB), PlatformSpec::npos);
}

TEST(Spec, ValidationCatchesBadConfigs) {
  PlatformSpec p;
  p.name = "bad";
  EXPECT_THROW(p.validate_and_normalize(), util::ConfigError);  // no hosts

  p.hosts.push_back(HostSpec{"h", 0, 1e9, kUnlimited});
  EXPECT_THROW(p.validate_and_normalize(), util::ConfigError);  // zero cores

  p.hosts[0].cores = 4;
  p.hosts.push_back(HostSpec{"h", 2, 1e9, kUnlimited});
  EXPECT_THROW(p.validate_and_normalize(), util::ConfigError);  // dup name

  p.hosts.pop_back();
  StorageSpec s;
  s.name = "s";
  s.disk.read_bw = -1;
  p.storage.push_back(s);
  EXPECT_THROW(p.validate_and_normalize(), util::ConfigError);  // bad disk
}

TEST(Spec, NodeLocalNormalisedToHostCount) {
  PlatformSpec p;
  p.name = "x";
  p.hosts = {HostSpec{"a", 2, 1e9, kUnlimited}, HostSpec{"b", 2, 1e9, kUnlimited}};
  StorageSpec s;
  s.name = "bb";
  s.kind = StorageKind::NodeLocalBB;
  s.num_nodes = 1;  // wrong on purpose
  p.storage.push_back(s);
  p.validate_and_normalize();
  EXPECT_EQ(p.storage[0].num_nodes, 2);
}

TEST(Json, ParsesUnitStringsAndCounts) {
  const auto doc = json::parse(R"({
    "name": "mini",
    "hosts": [{"name": "cn", "count": 3, "cores": 8,
               "core_speed": "36.8 Gf", "nic_bw": "10 GB/s"}],
    "storage": [
      {"name": "pfs", "kind": "pfs",
       "disk": {"read_bw": "100 MB/s", "write_bw": "100 MB/s"},
       "link": {"bandwidth": "1 GB/s", "latency_ms": 0.5}},
      {"name": "bb", "kind": "shared_bb", "mode": "striped", "num_nodes": 2,
       "disk": {"read_bw": "950 MB/s", "write_bw": "950 MB/s",
                "capacity": "6.4 TB"},
       "link": {"bandwidth": "800 MB/s", "latency_ms": 0.25}}
    ]})");
  const PlatformSpec p = from_json(doc);
  ASSERT_EQ(p.hosts.size(), 3u);
  EXPECT_EQ(p.hosts[1].name, "cn001");
  EXPECT_DOUBLE_EQ(p.hosts[0].core_speed, 36.8e9);
  EXPECT_DOUBLE_EQ(p.hosts[0].nic_bw, 10e9);
  const StorageSpec& bb = p.storage[1];
  EXPECT_DOUBLE_EQ(bb.disk.capacity, 6.4e12);
  EXPECT_DOUBLE_EQ(bb.link.latency, 0.25e-3);
  EXPECT_EQ(bb.mode, BBMode::Striped);
}

TEST(Json, MissingHostsRejected) {
  EXPECT_THROW(from_json(json::parse(R"({"name": "x"})")), util::ParseError);
}

TEST(Fabric, CreatesAllResources) {
  PresetOptions opt;
  opt.compute_nodes = 2;
  opt.bb_nodes = 3;
  Fabric fabric(cori_platform(opt));
  // Hosts: 2 * (nic_up + nic_down) = 4; storage: pfs (4 + meta) and
  // bb 3 nodes * 4 + meta.
  EXPECT_EQ(fabric.flows().network().resource_count(), 4u + 5u + 13u);
  const StorageResources& bb = fabric.storage_resources(1);
  EXPECT_EQ(bb.disk_read.size(), 3u);
  EXPECT_EQ(bb.link_up.size(), 3u);
  const HostResources& h1 = fabric.host_resources(1);
  EXPECT_NE(h1.nic_up, h1.nic_down);
}

TEST(Fabric, ResourceCapacitiesMatchSpec) {
  Fabric fabric(cori_platform());
  const StorageResources& bb = fabric.storage_resources(1);
  EXPECT_DOUBLE_EQ(fabric.flows().network().resource(bb.disk_read[0]).capacity, 950e6);
  EXPECT_DOUBLE_EQ(fabric.flows().network().resource(bb.link_down[0]).capacity, 800e6);
}

TEST(Fabric, ScaleStorageCapacity) {
  Fabric fabric(cori_platform());
  const StorageResources& bb = fabric.storage_resources(1);
  fabric.scale_storage_capacity(1, 0.5);
  EXPECT_DOUBLE_EQ(fabric.flows().network().resource(bb.disk_read[0]).capacity, 475e6);
  // Back to nominal.
  fabric.scale_storage_capacity(1, 1.0);
  EXPECT_DOUBLE_EQ(fabric.flows().network().resource(bb.disk_read[0]).capacity, 950e6);
  EXPECT_THROW(fabric.scale_storage_capacity(1, 0.0), util::InvariantError);
}

TEST(Fabric, OutOfRangeLookupsThrow) {
  Fabric fabric(cori_platform());
  EXPECT_THROW(fabric.host_resources(5), util::NotFoundError);
  EXPECT_THROW(fabric.storage_resources(5), util::NotFoundError);
}

}  // namespace
}  // namespace bbsim::platform
