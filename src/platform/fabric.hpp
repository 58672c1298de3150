// bbsim -- Fabric: a live instance of a platform.
//
// Fabric owns the event engine and the flow manager, and materialises every
// capacity in the PlatformSpec as a flow resource:
//   - per host: NIC up / NIC down
//   - per storage node: disk read channel, disk write channel,
//                       link up (to storage), link down (from storage)
//   - per storage service: one metadata resource (ops/second)
//
// Storage services (src/storage) compose these ids into operation paths.
//
// The fabric is also where a run's observer bundle (obs/sinks.hpp) enters
// the stack: it attaches the bundle to its engine and flow manager, and the
// storage services built on the fabric read it from sinks().
#pragma once

#include <memory>
#include <vector>

#include "flow/manager.hpp"
#include "obs/sinks.hpp"
#include "platform/spec.hpp"
#include "sim/engine.hpp"

namespace bbsim::platform {

/// Flow-resource handles for one storage service.
struct StorageResources {
  std::vector<flow::ResourceId> disk_read;   ///< one per storage node
  std::vector<flow::ResourceId> disk_write;  ///< one per storage node
  std::vector<flow::ResourceId> link_up;     ///< host/fabric -> storage node
  std::vector<flow::ResourceId> link_down;   ///< storage node -> host/fabric
  flow::ResourceId metadata = 0;             ///< ops/second server
};

/// Flow-resource handles for one compute host.
struct HostResources {
  flow::ResourceId nic_up = 0;
  flow::ResourceId nic_down = 0;
};

class Fabric {
 public:
  /// Validates the spec and builds all resources at time zero. With a
  /// metrics registry or a timeline in `sinks`, each storage service's disk
  /// read + write channels also form one achieved-bandwidth group (the
  /// time-resolved Figure 9 signal, see FlowManager).
  explicit Fabric(PlatformSpec spec, const obs::Sinks& sinks = {});
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  sim::Engine& engine() { return engine_; }
  flow::FlowManager& flows() { return flows_; }
  const PlatformSpec& spec() const { return spec_; }
  /// The observer bundle this fabric's stack publishes into.
  const obs::Sinks& sinks() const { return sinks_; }

  const HostResources& host_resources(std::size_t host_idx) const;
  const StorageResources& storage_resources(std::size_t storage_idx) const;

  /// Uniform interference hook: scale one storage service's link and disk
  /// capacities by `factor` (1.0 = nominal). Used by the testbed to model
  /// background load from other jobs on shared resources.
  void scale_storage_capacity(std::size_t storage_idx, double factor);

 private:
  PlatformSpec spec_;
  obs::Sinks sinks_;
  sim::Engine engine_;
  flow::FlowManager flows_;
  std::vector<HostResources> host_res_;
  std::vector<StorageResources> storage_res_;
};

}  // namespace bbsim::platform
