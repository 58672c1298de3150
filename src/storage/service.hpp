// bbsim -- storage services: the objects workflow tasks read from / write to.
//
// A StorageService models one deployment from the platform spec (the PFS,
// Cori's shared DataWarp burst buffer in private or striped mode, or
// Summit's node-local NVMe). Each I/O operation is planned as:
//
//   fixed latency  ->  metadata ops (flow through the metadata resource)
//                  ->  one or more data sub-flows (max-min shared)
//
// The spec's kind and mode decide where a file lives, who may read it back,
// which resources its sub-flows cross and how many metadata ops it costs
// (paper Section III-A); everything else is shared by all three kinds.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "flow/network.hpp"
#include "platform/fabric.hpp"
#include "sim/engine.hpp"
#include "stats/metrics.hpp"

namespace bbsim::trace {
class TimelineRecorder;
}  // namespace bbsim::trace

namespace bbsim::storage {

/// A file as the storage layer sees it: a name and a size in bytes.
struct FileRef {
  std::string name;
  double size = 0.0;
};

/// Completion callback for asynchronous operations.
using Done = std::function<void()>;

/// Per-operation perturbation injected by the testbed emulator (interference
/// from competing jobs, metadata jitter). Identity by default.
struct IoPerturbation {
  double extra_latency = 0.0;    ///< seconds added to the fixed latency
  double rate_cap_scale = 1.0;   ///< multiplies the per-stream rate cap
};

/// host_idx is the initiating compute node; is_write distinguishes the
/// direction.
using PerturbFn =
    std::function<IoPerturbation(const FileRef&, bool is_write, std::size_t host_idx)>;

/// One data movement of an operation plan.
struct SubFlow {
  double volume = 0.0;
  std::vector<flow::ResourceId> path;
};

/// A fully planned operation, ready to execute on the fabric.
struct IoPlan {
  double latency = 0.0;        ///< fixed delay before any byte moves
  double metadata_ops = 0.0;   ///< ops pushed through metadata_res (0 = skip)
  flow::ResourceId metadata_res = 0;
  std::vector<SubFlow> data;
  double rate_cap = flow::kUnlimited;  ///< per sub-flow ceiling
  /// Timeline annotation for the plan's flows ("read f.fits pfs->host0").
  /// Empty unless the owning service has a timeline attached.
  std::string label;
};

/// An in-flight planned operation (latency event -> metadata flow -> data
/// sub-flows). Returned by every I/O entry point (read, write, transfer) so
/// the resilience layer can kill a crashed host's I/O mid-transfer. All
/// state is engine time; there is no threading.
class IoOp {
 public:
  /// Tear down whatever stage the operation is in: the pending latency
  /// event is cancelled, the metadata flow aborted, and every data sub-flow
  /// cancelled with its partial bytes settled into the flow ledger
  /// (flow::FlowManager::cancel). The completion callback never fires; the
  /// cancel hook (capacity-reservation rollback) fires exactly once.
  /// Returns total data bytes that actually moved (completed sub-flows plus
  /// settled partials). No-op returning moved() when already finished or
  /// cancelled.
  double cancel();

  bool finished() const { return finished_; }
  bool cancelled() const { return cancelled_; }
  /// Data bytes moved so far (full sub-flow volumes at completion; partial
  /// settled bytes after a cancel; not live-updated while flows run).
  double moved() const { return moved_; }

 private:
  friend std::shared_ptr<IoOp> execute_plan(platform::Fabric& fabric, IoPlan plan,
                                            Done done, Done on_cancel);
  void finish();

  platform::Fabric* fabric_ = nullptr;
  sim::EventId latency_event_ = 0;
  bool latency_pending_ = false;
  flow::FlowId meta_flow_ = 0;
  bool meta_pending_ = false;
  std::vector<flow::FlowId> data_flows_;
  std::size_t pending_ = 0;
  bool finished_ = false;
  bool cancelled_ = false;
  double moved_ = 0.0;
  Done done_;
  Done on_cancel_;
};

/// Shared handle: the op stays alive while its scheduled event / flow
/// callbacks reference it, so holders may drop the handle freely.
using IoHandle = std::shared_ptr<IoOp>;

/// Execute a plan on the fabric; `done` fires when every sub-flow finished.
/// The returned handle can cancel the operation mid-flight; `on_cancel`
/// (may be null) fires once if and only if it is cancelled before
/// completion -- services use it to roll back capacity reservations.
/// Dropping the handle is free: the op lives on in its own callbacks.
IoHandle execute_plan(platform::Fabric& fabric, IoPlan plan, Done done,
                      Done on_cancel = nullptr);

class StorageService;

/// Observer of a storage service's capacity accounting and replica
/// lifecycle, for invariant auditing (src/audit attaches one when auditing
/// is on). Callbacks fire inline; implementations must not mutate the
/// service.
class StorageObserver {
 public:
  virtual ~StorageObserver() = default;
  /// Occupancy changed by `delta` bytes (reservation or release);
  /// `used_after` is the service's own accounting after the change.
  virtual void on_occupancy_change(const StorageService& svc, const std::string& file,
                                   double delta, double used_after) = 0;
  /// A replica became visible (instant registration, write completion or
  /// fused-transfer completion).
  virtual void on_replica_created(const StorageService& svc, const FileRef& file) = 0;
  /// A replica was dropped, releasing `size` bytes.
  virtual void on_replica_erased(const StorageService& svc, const std::string& file,
                                 double size) = 0;
};

/// One storage deployment of any kind; StorageSystem (system.hpp) builds
/// one per StorageSpec. The spec decides placement (placement_node),
/// readability (node_restricted), the sub-flow paths (route) and the
/// metadata cost (metadata_ops_per_file); the rest is common to all kinds.
class StorageService {
 public:
  /// Where a file's bytes live inside this service.
  struct Replica {
    double size = 0.0;
    int node = 0;                  ///< storage node index; -1 = striped over all
    std::size_t creator_host = 0;  ///< compute node that wrote the file
  };

  /// Attaches the instruments of `fabric.sinks()`: an occupancy time series
  /// + high-water gauge and a counter track (both
  /// `storage.<name>.occupancy_bytes`, sampled at every capacity change and
  /// once at construction), plan labels (IoPlan::label) when a timeline is
  /// attached, and the capacity/replica observer.
  StorageService(platform::Fabric& fabric, std::size_t storage_idx);
  StorageService(const StorageService&) = delete;
  StorageService& operator=(const StorageService&) = delete;

  const platform::StorageSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  platform::StorageKind kind() const { return spec_.kind; }
  std::size_t storage_index() const { return storage_idx_; }

  // ------------------------------------------------------------- replicas
  bool has_file(const std::string& file_name) const;
  /// nullptr when the file is not stored here.
  const Replica* replica(const std::string& file_name) const;
  /// Instantaneously place a file (initial dataset population at t=0).
  /// Throws ConfigError when capacity would be exceeded.
  void register_file(const FileRef& file, std::size_t host_idx);
  /// Drop a replica (no simulated cost; deletion is metadata-only here).
  void erase_file(const std::string& file_name);
  double used_bytes() const { return used_bytes_; }
  /// High-water mark of used_bytes() over the service's lifetime (includes
  /// in-flight write reservations). Available even when metrics are off;
  /// the batch layer reports it as per-job BB peak occupancy.
  double peak_used_bytes() const { return peak_used_bytes_; }
  /// Sum of all replica sizes. Equals used_bytes() whenever no write is in
  /// flight (writes reserve capacity before their replica appears); the
  /// auditor checks the two agree at end of run (allocation/release
  /// balance).
  double replica_bytes() const;
  std::size_t replica_count() const { return replicas_.size(); }
  /// Names of every file stored here, in name order. A snapshot: safe to
  /// erase_file() while iterating (the resil layer invalidates a crashed
  /// node's replicas this way).
  std::vector<std::string> file_names() const;
  /// Total capacity across storage nodes (kUnlimited for the PFS).
  double total_capacity() const;

  /// True when only the host that wrote a file may read it back: a
  /// node-local device or a private-mode namespace (paper Section III-A).
  bool node_restricted() const;
  /// May `host_idx` read this file from here?
  bool readable_from(const std::string& file_name, std::size_t host_idx) const;

  // ----------------------------------------------------------- operations
  // Both return a handle that can cancel the operation mid-flight: the
  // completion callback then never fires. Callers that never cancel may
  // drop it.

  /// Asynchronously read `file` into host `host_idx`. A cancelled read just
  /// stops its flows. Throws NotFoundError if absent, InvariantError if
  /// not readable.
  IoHandle read(const FileRef& file, std::size_t host_idx, Done done);

  /// Asynchronously write `file` from host `host_idx`; the replica becomes
  /// visible when `done` fires. Capacity is reserved up front; a cancelled
  /// write rolls the reservation back and no replica appears. Overwrites
  /// replace the previous replica.
  IoHandle write(const FileRef& file, std::size_t host_idx, Done done);

  // Plans exposed so StorageSystem can fuse read+write into one transfer.
  IoPlan plan_read(const FileRef& file, std::size_t host_idx) const;
  IoPlan plan_write(const FileRef& file, std::size_t host_idx) const;

  /// Install the testbed's interference hook (nullptr to clear).
  void set_perturbation(PerturbFn fn) { perturb_ = std::move(fn); }

  /// Bookkeeping for a write planned via plan_write() but executed
  /// externally (fused transfers): begin_external_write reserves capacity
  /// when the data starts moving; complete_external_write registers the
  /// replica when the last byte lands (without reserving again).
  void begin_external_write(const FileRef& file);
  void complete_external_write(const FileRef& file, std::size_t host_idx);
  /// Roll back a reservation made by begin_external_write()/write() whose
  /// data movement was cancelled before the replica appeared.
  /// Must mirror the reservation exactly: the same delta that was added
  /// (accounting for an overwritten pre-existing replica) is subtracted.
  void abort_write_reservation(const FileRef& file);

 private:
  platform::Fabric& fabric_;
  std::size_t storage_idx_;
  const platform::StorageSpec& spec_;
  std::map<std::string, Replica> replicas_;
  double used_bytes_ = 0.0;
  double peak_used_bytes_ = 0.0;
  PerturbFn perturb_;
  StorageObserver* observer_ = nullptr;
  stats::Gauge* occupancy_gauge_ = nullptr;
  stats::TimeSeries* occupancy_series_ = nullptr;
  trace::TimelineRecorder* timeline_ = nullptr;
  std::size_t occupancy_track_ = 0;

  /// A shared BB in striped mode: every file spans all storage nodes.
  bool striped() const;
  /// Storage node that holds a file written by `host_idx`: the name hash
  /// mod the node count on the PFS, the host mod the node count on a shared
  /// BB (-1 = all nodes when striped), the host's own device when node-local.
  int placement_node(const FileRef& file, std::size_t host_idx) const;
  /// The data sub-flows moving `size` bytes between storage node `node`
  /// (-1 = one equal share per node) and host `host_idx`: NIC, storage link,
  /// disk, in the direction of travel. Node-local I/O has no NIC hop.
  std::vector<SubFlow> route(int node, double size, std::size_t host_idx,
                             bool is_write) const;
  /// Metadata ops per file operation: one per stripe, otherwise one.
  double metadata_ops_per_file() const;

  /// Create/replace the replica record for `file` and notify the observer.
  void install_replica(const FileRef& file, std::size_t host_idx);

  void apply_perturbation(IoPlan& plan, const FileRef& file, bool is_write,
                          std::size_t host_idx) const;
  void reserve_capacity(const FileRef& file);
  /// Record `used_bytes_` into the occupancy sinks (no-op when none).
  void sample_occupancy();
};

}  // namespace bbsim::storage
