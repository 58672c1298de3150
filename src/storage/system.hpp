// bbsim -- StorageSystem: the storage services of a platform, lookups
// across them (replicas_of, best_source) and fused transfers (stage-in,
// stage-out).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "storage/service.hpp"

namespace bbsim::storage {

class StorageSystem {
 public:
  /// Builds one StorageService per StorageSpec in the fabric's platform, in
  /// declaration order; each attaches the fabric's observer bundle
  /// (Fabric::sinks()).
  explicit StorageSystem(platform::Fabric& fabric);
  StorageSystem(const StorageSystem&) = delete;
  StorageSystem& operator=(const StorageSystem&) = delete;

  platform::Fabric& fabric() { return fabric_; }

  std::size_t service_count() const { return services_.size(); }
  StorageService& service(std::size_t idx) { return *services_.at(idx); }
  const StorageService& service(std::size_t idx) const { return *services_.at(idx); }
  StorageService& service(const std::string& name);

  /// The platform's PFS (throws ConfigError if the platform has none).
  StorageService& pfs();
  /// The platform's burst buffer, or nullptr when the platform has none.
  StorageService* burst_buffer();
  const StorageService* burst_buffer() const;

  /// Services currently holding `file_name`, in platform declaration order.
  std::vector<StorageService*> replicas_of(const std::string& file_name);

  /// Best service for `host_idx` to read `file_name` from: a readable
  /// burst-buffer replica if one exists, otherwise the PFS replica.
  /// Returns nullptr when no readable replica exists anywhere.
  StorageService* best_source(const std::string& file_name, std::size_t host_idx);

  /// Fused copy: read from `from` and write to `to` as one coupled flow
  /// (the data stream is throttled by the slowest of the two paths, like a
  /// `cp` from PFS into the BB mount). `via_host` is the compute node
  /// driving the copy. The destination replica appears on completion. The
  /// returned handle can cancel the copy mid-flight: the destination's
  /// capacity reservation is rolled back, no destination replica appears,
  /// and `done` never fires.
  IoHandle transfer(const FileRef& file, StorageService& from, StorageService& to,
                    std::size_t via_host, Done done);

  /// Install the same perturbation hook on every service (testbed).
  void set_perturbation(const PerturbFn& fn);

 private:
  platform::Fabric& fabric_;
  std::vector<std::unique_ptr<StorageService>> services_;
};

}  // namespace bbsim::storage
