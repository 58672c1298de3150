#include "storage/system.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bbsim::storage {

using platform::StorageKind;
using util::ConfigError;
using util::InvariantError;
using util::NotFoundError;

StorageSystem::StorageSystem(platform::Fabric& fabric) : fabric_(fabric) {
  const std::size_t count = fabric.spec().storage.size();
  services_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    services_.push_back(std::make_unique<StorageService>(fabric, i));
  }
}

StorageService& StorageSystem::service(const std::string& name) {
  for (auto& s : services_) {
    if (s->name() == name) return *s;
  }
  throw NotFoundError("storage service '" + name + "'");
}

StorageService& StorageSystem::pfs() {
  for (auto& s : services_) {
    if (s->kind() == StorageKind::PFS) return *s;
  }
  throw ConfigError("platform has no PFS service");
}

StorageService* StorageSystem::burst_buffer() {
  for (auto& s : services_) {
    if (s->kind() != StorageKind::PFS) return s.get();
  }
  return nullptr;
}

const StorageService* StorageSystem::burst_buffer() const {
  for (const auto& s : services_) {
    if (s->kind() != StorageKind::PFS) return s.get();
  }
  return nullptr;
}

bool StorageSystem::has_file(FileKey key) const {
  return std::any_of(services_.begin(), services_.end(),
                     [key](const auto& s) { return s->has_file(key); });
}

StorageService* StorageSystem::best_source(FileKey key, std::size_t host_idx) {
  StorageService* pfs_with_file = nullptr;
  for (auto& s : services_) {
    if (!s->has_file(key)) continue;
    if (s->kind() == StorageKind::PFS) {
      pfs_with_file = s.get();
    } else if (s->readable_from(key, host_idx)) {
      return s.get();  // a usable burst-buffer replica wins
    }
  }
  return pfs_with_file;
}

IoHandle StorageSystem::transfer(const FileRef& file, StorageService& from,
                                 StorageService& to, std::size_t via_host, Done done) {
  IoPlan read = from.plan_read(file, via_host);
  IoPlan write = to.plan_write(file, via_host);

  IoPlan fused;
  fused.latency = read.latency + write.latency + to.spec().stage_latency;
  fused.rate_cap = std::min(read.rate_cap, write.rate_cap);
  // Metadata: both services are touched; pay both op counts on the
  // destination's metadata server and the source's via a second plan would
  // over-complicate things -- the dominant cost is the destination (create).
  fused.metadata_ops = read.metadata_ops + write.metadata_ops;
  fused.metadata_res = write.metadata_res;

  const auto& r = read.data;
  const auto& w = write.data;
  if (r.empty() || w.empty()) {
    throw InvariantError("transfer of '" + std::string(file.name) + "': empty data plan");
  }
  auto concat = [](const std::vector<flow::ResourceId>& a,
                   const std::vector<flow::ResourceId>& b) {
    std::vector<flow::ResourceId> out = a;
    out.insert(out.end(), b.begin(), b.end());
    return out;
  };
  if (r.size() == 1) {
    // Single source, possibly striped destination: the source resources are
    // shared by every stripe sub-flow (volumes sum to the file size).
    for (const SubFlow& sf : w) {
      fused.data.push_back(SubFlow{sf.volume, concat(r[0].path, sf.path)});
    }
  } else if (w.size() == 1) {
    for (const SubFlow& sf : r) {
      fused.data.push_back(SubFlow{sf.volume, concat(sf.path, w[0].path)});
    }
  } else if (r.size() == w.size()) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      fused.data.push_back(SubFlow{w[i].volume, concat(r[i].path, w[i].path)});
    }
  } else {
    throw InvariantError("transfer of '" + std::string(file.name) +
                         "': incompatible striping (" + std::to_string(r.size()) + " vs " +
                         std::to_string(w.size()) + " sub-flows)");
  }

  if (!read.label.empty()) {  // labelling on: annotate the fused copy
    fused.label =
        "transfer " + std::string(file.name) + " " + from.name() + "->" + to.name();
  }
  return to.run_write(file, via_host, std::move(fused), std::move(done));
}

void StorageSystem::set_perturbation(const PerturbFn& fn) {
  for (auto& s : services_) s->set_perturbation(fn);
}

}  // namespace bbsim::storage
