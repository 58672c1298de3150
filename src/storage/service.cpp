#include "storage/service.hpp"

#include <functional>
#include <memory>

#include "trace/timeline.hpp"
#include "util/error.hpp"

namespace bbsim::storage {

using util::ConfigError;
using util::InvariantError;
using util::NotFoundError;

void IoOp::finish() {
  finished_ = true;
  on_cancel_ = nullptr;
  if (done_) {
    Done cb = std::move(done_);
    done_ = nullptr;
    cb();
  }
}

double IoOp::cancel() {
  if (finished_ || cancelled_) return moved_;
  cancelled_ = true;
  done_ = nullptr;
  if (latency_pending_) {
    fabric_->engine().cancel(latency_event_);
    latency_pending_ = false;
  }
  if (meta_pending_) {
    fabric_->flows().cancel(meta_flow_);
    meta_pending_ = false;
  }
  // Flows that already completed were removed from the manager and their
  // volumes credited to moved_; cancel() on them is a nullopt no-op, so the
  // id list never needs pruning on the completion path.
  for (const flow::FlowId id : data_flows_) {
    if (const std::optional<double> partial = fabric_->flows().cancel(id)) {
      moved_ += *partial;
    }
  }
  pending_ = 0;
  if (on_cancel_) {
    Done cb = std::move(on_cancel_);
    on_cancel_ = nullptr;
    cb();
  }
  return moved_;
}

IoHandle execute_plan(platform::Fabric& fabric, IoPlan plan, Done done, Done on_cancel) {
  auto op = std::make_shared<IoOp>();
  op->fabric_ = &fabric;
  op->done_ = std::move(done);
  op->on_cancel_ = std::move(on_cancel);

  const double latency = plan.latency;
  auto start_data = [&fabric, plan = std::move(plan), op]() mutable {
    op->latency_pending_ = false;
    auto launch_subflows = [&fabric, op](const IoPlan& p) {
      op->meta_pending_ = false;
      if (p.data.empty()) {
        op->finish();
        return;
      }
      op->pending_ = p.data.size();
      op->data_flows_.reserve(p.data.size());
      for (const SubFlow& sf : p.data) {
        flow::FlowSpec spec;
        spec.volume = sf.volume;
        spec.path = sf.path;
        spec.rate_cap = p.rate_cap;
        spec.label = p.label;  // empty (free) unless a timeline is recording
        const double volume = sf.volume;
        op->data_flows_.push_back(
            fabric.flows().start(std::move(spec), [op, volume] {
              op->moved_ += volume;
              if (--op->pending_ == 0) op->finish();
            }));
      }
    };

    if (plan.metadata_ops > 0.0) {
      flow::FlowSpec meta;
      meta.volume = plan.metadata_ops;
      meta.path = {plan.metadata_res};
      if (!plan.label.empty()) meta.label = plan.label + " [meta]";
      op->meta_pending_ = true;
      op->meta_flow_ = fabric.flows().start(
          std::move(meta), [launch_subflows, plan]() { launch_subflows(plan); });
    } else {
      launch_subflows(plan);
    }
  };

  // A zero/negative latency still defers by a zero-delay event to keep
  // run-to-completion semantics.
  op->latency_pending_ = true;
  op->latency_event_ =
      fabric.engine().schedule_in(latency > 0.0 ? latency : 0.0, std::move(start_data));
  return op;
}

StorageService::StorageService(platform::Fabric& fabric, std::size_t storage_idx)
    : fabric_(fabric),
      storage_idx_(storage_idx),
      spec_(fabric.spec().storage.at(storage_idx)),
      observer_(fabric.sinks().storage_observer),
      timeline_(fabric.sinks().timeline) {
  stats::MetricsRegistry* metrics = fabric.sinks().metrics;
  if (metrics == nullptr && timeline_ == nullptr) return;
  const std::string base = "storage." + name() + ".occupancy_bytes";
  if (metrics != nullptr) {
    occupancy_gauge_ = &metrics->gauge(base);
    occupancy_series_ = &metrics->series(base);
  }
  if (timeline_ != nullptr) occupancy_track_ = timeline_->counter_track(base, "bytes");
  sample_occupancy();  // one starting point per attached sink
}

double StorageService::total_capacity() const {
  if (spec_.disk.capacity == platform::kUnlimited) return platform::kUnlimited;
  return spec_.disk.capacity * spec_.num_nodes;
}

double StorageService::replica_bytes() const {
  double sum = 0.0;
  for (const std::optional<Replica>& rep : replicas_) {
    if (rep) sum += rep->size;
  }
  return sum;
}

std::vector<FileKey> StorageService::keys_on_node(int node) const {
  std::vector<FileKey> keys;
  for (FileKey key = 0; key < replicas_.size(); ++key) {
    if (replicas_[key] && replicas_[key]->node == node) keys.push_back(key);
  }
  return keys;
}

void StorageService::sample_occupancy() {
  if (occupancy_gauge_ != nullptr) {
    occupancy_gauge_->set(used_bytes_);
    occupancy_series_->sample(fabric_.engine().now(), used_bytes_);
  }
  if (timeline_ != nullptr) {
    timeline_->counter_sample(occupancy_track_, fabric_.engine().now(), used_bytes_);
  }
}

double StorageService::reserve_capacity(const FileRef& file) {
  BBSIM_ASSERT(file.size >= 0, "negative file size: " + std::string(file.name));
  double delta = file.size;
  if (const Replica* old = replica(file.key)) delta -= old->size;  // overwrite frees old bytes
  const double cap = total_capacity();
  if (cap != platform::kUnlimited && used_bytes_ + delta > cap * (1 + 1e-9)) {
    throw ConfigError("storage '" + name() + "' capacity exceeded writing '" +
                      std::string(file.name) + "' (" + std::to_string(used_bytes_ + delta) +
                      " > " + std::to_string(cap) + " bytes)");
  }
  used_bytes_ += delta;
  if (used_bytes_ > peak_used_bytes_) peak_used_bytes_ = used_bytes_;
  if (observer_ != nullptr) {
    observer_->on_occupancy_change(*this, file.key, delta, used_bytes_);
  }
  sample_occupancy();
  return delta;
}

void StorageService::release_capacity(FileKey key, double delta) {
  used_bytes_ -= delta;
  if (observer_ != nullptr) observer_->on_occupancy_change(*this, key, -delta, used_bytes_);
  sample_occupancy();
}

void StorageService::install_replica(const FileRef& file, std::size_t host_idx) {
  if (file.key >= replicas_.size()) replicas_.resize(std::size_t{file.key} + 1);
  replicas_[file.key] = Replica{file.size, placement_node(file, host_idx), host_idx};
  if (observer_ != nullptr) observer_->on_replica_created(*this, file);
}

void StorageService::register_file(const FileRef& file, std::size_t host_idx) {
  reserve_capacity(file);
  install_replica(file, host_idx);
}

void StorageService::erase_file(FileKey key) {
  const Replica* rep = replica(key);
  if (rep == nullptr) return;
  const double size = rep->size;
  replicas_[key].reset();
  release_capacity(key, size);
  if (observer_ != nullptr) observer_->on_replica_erased(*this, key, size);
}

bool StorageService::striped() const {
  return spec_.kind == platform::StorageKind::SharedBB &&
         spec_.mode == platform::BBMode::Striped;
}

bool StorageService::node_restricted() const {
  return spec_.kind == platform::StorageKind::NodeLocalBB ||
         (spec_.kind == platform::StorageKind::SharedBB &&
          spec_.mode == platform::BBMode::Private);
}

bool StorageService::readable_from(FileKey key, std::size_t host_idx) const {
  const Replica* rep = replica(key);
  return rep != nullptr && (!node_restricted() || rep->creator_host == host_idx);
}

int StorageService::placement_node(const FileRef& file, std::size_t host_idx) const {
  const auto nodes = static_cast<std::size_t>(spec_.num_nodes);
  switch (spec_.kind) {
    case platform::StorageKind::PFS:
      return static_cast<int>(std::hash<std::string_view>{}(file.name) % nodes);
    case platform::StorageKind::SharedBB:
      return striped() ? -1 : static_cast<int>(host_idx % nodes);
    case platform::StorageKind::NodeLocalBB:
      return static_cast<int>(host_idx);
  }
  return 0;
}

std::vector<SubFlow> StorageService::route(int node, double size, std::size_t host_idx,
                                           bool is_write) const {
  const platform::StorageResources& r = fabric_.storage_resources(storage_idx_);
  const platform::HostResources* nic =
      spec_.kind == platform::StorageKind::NodeLocalBB ? nullptr
                                                       : &fabric_.host_resources(host_idx);
  const auto path = [&](std::size_t n) -> std::vector<flow::ResourceId> {
    if (is_write) {
      if (nic == nullptr) return {r.link_up[n], r.disk_write[n]};
      return {nic->nic_up, r.link_up[n], r.disk_write[n]};
    }
    if (nic == nullptr) return {r.disk_read[n], r.link_down[n]};
    return {r.disk_read[n], r.link_down[n], nic->nic_down};
  };
  if (node >= 0) return {SubFlow{size, path(static_cast<std::size_t>(node))}};
  const int stripes = spec_.num_nodes;
  std::vector<SubFlow> flows;
  flows.reserve(static_cast<std::size_t>(stripes));
  for (int i = 0; i < stripes; ++i) {
    flows.push_back(SubFlow{size / stripes, path(static_cast<std::size_t>(i))});
  }
  return flows;
}

double StorageService::metadata_ops_per_file() const {
  return striped() ? static_cast<double>(spec_.num_nodes) : 1.0;
}

void StorageService::apply_perturbation(IoPlan& plan, bool is_write,
                                        std::size_t host_idx) const {
  if (!perturb_) return;
  const IoPerturbation p = perturb_(is_write, host_idx);
  plan.latency += p.extra_latency;
  if (p.rate_cap_scale != 1.0 && plan.rate_cap != flow::kUnlimited) {
    plan.rate_cap *= p.rate_cap_scale;
  }
}

IoPlan StorageService::plan_read(const FileRef& file, std::size_t host_idx) const {
  const Replica* rep = replica(file.key);
  if (rep == nullptr) {
    throw NotFoundError("file '" + std::string(file.name) + "' on storage '" + name() + "'");
  }
  if (!readable_from(file.key, host_idx)) {
    throw InvariantError("file '" + std::string(file.name) + "' on '" + name() +
                         "' is not readable from host index " + std::to_string(host_idx));
  }
  IoPlan plan;
  plan.latency = spec_.link.latency + spec_.base_latency;
  plan.metadata_ops = metadata_ops_per_file();
  plan.metadata_res = fabric_.storage_resources(storage_idx_).metadata;
  plan.rate_cap = spec_.stream_bw;
  plan.data = route(rep->node, file.size, host_idx, /*is_write=*/false);
  if (timeline_ != nullptr) {
    plan.label = "read " + std::string(file.name) + " " + name() + "->host" +
                 std::to_string(host_idx);
  }
  apply_perturbation(plan, /*is_write=*/false, host_idx);
  return plan;
}

IoPlan StorageService::plan_write(const FileRef& file, std::size_t host_idx) const {
  IoPlan plan;
  plan.latency = spec_.link.latency + spec_.base_latency;
  plan.metadata_ops = metadata_ops_per_file();
  plan.metadata_res = fabric_.storage_resources(storage_idx_).metadata;
  plan.rate_cap = spec_.stream_bw;
  plan.data = route(placement_node(file, host_idx), file.size, host_idx, /*is_write=*/true);
  if (timeline_ != nullptr) {
    plan.label = "write " + std::string(file.name) + " host" + std::to_string(host_idx) +
                 "->" + name();
  }
  apply_perturbation(plan, /*is_write=*/true, host_idx);
  return plan;
}

IoHandle StorageService::read(const FileRef& file, std::size_t host_idx, Done done) {
  return execute_plan(fabric_, plan_read(file, host_idx), std::move(done));
}

IoHandle StorageService::write(const FileRef& file, std::size_t host_idx, Done done) {
  return run_write(file, host_idx, plan_write(file, host_idx), std::move(done));
}

IoHandle StorageService::run_write(const FileRef& file, std::size_t host_idx, IoPlan plan,
                                   Done done) {
  const double delta = reserve_capacity(file);
  // The replica becomes visible only when the last byte lands; a cancel
  // returns exactly the bytes reserved here.
  return execute_plan(
      fabric_, std::move(plan),
      [this, file, host_idx, done = std::move(done)] {
        install_replica(file, host_idx);
        if (done) done();
      },
      [this, key = file.key, delta] { release_capacity(key, delta); });
}

}  // namespace bbsim::storage
