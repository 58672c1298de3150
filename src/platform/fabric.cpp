#include "platform/fabric.hpp"

#include "util/strings.hpp"

namespace bbsim::platform {

Fabric::Fabric(PlatformSpec spec, const obs::Sinks& sinks)
    : spec_(std::move(spec)), sinks_(sinks), engine_(sinks), flows_(engine_, sinks) {
  spec_.validate_and_normalize();
  flow::Network& net = flows_.network();

  host_res_.reserve(spec_.hosts.size());
  for (const HostSpec& h : spec_.hosts) {
    HostResources r;
    r.nic_up = net.add_resource(h.name + ".nic_up", h.nic_bw);
    r.nic_down = net.add_resource(h.name + ".nic_down", h.nic_bw);
    host_res_.push_back(r);
  }

  storage_res_.reserve(spec_.storage.size());
  for (const StorageSpec& s : spec_.storage) {
    StorageResources r;
    for (int i = 0; i < s.num_nodes; ++i) {
      const std::string base = util::format("%s[%d]", s.name.c_str(), i);
      r.disk_read.push_back(net.add_resource(base + ".disk_read", s.disk.read_bw));
      r.disk_write.push_back(net.add_resource(base + ".disk_write", s.disk.write_bw));
      r.link_up.push_back(net.add_resource(base + ".link_up", s.link.bandwidth));
      r.link_down.push_back(net.add_resource(base + ".link_down", s.link.bandwidth));
    }
    r.metadata = net.add_resource(s.name + ".metadata", s.metadata_ops_per_sec);
    if (sinks.metrics != nullptr || sinks.timeline != nullptr) {
      std::vector<flow::ResourceId> group(r.disk_read);
      group.insert(group.end(), r.disk_write.begin(), r.disk_write.end());
      flows_.register_bandwidth_group(s.name, std::move(group));
    }
    storage_res_.push_back(std::move(r));
  }
}

const HostResources& Fabric::host_resources(std::size_t host_idx) const {
  if (host_idx >= host_res_.size()) {
    throw util::NotFoundError("host index " + std::to_string(host_idx));
  }
  return host_res_[host_idx];
}

const StorageResources& Fabric::storage_resources(std::size_t storage_idx) const {
  if (storage_idx >= storage_res_.size()) {
    throw util::NotFoundError("storage index " + std::to_string(storage_idx));
  }
  return storage_res_[storage_idx];
}

void Fabric::scale_storage_capacity(std::size_t storage_idx, double factor) {
  if (factor <= 0) throw util::InvariantError("capacity scale factor must be > 0");
  const StorageSpec& s = spec_.storage.at(storage_idx);
  const StorageResources& r = storage_resources(storage_idx);
  auto scaled = [factor](double nominal) {
    return nominal == kUnlimited ? kUnlimited : nominal * factor;
  };
  for (std::size_t i = 0; i < r.disk_read.size(); ++i) {
    flows_.set_capacity(r.disk_read[i], scaled(s.disk.read_bw));
    flows_.set_capacity(r.disk_write[i], scaled(s.disk.write_bw));
    flows_.set_capacity(r.link_up[i], scaled(s.link.bandwidth));
    flows_.set_capacity(r.link_down[i], scaled(s.link.bandwidth));
  }
  // Competing jobs also load the metadata server.
  flows_.set_capacity(r.metadata, scaled(s.metadata_ops_per_sec));
}

}  // namespace bbsim::platform
