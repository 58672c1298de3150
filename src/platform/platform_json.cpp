#include "platform/platform_json.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace bbsim::platform {

using json::Value;
using util::ParseError;

namespace {

/// A quantity field may be a plain number (base units) or a suffixed string.
double quantity(const Value& obj, const std::string& key, double fallback,
                bool is_rate) {
  if (!obj.is_object()) return fallback;
  const Value* v = obj.as_object().find(key);
  if (v == nullptr) return fallback;
  if (v->is_number()) return v->as_number();
  if (v->is_string()) {
    const std::string& s = v->as_string();
    if (s == "unlimited" || s == "inf") return kUnlimited;
    return is_rate ? util::parse_bandwidth(s) : util::parse_size(s);
  }
  throw ParseError("field '" + key + "' must be a number or unit string");
}

/// Core speed accepts "36.8 Gf" / "36.8 GFlop/s" style strings.
double core_speed_quantity(const Value& obj, const std::string& key, double fallback) {
  if (!obj.is_object()) return fallback;
  const Value* v = obj.as_object().find(key);
  if (v == nullptr) return fallback;
  if (v->is_number()) return v->as_number();
  std::string s = v->as_string();
  // Normalise flop-ish suffixes down to plain SI handled by parse_bandwidth.
  for (const char* suffix : {"Flop/s", "flop/s", "FLOPS", "flops", "f/s", "f"}) {
    const std::string suf(suffix);
    if (util::ends_with(s, suf)) {
      s = s.substr(0, s.size() - suf.size());
      break;
    }
  }
  s = util::trim(s);
  // What remains is "<number> <prefix?>", e.g. "36.8 G".
  return util::parse_size(s);
}

DiskSpec disk_from_json(const Value& v) {
  DiskSpec d;
  d.read_bw = quantity(v, "read_bw", d.read_bw, true);
  d.write_bw = quantity(v, "write_bw", d.write_bw, true);
  d.capacity = quantity(v, "capacity", d.capacity, false);
  return d;
}

LinkSpec link_from_json(const Value& v) {
  LinkSpec l;
  l.bandwidth = quantity(v, "bandwidth", l.bandwidth, true);
  l.latency = v.get_number("latency_ms", l.latency * 1e3) * 1e-3;
  return l;
}

}  // namespace

PlatformSpec from_json(const Value& doc) {
  PlatformSpec p;
  p.name = doc.get_string("name", "unnamed");

  if (!doc.contains("hosts")) throw ParseError("platform: missing 'hosts'");
  for (const Value& h : doc.at("hosts").as_array()) {
    HostSpec host;
    host.name = h.get_string("name", "");
    const std::int64_t count = h.get_int("count", 1);
    host.cores = static_cast<int>(h.get_int("cores", 1));
    host.core_speed = core_speed_quantity(h, "core_speed", host.core_speed);
    host.nic_bw = quantity(h, "nic_bw", host.nic_bw, true);
    if (count == 1) {
      p.hosts.push_back(host);
    } else {
      // "count" expands into name000, name001, ...
      for (std::int64_t i = 0; i < count; ++i) {
        HostSpec copy = host;
        copy.name = util::format("%s%03d", host.name.c_str(), static_cast<int>(i));
        p.hosts.push_back(std::move(copy));
      }
    }
  }

  if (doc.contains("storage")) {
    for (const Value& s : doc.at("storage").as_array()) {
      StorageSpec st;
      st.name = s.get_string("name", "");
      st.kind = storage_kind_from_string(s.get_string("kind", "pfs"));
      st.mode = bb_mode_from_string(s.get_string("mode", "private"));
      st.num_nodes = static_cast<int>(s.get_int("num_nodes", 1));
      if (s.contains("disk")) st.disk = disk_from_json(s.at("disk"));
      if (s.contains("link")) st.link = link_from_json(s.at("link"));
      st.base_latency = s.get_number("base_latency_ms", st.base_latency * 1e3) * 1e-3;
      st.stage_latency = s.get_number("stage_latency_ms", st.stage_latency * 1e3) * 1e-3;
      st.stream_bw = quantity(s, "stream_bw", st.stream_bw, true);
      st.metadata_ops_per_sec = quantity(s, "metadata_ops_per_sec",
                                         st.metadata_ops_per_sec, true);
      p.storage.push_back(std::move(st));
    }
  }

  p.validate_and_normalize();
  return p;
}

PlatformSpec load_platform(const std::string& path) {
  return from_json(json::parse_file(path));
}

}  // namespace bbsim::platform
