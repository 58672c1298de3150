// bbsim -- JSON (de)serialisation of platform descriptions.
//
// The schema mirrors the paper's WRENCH/SimGrid platform files, in JSON:
//
// {
//   "name": "cori",
//   "hosts": [ {"name": "cn000", "cores": 32, "core_speed": "36.8 Gf",
//               "nic_bw": "16 GB/s"} ],
//   "storage": [
//     {"name": "pfs", "kind": "pfs",
//      "disk": {"read_bw": "100 MB/s", "write_bw": "100 MB/s"},
//      "link": {"bandwidth": "1 GB/s", "latency_ms": 0.5}},
//     {"name": "bb", "kind": "shared_bb", "mode": "striped", "num_nodes": 2,
//      "disk": {"read_bw": "950 MB/s", "write_bw": "950 MB/s",
//               "capacity": "6.4 TB"},
//      "link": {"bandwidth": "800 MB/s", "latency_ms": 0.25}}
//   ]
// }
//
// Bandwidths/sizes accept either numbers (bytes, bytes/s, flop/s) or strings
// with unit suffixes. Core speed accepts "Gf" (GFlop/s) style suffixes too.
#pragma once

#include <string>

#include "json/json.hpp"
#include "platform/spec.hpp"

namespace bbsim::platform {

/// Parse a platform from its JSON document. Throws ParseError / ConfigError.
PlatformSpec from_json(const json::Value& doc);

/// Parse a platform from a file on disk.
PlatformSpec load_platform(const std::string& path);

}  // namespace bbsim::platform
