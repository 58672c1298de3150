#include "exec/pinning.hpp"

#include <algorithm>
#include <numeric>

namespace bbsim::exec {

namespace {

/// Files read by more than this many tasks do not glue components.
constexpr std::size_t kBroadcastThreshold = 16;

/// Union-find over task indexes with per-root component weight (flops).
class UnionFind {
 public:
  explicit UnionFind(std::vector<double> weights)
      : parent_(weights.size()), weight_(std::move(weights)) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    parent_[a] = b;
    weight_[b] += weight_[a];
  }
  double weight(std::size_t x) { return weight_[find(x)]; }

 private:
  std::vector<std::size_t> parent_;
  std::vector<double> weight_;
};

}  // namespace

std::vector<std::size_t> compute_home_hosts(const wf::Workflow& workflow,
                                            const platform::PlatformSpec& platform) {
  const std::size_t n = workflow.task_count();
  const std::size_t hosts = platform.hosts.size();

  std::vector<double> task_weight(n, 0.0);
  double total_weight = 0.0;
  for (wf::TaskId t = 0; t < n; ++t) {
    task_weight[t] = workflow.task(t).flops;
    total_weight += task_weight[t];
  }

  // Capacity-aware clustering: glue producer/consumer chains together, but
  // never let one component exceed a fair host share -- otherwise a few
  // widely-shared files (population lists, reference tables) would collapse
  // the whole workflow onto one node. Files are considered from the
  // strongest locality signal (fewest readers) upward.
  struct GlueFile {
    wf::FileId file;
    std::size_t consumers;
  };
  std::vector<GlueFile> glue;
  for (wf::FileId f = 0; f < workflow.file_count(); ++f) {
    const std::size_t consumers = workflow.consumers(f).size();
    if (consumers == 0) continue;
    if (consumers > kBroadcastThreshold) continue;  // broadcast file
    glue.push_back({f, consumers});
  }
  std::stable_sort(glue.begin(), glue.end(),
                   [](const GlueFile& a, const GlueFile& b) {
                     return a.consumers < b.consumers;
                   });

  double max_task = 0.0;
  for (const double w : task_weight) max_task = std::max(max_task, w);
  const double limit =
      std::max(1.3 * total_weight / static_cast<double>(hosts), max_task);

  UnionFind uf(task_weight);
  std::vector<std::size_t> touching;
  std::vector<std::size_t> roots;
  for (const GlueFile& g : glue) {
    const auto consumers = workflow.consumers(g.file);
    touching.assign(consumers.begin(), consumers.end());
    if (const auto prod = workflow.producer(g.file)) touching.push_back(*prod);
    if (touching.size() <= 1) continue;
    // Weight of the union if we glued everything this file touches, summed
    // over the distinct components in ascending root order.
    roots.clear();
    for (const std::size_t t : touching) roots.push_back(uf.find(t));
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
    double combined = 0.0;
    for (const std::size_t r : roots) combined += uf.weight(r);
    if (roots.size() > 1 && combined > limit && hosts > 1) continue;  // too heavy
    for (std::size_t k = 1; k < touching.size(); ++k) {
      uf.unite(touching[0], touching[k]);
    }
  }

  // Collect components (indexed by root, in ascending root order) and deal
  // them largest-first onto the least-loaded host (LPT balancing).
  std::vector<std::size_t> root_of(n);
  std::vector<double> weight(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    root_of[i] = uf.find(i);
    weight[root_of[i]] += task_weight[i];
  }
  roots.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (root_of[i] == i) roots.push_back(i);
  }
  std::stable_sort(roots.begin(), roots.end(), [&](std::size_t a, std::size_t b) {
    return weight[a] > weight[b];
  });

  std::vector<double> host_load(hosts, 0.0);
  std::vector<std::size_t> host_of_root(n, 0);
  for (const std::size_t root : roots) {
    const std::size_t target = static_cast<std::size_t>(
        std::min_element(host_load.begin(), host_load.end()) - host_load.begin());
    host_of_root[root] = target;
    host_load[target] += weight[root];
  }
  std::vector<std::size_t> home(n);
  for (std::size_t i = 0; i < n; ++i) home[i] = host_of_root[root_of[i]];
  return home;
}

}  // namespace bbsim::exec
