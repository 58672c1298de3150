// bbsim -- task-to-host pinning for locality-constrained burst buffers.
//
// On node-local (Summit) and private-mode shared (Cori) burst buffers, a
// file in the BB is readable only from one compute node. To exploit such
// buffers across multiple nodes, the engine pre-assigns each task a "home"
// host so that producer/consumer chains stay co-located:
//
//   1. Build connected components over tasks that share files, ignoring
//      "broadcast" files read by more than 16 tasks (those go to the PFS
//      anyway).
//   2. Deal components onto hosts round-robin, largest first.
//
// This mirrors how the paper's workflows behave in practice: each SWarp
// pipeline, or each 1000Genomes chromosome subtree, lands on one node.
#pragma once

#include <string>
#include <vector>

#include "platform/spec.hpp"
#include "workflow/workflow.hpp"

namespace bbsim::exec {

/// home[t] = host index of task t (a wf::TaskId).
std::vector<std::size_t> compute_home_hosts(const wf::Workflow& workflow,
                                            const platform::PlatformSpec& platform);

}  // namespace bbsim::exec
