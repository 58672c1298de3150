/// \file
/// bbsim::testbed -- I/O characterization reports (paper Section III).
///
/// The Section III study derives per-task-type timing/lambda/bandwidth
/// aggregates from a set of repeated executions, plus per-storage-service
/// counters (the toolkit behind Figures 5, 6 and 9). The inputs are plain
/// exec::Result vectors -- produced serially or by a parallel
/// sweep::SweepRunner campaign.
#pragma once

#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "exec/trace.hpp"

namespace bbsim::testbed {

/// Per-type characterization table:
///   type | count | duration mean±std | lambda_io | bytes R+W | perceived bw
analysis::Table characterization_table(const std::vector<exec::Result>& results);

/// Per-storage-service counters averaged over the repetitions:
///   service | bytes served | busy time | device bandwidth
analysis::Table storage_table(const std::vector<exec::Result>& results);

/// Renders both tables as a printable report.
std::string characterization_report(const std::vector<exec::Result>& results);

}  // namespace bbsim::testbed
