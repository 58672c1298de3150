/// \file
/// bbsim::batch -- the availability profile behind conservative and
/// plan-based backfilling: free nodes and free burst-buffer bytes as a step
/// function of time, with reservations subtracted over windows. Private to
/// the scheduler (scheduler.cpp); a header of its own so that a test can
/// drive it against a reference.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace bbsim::batch {

/// Time tolerance of the batch layer: instants closer than this coincide.
inline constexpr double kEps = 1e-9;
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Step-function availability profile over [t0, inf): free nodes and free
/// BB bytes per segment. Segment i spans [times[i], times[i+1]); the last
/// segment extends to infinity. Reservations subtract over a window.
///
/// Invariant: breakpoints are strictly increasing and more than kEps apart,
/// with one exception that sorted_ records. split_at finds the segment of t
/// by comparing against the rounded t + kEps but merges only breakpoints
/// whose difference from t is at most kEps. When t + kEps rounds up onto a
/// breakpoint b with b - t > kEps -- one ulp apart between 2^23 and 2^24 s,
/// an exact coincidence elsewhere -- t goes in after b, out of order. (So
/// does a commit starting before t0, which the scheduler never makes.)
class Profile {
 public:
  Profile(double t0, int nodes, double bb)
      : bb_eps_(std::max(kEps, bb * 1e-12)),
        times_{t0},
        free_nodes_{nodes},
        free_bb_{bb} {}

  /// Earliest t >= t_min such that `nodes`/`bb` are free over the whole
  /// window [t, t + duration). Returns infinity only if the request never
  /// fits (a job larger than the machine -- excluded by validation).
  ///
  /// The candidates are t_min and then each breakpoint that follows a
  /// segment the request does not fit in, in time order. A segment that
  /// cannot hold the request on its own fails every window that covers it,
  /// so a run of such segments is skipped in one tight loop rather than
  /// tried as candidates one by one: the first candidate whose window holds
  /// is the same, and each segment is compared at most once per call.
  double earliest_start(double t_min, double duration, int nodes, double bb) const {
    const double bb_need = bb - bb_eps_;
    const auto blocked = [&](std::size_t k) {
      return free_nodes_[k] < nodes || free_bb_[k] < bb_need;
    };
    const std::size_t n = times_.size();
    double t = std::max(t_min, times_.front());
    const std::size_t first = segment_at(t);
    std::size_t i = first;  // the candidate's first segment
    for (;;) {
      while (i < n && blocked(i)) ++i;
      if (i >= n) {
        segments_scanned_ += n - first;
        return kInf;
      }
      if (i != first) t = times_[i];
      // Segment i holds the request: extend the window while the next
      // segment starts inside it and holds the request too.
      const double end = t + duration - kEps;
      std::size_t j = i;
      while (j + 1 < n && times_[j + 1] < end && !blocked(j + 1)) ++j;
      if (j + 1 >= n || !(times_[j + 1] < end)) {
        segments_scanned_ += j + 1 - first;
        return t;
      }
      i = j + 2;  // segment j + 1 is blocked: the next candidate follows it
    }
  }

  /// Subtract a reservation over [start, start + duration).
  void commit(double start, double duration, int nodes, double bb) {
    if (duration <= 0) return;
    const std::size_t first = split_at(start);
    const std::size_t last = split_at(start + duration);  // first unaffected
    for (std::size_t i = first; i < last; ++i) {
      free_nodes_[i] -= nodes;
      free_bb_[i] -= bb;
    }
  }

  /// True if earliest_start(t0, ...) cannot return t0 for this request:
  /// the segment holding t0 cannot hold it, and every later candidate is a
  /// breakpoint past t0 + kEps.
  bool blocked_at_start(int nodes, double bb) const {
    const std::size_t k = segment_at(times_.front());
    return free_nodes_[k] < nodes || free_bb_[k] < bb - bb_eps_;
  }

  /// Segments whose capacity earliest_start compared, over every call.
  std::size_t segments_scanned() const { return segments_scanned_; }

 private:
  /// The segment holding t: the last breakpoint <= t + kEps, or 0 before
  /// t0. While the breakpoints are sorted a binary search finds it exactly;
  /// once they are not, the backward scan finds the highest such index.
  std::size_t segment_at(double t) const {
    const double x = t + kEps;
    if (!sorted_) {
      std::size_t i = times_.size();
      while (i > 0 && times_[i - 1] > x) --i;
      return i > 0 ? i - 1 : 0;
    }
    const auto it = std::upper_bound(times_.begin(), times_.end(), x);
    return it == times_.begin() ? 0 : static_cast<std::size_t>(it - times_.begin()) - 1;
  }

  /// Ensure a breakpoint exists at `t`; returns its segment index.
  std::size_t split_at(double t) {
    const std::size_t i = segment_at(t);
    if (std::abs(times_[i] - t) <= kEps) return i;
    // t falls inside segment i: split it. times_[i + 1] > t + kEps >= t
    // holds; times_[i] < t fails only in the case the invariant names.
    if (times_[i] > t) sorted_ = false;
    times_.insert(times_.begin() + static_cast<std::ptrdiff_t>(i) + 1, t);
    free_nodes_.insert(free_nodes_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                       free_nodes_[i]);
    free_bb_.insert(free_bb_.begin() + static_cast<std::ptrdiff_t>(i) + 1, free_bb_[i]);
    return i + 1;
  }

  /// BB quantities reach 1e12+ bytes, where double rounding error dwarfs
  /// any absolute epsilon: fit comparisons must use a relative tolerance.
  double bb_eps_;
  std::vector<double> times_;
  std::vector<int> free_nodes_;
  std::vector<double> free_bb_;
  bool sorted_ = true;  ///< breakpoints strictly increasing (the invariant)
  mutable std::size_t segments_scanned_ = 0;
};

}  // namespace bbsim::batch
