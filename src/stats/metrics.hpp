/// \file
/// bbsim::stats -- runtime metrics: counters, gauges and time-series
/// samplers. The observability substrate behind the kind of measurements
/// the paper's Section III characterization makes (achieved bandwidth,
/// occupancy, contention) -- here applied to the simulator itself.
///
/// Every layer of the simulator (event engine, flow solver, storage
/// services, execution engine) publishes into one MetricsRegistry so a run
/// can report what actually happened at runtime -- solver rounds, queue
/// depths, resource utilization, burst-buffer occupancy -- without bespoke
/// plumbing per experiment. The registry is strictly opt-in: layers hold a
/// nullable pointer and publishing is a no-op until a registry is
/// installed, so the hot paths pay nothing when metrics are off.
///
/// Metric kinds:
///   Counter     monotonically increasing total (events executed, rounds).
///   Gauge       instantaneous value with a high-water mark (queue depth,
///               active flows, BB occupancy).
///   TimeSeries  (time, value) samples with an exact running summary
///               (weighted mean / min / peak) and a bounded sample buffer:
///               when the buffer fills it is decimated 2:1 and the keep
///               stride doubles, so memory stays O(max_samples) while the
///               summary stays exact.
///
/// JSON export (MetricsRegistry::to_json) is deterministic: metrics are
/// keyed by name in a sorted map, so two identical runs serialise
/// byte-identically (golden-file friendly).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "json/json.hpp"

namespace bbsim::stats {

/// Monotonically increasing total.
class Counter {
 public:
  void add(double delta = 1.0) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Instantaneous value with a high-water mark.
class Gauge {
 public:
  void set(double value) {
    value_ = value;
    if (value > peak_) peak_ = value;
  }
  void add(double delta) { set(value_ + delta); }
  double value() const { return value_; }
  double peak() const { return peak_; }

 private:
  double value_ = 0.0;
  double peak_ = 0.0;
};

/// One recorded sample of a time series.
struct Sample {
  double time = 0.0;
  double value = 0.0;
};

/// Summary statistics of a time series (exact, independent of decimation).
struct SeriesSummary {
  std::size_t count = 0;  ///< samples recorded (not retained)
  double mean = 0.0;      ///< weight-averaged value
  double min = 0.0;
  double peak = 0.0;
  double last = 0.0;
};

/// A bounded (time, value) sampler with an exact running summary.
class TimeSeries {
 public:
  static constexpr std::size_t kDefaultMaxSamples = 512;

  explicit TimeSeries(std::size_t max_samples = kDefaultMaxSamples);

  /// Record one sample. `weight` biases the running mean (pass the interval
  /// length to get a time-weighted mean from irregular sampling points);
  /// it does not affect min/peak/last.
  void sample(double time, double value, double weight = 1.0);

  /// Exact summary over every sample ever recorded.
  SeriesSummary summary() const;
  std::size_t count() const { return count_; }

  /// Retained samples (decimated once count() exceeds the buffer bound).
  const std::vector<Sample>& samples() const { return samples_; }
  /// Current keep stride: 1 = every sample retained, 2 = every other, ...
  std::size_t stride() const { return stride_; }

 private:
  std::size_t max_samples_;
  std::size_t stride_ = 1;
  std::size_t since_kept_ = 0;  // samples seen since the last retained one
  std::vector<Sample> samples_;
  // Running summary (never decimated).
  std::size_t count_ = 0;
  double weighted_sum_ = 0.0;
  double weight_total_ = 0.0;
  double min_ = 0.0;
  double peak_ = 0.0;
  double last_ = 0.0;
};

/// A fixed log-scale (base-2) value histogram with an exact count / sum /
/// min / max. Bucket i spans [2^(i - kOffset), 2^(i - kOffset + 1));
/// values at or below the bottom edge (including zero and negatives) land
/// in bucket 0, values beyond the top edge in the last bucket. The bucket
/// layout is compile-time fixed, so the JSON export is deterministic and
/// histograms from different runs are directly comparable.
///
/// Used for distributions where a mean hides the story: solver rounds per
/// solve() call, per-flow transfer durations.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;
  /// Bucket 0's upper edge is 2^(1 - kOffset) ~ 6e-8; the top bucket
  /// starts at 2^(kBuckets - 1 - kOffset) ~ 1.4e11. Covers sub-microsecond
  /// durations through hundreds-of-gigabyte volumes.
  static constexpr int kOffset = 24;

  void record(double value);

  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  const std::array<std::uint64_t, kBuckets>& buckets() const { return buckets_; }

  /// Approximate q-quantile (q in [0, 1]) from the bucket counts. Exact at
  /// the recorded min/max; within a bucket the value is interpolated
  /// linearly between the bucket edges, so the error is bounded by the 2x
  /// bucket width. Returns 0 for an empty histogram.
  double quantile(double q) const;

  /// Index of the bucket `value` falls in.
  static std::size_t bucket_index(double value);
  /// Lower edge of bucket `index` (bucket 0's edge is 0: the underflow
  /// bucket also catches zero and negative values).
  static double bucket_lower_bound(std::size_t index);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named metrics, created on first use. References returned by counter() /
/// gauge() / series() / histogram() stay valid for the registry's lifetime
/// (node-based storage), so hot paths can cache them once and skip the
/// name lookup.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  TimeSeries& series(const std::string& name,
                     std::size_t max_samples = TimeSeries::kDefaultMaxSamples);
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  /// Lookup without creating; nullptr when the metric does not exist.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const TimeSeries* find_series(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  std::size_t counter_count() const { return counters_.size(); }
  std::size_t histogram_count() const { return histograms_.size(); }

  /// Deterministic (name-sorted) export:
  ///   { "schema": "bbsim.metrics.v1",
  ///     "counters": {name: total},
  ///     "gauges":   {name: {"value", "peak"}},
  ///     "series":   {name: {"count","mean","min","peak","last",
  ///                         "stride", "samples": [[t, v], ...]}},
  ///     "histograms": {name: {"count","sum","mean","min","max",
  ///                           "buckets": [[lower_bound, count], ...]}} }
  /// Histogram buckets export only non-empty entries, in ascending edge
  /// order. `include_samples` = false drops the raw sample arrays
  /// (summaries only).
  json::Value to_json(bool include_samples = true) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, TimeSeries> series_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace bbsim::stats
