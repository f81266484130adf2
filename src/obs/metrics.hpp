// Metrics registry — the counter/histogram half of cid::obs.
//
// Every metric is keyed by (metric name, site, rank): the site is the
// directive site ("file:line") or a subsystem label, so per-(region, rank)
// breakdowns fall out of the key structure instead of a post-processing
// step. Counters are plain u64 sums; histograms bucket non-negative doubles
// (virtual seconds, wall nanoseconds, bytes) into power-of-two buckets above
// a 1e-9 base, which covers a nanosecond to centuries in 64 buckets.
//
// The registry is a process-global view over rank-local tables: each rank
// adds into its own (metric, site, rank) table without a lock, threads with
// no rank into one shared table behind a mutex (obs/recorder.hpp), and the
// snapshots merge them in rank order. The directive metrics (cid.p2p.*,
// cid.region.*, ...) are not probed: each is derived from the rank's spans
// when a snapshot is taken (obs::SpanMetrics). It sits behind the
// cid::obs::enabled() gate: when observability is off nothing ever reaches
// it, so the hot paths pay one relaxed atomic load.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace cid::obs {

/// Fixed-bucket log2 histogram over non-negative values.
///
/// Bucket 0 counts values <= kBase; bucket i (1 <= i < kBucketCount) counts
/// values in (kBase * 2^(i-1), kBase * 2^i], with the last bucket absorbing
/// everything larger. Bucketing uses frexp, not a floating log, so boundary
/// values land deterministically on every host.
class Histogram {
 public:
  static constexpr int kBucketCount = 64;
  static constexpr double kBase = 1e-9;

  /// Bucket index a value falls into (see class comment for the ranges).
  static int bucket_of(double value) noexcept;

  /// Inclusive upper bound of a bucket (kBase * 2^index).
  static double bucket_upper_bound(int index) noexcept;

  void observe(double value) noexcept;

  /// Fold in another histogram's samples: the result equals observing both
  /// sample sets in one histogram, except that the sum adds the two partial
  /// sums.
  void merge(const Histogram& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  const std::array<std::uint64_t, kBucketCount>& buckets() const noexcept {
    return buckets_;
  }

  bool operator==(const Histogram&) const = default;

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Identity of one metric series. Ordered so every export walks series in a
/// deterministic order.
struct MetricKey {
  std::string metric;  ///< dotted name, e.g. "cid.p2p.bytes_sent"
  std::string site;    ///< directive site ("file:line") or subsystem label
  int rank = -1;       ///< world rank; -1 = not rank-attributed

  auto operator<=>(const MetricKey&) const = default;
};

/// Process-global registry of counters and histograms: the rows obs::count()
/// and obs::observe() probed and the rows derived from spans
/// (obs::SpanMetrics). Snapshots run between runs, not while ranks record;
/// obs::clear() drops both kinds.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  struct CounterRow {
    MetricKey key;
    std::uint64_t value = 0;
  };
  struct HistogramRow {
    MetricKey key;
    Histogram histogram;
  };

  /// Snapshots in key order (deterministic). A key added from several
  /// ranks' tables is one row, merged in rank order.
  std::vector<CounterRow> counters() const;
  std::vector<HistogramRow> histograms() const;
};

}  // namespace cid::obs
