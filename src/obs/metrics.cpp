#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/recorder.hpp"

namespace cid::obs {

int Histogram::bucket_of(double value) noexcept {
  if (!(value > kBase)) return 0;  // <= kBase, zero, negative, NaN
  const double x = value / kBase;
  // Values past ~1e300 overflow the division to infinity (frexp would then
  // report exponent 0); they belong in the catch-all last bucket anyway.
  if (!std::isfinite(x)) return kBucketCount - 1;
  // ceil(log2 x) via frexp: frexp returns m in [0.5, 1) with x = m * 2^e,
  // so log2 x lies in (e-1, e] and equals e-1 exactly when m == 0.5.
  int e = 0;
  const double m = std::frexp(x, &e);
  const int ceil_log2 = (m == 0.5) ? e - 1 : e;
  if (ceil_log2 < 1) return 1;  // x in (1, 2] rounds up into bucket 1
  if (ceil_log2 >= kBucketCount) return kBucketCount - 1;
  return ceil_log2;
}

double Histogram::bucket_upper_bound(int index) noexcept {
  return kBase * std::ldexp(1.0, index);
}

void Histogram::observe(double value) noexcept {
  ++buckets_[static_cast<std::size_t>(bucket_of(value))];
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  sum_ += value;
  ++count_;
}

void Histogram::merge(const Histogram& other) noexcept {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  sum_ += other.sum_;
  count_ += other.count_;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

std::vector<MetricsRegistry::CounterRow> MetricsRegistry::counters() const {
  std::vector<CounterRow> out;
  for (const auto& row : detail::merged_counters()) {
    out.push_back({{std::string(row.metric.text()),
                    std::string(row.site.text()), row.rank},
                   row.value});
  }
  return out;
}

std::vector<MetricsRegistry::HistogramRow> MetricsRegistry::histograms()
    const {
  std::vector<HistogramRow> out;
  for (const auto& row : detail::merged_histograms()) {
    out.push_back({{std::string(row.metric.text()),
                    std::string(row.site.text()), row.rank},
                   row.value});
  }
  return out;
}

}  // namespace cid::obs
