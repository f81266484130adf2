// The recording store behind cid::obs (internal to src/obs).
//
// Every rank records into its own Recorder: a span vector and flat
// counter/histogram tables keyed by (metric, site, rank). A probe finds its
// recorder through the calling thread's current rank (log::thread_rank(),
// which the pooled scheduler's switch hooks and, on the wall-clock
// transports, each rank thread's CtxScope install), and only that rank's
// fiber or thread runs on it at any moment, so the probe path takes no lock.
// It allocates only to grow a recorder's buffers, which keep their capacity
// across clear(). Threads with no rank (transport messengers, the main
// thread before and after a run) share one recorder behind a mutex. Every
// name is an interned obs::Name, so records and keys hold pointers.
//
// Readers (spans(), the registry snapshots, the exporter) first fold each
// recorder's new spans into its tables (Recorder::fold_spans), then merge the
// recorders in rank order, then the shared one. They run between rt::run
// calls, when no rank is recording; one rt::run records at a time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace cid::obs::detail {

/// One span as recorded.
struct SpanRecord {
  int rank = 0;
  Name cat;
  Name name;
  const SpanMetrics* metrics = nullptr;  ///< the rows the span implies
  double begin = 0.0;
  double end = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
};

/// Open-addressing table from (metric, site, rank) to a value. Entries are
/// dense in insertion order; the slot array holds entry indices. Keys are
/// interned names, compared by identity.
template <class V>
class MetricTable {
 public:
  struct Entry {
    Name metric;
    Name site;
    int rank = -1;
    std::size_t hash = 0;
    V value{};
  };

  V& find_or_add(Name metric, Name site, int rank);
  const std::vector<Entry>& entries() const noexcept { return entries_; }
  void clear() noexcept;

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  void grow();

  std::vector<std::uint32_t> slots_;  ///< entry index or kEmpty; 2^k long
  std::vector<Entry> entries_;
};

/// One rank's recording (or the shared one). Probes and the directory hold
/// its address, so it is never copied or moved.
struct Recorder {
  Recorder() = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  std::vector<SpanRecord> spans;
  std::size_t folded = 0;  ///< spans[0, folded) are already in the tables
  MetricTable<std::uint64_t> counters;
  MetricTable<Histogram> histograms;

  /// Add the rows of every span recorded since the last fold to the tables,
  /// in recording order: a histogram then sums its samples in the order the
  /// rank produced them, as observe() calls would have.
  void fold_spans();
  /// Drop everything recorded, keeping the capacity.
  void clear() noexcept;
};

/// The calling rank's recorder (created on first use), or nullptr when the
/// thread has no rank or its rank is past the directory (2^20 ranks).
Recorder* rank_recorder();

struct SharedRecorder {
  std::mutex mutex;
  Recorder recorder;
};
SharedRecorder& shared_recorder();

/// Run `write` on the caller's recorder: its rank's, lock-free, or the
/// shared one under its mutex.
template <class F>
void record(F&& write) {
  if (Recorder* mine = rank_recorder()) {
    write(*mine);
    return;
  }
  SharedRecorder& shared = shared_recorder();
  std::lock_guard<std::mutex> lock(shared.mutex);
  write(shared.recorder);
}

/// Every recorder that exists: ranks ascending, then the shared one. The
/// caller holds the shared recorder's mutex.
std::vector<Recorder*> all_recorders();

/// All spans in the total export order (see obs::spans()).
std::vector<const SpanRecord*> sorted_spans();

/// Metric rows merged across recorders, in (metric, site, rank) order, with
/// every recorder's spans folded in first. A key written from several
/// recorders yields one row, merged in recorder order.
template <class V>
struct MergedRow {
  Name metric;
  Name site;
  int rank = -1;
  V value{};
};
std::vector<MergedRow<std::uint64_t>> merged_counters();
std::vector<MergedRow<Histogram>> merged_histograms();

// --- MetricTable ------------------------------------------------------------

inline std::size_t metric_key_hash(Name metric, Name site, int rank) noexcept {
  std::uint64_t h = metric.hash();
  h ^= site.hash() * 0xc2b2ae3d27d4eb4fULL;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) *
       0x165667b19e3779f9ULL;
  // Final avalanche so the low bits used for the slot depend on every field.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<std::size_t>(h);
}

template <class V>
V& MetricTable<V>::find_or_add(Name metric, Name site, int rank) {
  const std::size_t hash = metric_key_hash(metric, site, rank);
  std::size_t mask = slots_.size() - 1;
  std::size_t slot = hash & mask;
  if (!slots_.empty()) {
    for (;; slot = (slot + 1) & mask) {
      const std::uint32_t index = slots_[slot];
      if (index == kEmpty) break;
      Entry& entry = entries_[index];
      if (entry.hash == hash && entry.rank == rank && entry.metric == metric &&
          entry.site == site) {
        return entry.value;
      }
    }
  }
  // Not present: keep the load factor at or below one half.
  if ((entries_.size() + 1) * 2 > slots_.size()) {
    grow();
    mask = slots_.size() - 1;
    for (slot = hash & mask; slots_[slot] != kEmpty; slot = (slot + 1) & mask) {
    }
  }
  slots_[slot] = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back({metric, site, rank, hash, V{}});
  return entries_.back().value;
}

template <class V>
void MetricTable<V>::grow() {
  const std::size_t size = slots_.empty() ? 16 : slots_.size() * 2;
  slots_.assign(size, kEmpty);
  const std::size_t mask = size - 1;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::size_t slot = entries_[i].hash & mask;
    while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<std::uint32_t>(i);
  }
}

template <class V>
void MetricTable<V>::clear() noexcept {
  entries_.clear();
  std::fill(slots_.begin(), slots_.end(), kEmpty);
}

}  // namespace cid::obs::detail
