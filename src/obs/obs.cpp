#include "obs/obs.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <string>

#include "common/intern.hpp"
#include "common/log.hpp"
#include "obs/recorder.hpp"

namespace cid::obs {

namespace {

std::atomic<bool> g_enabled{false};

/// `text` as a JSON string literal: quotes, backslashes and control
/// characters escaped.
std::string json_string(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += "\\u00";
      out += kHex[(c >> 4) & 0xf];
      out += kHex[c & 0xf];
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace

Name::Name(std::string_view text) {
  if (text.empty()) return;
  // Never destroyed: names outlive every recording, and the CID_TRACE_OUT
  // atexit writer reads them during process teardown.
  static auto& names = *new InternTable<Entry>(SIZE_MAX);
  const std::size_t hash = std::hash<std::string_view>{}(text);
  entry_ = names.intern(
      hash, [&](const Entry& entry) { return entry.text == text; },
      [&] { return Entry{hash, std::string(text), json_string(text)}; });
}

namespace detail {

void Recorder::fold_spans() {
  for (; folded < spans.size(); ++folded) {
    const SpanRecord& s = spans[folded];
    if (s.metrics == nullptr) continue;
    const SpanMetrics& m = *s.metrics;
    if (!m.executions.empty()) {
      counters.find_or_add(m.executions, s.name, s.rank) += 1;
    }
    if (!m.bytes.empty()) {
      counters.find_or_add(m.bytes, s.name, s.rank) += s.bytes;
    }
    if (!m.messages.empty()) {
      counters.find_or_add(m.messages, s.name, s.rank) += s.messages;
    }
    if (!m.seconds.empty()) {
      histograms.find_or_add(m.seconds, s.name, s.rank).observe(s.end -
                                                               s.begin);
    }
  }
}

void Recorder::clear() noexcept {
  spans.clear();
  folded = 0;
  counters.clear();
  histograms.clear();
}

namespace {

// Rank recorders live in a two-level directory of atomic pointers: readers
// (the probes) never lock, and a recorder once published never moves. Ranks
// past the directory record into the shared recorder.
constexpr int kChunkBits = 10;
constexpr int kChunkSize = 1 << kChunkBits;
constexpr int kChunkCount = 1 << 10;

struct Chunk {
  std::array<std::atomic<Recorder*>, kChunkSize> recorders{};
};

struct Directory {
  std::array<std::atomic<Chunk*>, kChunkCount> chunks{};
  std::mutex create_mutex;
};

Directory& directory() {
  // Intentionally leaked, like every recorder: the CID_TRACE_OUT atexit
  // writer runs during process teardown, possibly after static destructors.
  static Directory* dir = new Directory();
  return *dir;
}

Recorder* create_recorder(int rank) {
  Directory& dir = directory();
  std::lock_guard<std::mutex> lock(dir.create_mutex);
  std::atomic<Chunk*>& chunk_slot = dir.chunks[rank >> kChunkBits];
  Chunk* chunk = chunk_slot.load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk();
    chunk_slot.store(chunk, std::memory_order_release);
  }
  std::atomic<Recorder*>& slot = chunk->recorders[rank & (kChunkSize - 1)];
  Recorder* recorder = slot.load(std::memory_order_relaxed);
  if (recorder == nullptr) {
    recorder = new Recorder();
    slot.store(recorder, std::memory_order_release);
  }
  return recorder;
}

}  // namespace

Recorder* rank_recorder() {
  // A rank's probes come in runs between fiber switches: remember the last
  // rank this thread looked up.
  thread_local int cached_rank = -1;
  thread_local Recorder* cached = nullptr;
  const int rank = log::thread_rank();
  if (rank == cached_rank) return cached;
  Recorder* recorder = nullptr;
  if (rank >= 0 && rank < kChunkCount * kChunkSize) {
    const Chunk* chunk = directory().chunks[rank >> kChunkBits].load(
        std::memory_order_acquire);
    if (chunk != nullptr) {
      recorder = chunk->recorders[rank & (kChunkSize - 1)].load(
          std::memory_order_acquire);
    }
    if (recorder == nullptr) recorder = create_recorder(rank);
  }
  cached_rank = rank;
  cached = recorder;
  return recorder;
}

SharedRecorder& shared_recorder() {
  static SharedRecorder* shared = new SharedRecorder();
  return *shared;
}

std::vector<Recorder*> all_recorders() {
  std::vector<Recorder*> out;
  for (const auto& chunk_slot : directory().chunks) {
    const Chunk* chunk = chunk_slot.load(std::memory_order_acquire);
    if (chunk == nullptr) continue;
    for (const auto& slot : chunk->recorders) {
      if (Recorder* r = slot.load(std::memory_order_acquire)) {
        out.push_back(r);
      }
    }
  }
  out.push_back(&shared_recorder().recorder);
  return out;
}

std::vector<const SpanRecord*> sorted_spans() {
  const auto less = [](const SpanRecord* a, const SpanRecord* b) {
    if (a->rank != b->rank) return a->rank < b->rank;
    if (a->begin != b->begin) return a->begin < b->begin;
    if (a->end != b->end) return a->end < b->end;
    if (a->cat != b->cat) return a->cat.text() < b->cat.text();
    if (a->name != b->name) return a->name.text() < b->name.text();
    if (a->bytes != b->bytes) return a->bytes < b->bytes;
    return a->messages < b->messages;
  };
  std::vector<const SpanRecord*> out;
  std::lock_guard<std::mutex> lock(shared_recorder().mutex);
  const std::vector<Recorder*> recorders = all_recorders();
  std::size_t total = 0;
  for (const Recorder* r : recorders) total += r->spans.size();
  out.reserve(total);
  // Fold and sort each recorder's spans while they are in cache: the metric
  // readers that follow then find every span folded. When every recorder
  // holds only its own rank's spans, as a rank's fiber records them, the
  // concatenation is in order.
  for (Recorder* r : recorders) {
    r->fold_spans();
    const std::size_t first = out.size();
    for (const SpanRecord& s : r->spans) out.push_back(&s);
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              less);
  }
  if (!std::is_sorted(out.begin(), out.end(), less)) {
    std::sort(out.begin(), out.end(), less);
  }
  return out;
}

namespace {

/// Every entry of one table kind, merged by key: rows in (metric, site, rank)
/// order, with the entries of one key folded in recorder (rank) order. The
/// few distinct (metric, site) name pairs are ordered by text once, so
/// sorting the entries compares integers.
template <class V, class Fold>
std::vector<MergedRow<V>> merged_rows(MetricTable<V> Recorder::*table,
                                      Fold fold) {
  using Entry = typename MetricTable<V>::Entry;
  struct Item {
    std::uint32_t name;  ///< index into `names`, then the pair's sort position
    int rank;
    const Entry* entry;
  };
  std::lock_guard<std::mutex> lock(shared_recorder().mutex);
  MetricTable<std::uint32_t> name_ids;  // (metric, site, 0) -> 1 + name index
  std::vector<const Entry*> names;      // the first entry carrying each pair
  std::vector<Item> items;
  for (Recorder* r : all_recorders()) {
    r->fold_spans();
    for (const Entry& e : (r->*table).entries()) {
      std::uint32_t& id = name_ids.find_or_add(e.metric, e.site, 0);
      if (id == 0) {
        names.push_back(&e);
        id = static_cast<std::uint32_t>(names.size());
      }
      items.push_back({id - 1, e.rank, &e});
    }
  }
  std::vector<std::uint32_t> order(names.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const Entry& x = *names[a];
    const Entry& y = *names[b];
    return x.metric != y.metric ? x.metric.text() < y.metric.text()
                                : x.site.text() < y.site.text();
  });
  std::vector<std::uint32_t> position(names.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (Item& item : items) item.name = position[item.name];
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) {
                     return a.name != b.name ? a.name < b.name
                                             : a.rank < b.rank;
                   });

  std::vector<MergedRow<V>> out;
  out.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Entry& e = *items[i].entry;
    if (i > 0 && items[i].name == items[i - 1].name &&
        items[i].rank == items[i - 1].rank) {
      fold(out.back().value, e.value);
    } else {
      out.push_back({e.metric, e.site, e.rank, e.value});
    }
  }
  return out;
}

}  // namespace

std::vector<MergedRow<std::uint64_t>> merged_counters() {
  return merged_rows(&Recorder::counters,
                     [](std::uint64_t& sum, std::uint64_t add) { sum += add; });
}

std::vector<MergedRow<Histogram>> merged_histograms() {
  return merged_rows(&Recorder::histograms,
                     [](Histogram& into, const Histogram& h) { into.merge(h); });
}

}  // namespace detail

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

void span(int rank, Name cat, Name name, double begin, double end,
          std::uint64_t bytes, std::uint64_t messages,
          const SpanMetrics* metrics) {
  if (!enabled()) return;
  detail::record([&](detail::Recorder& r) {
    r.spans.push_back(
        {rank, cat, name, metrics, begin, end, bytes, messages});
  });
}

void span(int rank, std::string_view cat, std::string_view name, double begin,
          double end, std::uint64_t bytes, std::uint64_t messages) {
  if (!enabled()) return;
  span(rank, Name(cat), Name(name), begin, end, bytes, messages);
}

void span(const Span& s) {
  span(s.rank, s.cat, s.name, s.begin, s.end, s.bytes, s.messages);
}

void count(Name metric, Name site, int rank, std::uint64_t delta) {
  if (!enabled()) return;
  detail::record([&](detail::Recorder& r) {
    r.counters.find_or_add(metric, site, rank) += delta;
  });
}

void observe(Name metric, Name site, int rank, double value) {
  if (!enabled()) return;
  detail::record([&](detail::Recorder& r) {
    r.histograms.find_or_add(metric, site, rank).observe(value);
  });
}

void count(std::string_view metric, std::string_view site, int rank,
           std::uint64_t delta) {
  if (!enabled()) return;
  count(Name(metric), Name(site), rank, delta);
}

void observe(std::string_view metric, std::string_view site, int rank,
             double value) {
  if (!enabled()) return;
  observe(Name(metric), Name(site), rank, value);
}

std::vector<Span> spans() {
  const std::vector<const detail::SpanRecord*> sorted = detail::sorted_spans();
  std::vector<Span> out;
  out.reserve(sorted.size());
  for (const detail::SpanRecord* s : sorted) {
    out.push_back({s->rank, std::string(s->cat.text()),
                   std::string(s->name.text()), s->begin, s->end, s->bytes,
                   s->messages});
  }
  return out;
}

void clear() {
  std::lock_guard<std::mutex> lock(detail::shared_recorder().mutex);
  for (detail::Recorder* r : detail::all_recorders()) r->clear();
}

}  // namespace cid::obs
