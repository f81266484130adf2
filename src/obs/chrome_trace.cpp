// Chrome trace-event export of the obs span stream + metrics registry.
//
// Object form of the trace-event format, which Perfetto and about:tracing
// both accept:
//
//   {
//     "traceEvents": [
//       {"name":"process_name","ph":"M",...},       // metadata: process
//       {"name":"thread_name","ph":"M","tid":R,...} // metadata: one per rank
//       {"name":<site>,"cat":<phase>,"ph":"X",...}  // one slice per span
//     ],
//     "displayTimeUnit": "ns",
//     "cidMetrics": { "counters": [...], "histograms": [...] }
//   }
//
// Timestamps are virtual microseconds. Doubles are formatted with
// std::to_chars(general, 17), the same digits as %.17g, so a deterministic
// run serializes to byte-identical JSON on every host. Names are written
// from the JSON text obs::Name escaped once, when it was interned. The text
// is built in a 1 MiB char buffer and handed to the stream a buffer at a
// time.
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <vector>

#include "obs/obs.hpp"
#include "obs/recorder.hpp"

namespace cid::obs {

namespace {

/// Formats into a char buffer and writes it to the stream a buffer at a
/// time.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out), buffer_(kBufferBytes) {}
  ~JsonWriter() { flush(); }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& raw(std::string_view text) {
    std::memcpy(room(text.size()), text.data(), text.size());
    used_ += text.size();
    return *this;
  }

  template <class T>
  JsonWriter& integer(T value) {
    char* const begin = room(24);
    used_ += static_cast<std::size_t>(
        std::to_chars(begin, begin + 24, value).ptr - begin);
    return *this;
  }

  JsonWriter& number(double value) {
    // Virtual timestamps and durations repeat across ranks (a symmetric
    // halo has a few hundred distinct values in ~10^5 spans), so remember
    // the text of recent values by their exact bits.
    const auto bits = std::bit_cast<std::uint64_t>(value);
    CachedNumber& cached =
        numbers_[(bits * 0x9e3779b97f4a7c15ULL) >> (64 - kNumberCacheBits)];
    if (cached.size == 0 || cached.bits != bits) {
      const auto result =
          std::to_chars(cached.text, cached.text + sizeof(cached.text), value,
                        std::chars_format::general, 17);
      cached.bits = bits;
      cached.size = static_cast<std::uint8_t>(result.ptr - cached.text);
    }
    return raw({cached.text, cached.size});
  }

  void flush() {
    out_.write(buffer_.data(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  static constexpr std::size_t kBufferBytes = std::size_t{1} << 20;
  static constexpr int kNumberCacheBits = 10;
  struct CachedNumber {
    std::uint64_t bits = 0;
    std::uint8_t size = 0;  ///< 0 = empty slot
    char text[32] = {};     ///< %.17g needs at most 24 characters
  };

  /// Where the next `bytes` characters go: flushes a buffer that cannot
  /// take them, and grows it for one piece larger than the whole buffer.
  char* room(std::size_t bytes) {
    if (buffer_.size() - used_ < bytes) {
      flush();
      if (buffer_.size() < bytes) buffer_.resize(bytes);
    }
    return buffer_.data() + used_;
  }

  std::ostream& out_;
  std::vector<char> buffer_;
  std::size_t used_ = 0;
  std::vector<CachedNumber> numbers_ =
      std::vector<CachedNumber>(std::size_t{1} << kNumberCacheBits);
};

void write_key(JsonWriter& w, Name metric, Name site, int rank) {
  w.raw(R"({"metric":)").raw(metric.json()).raw(R"(,"site":)");
  w.raw(site.json()).raw(R"(,"rank":)").integer(rank);
}

}  // namespace

void write_chrome_json(std::ostream& out) {
  const std::vector<const detail::SpanRecord*> sorted = detail::sorted_spans();
  JsonWriter w(out);

  w.raw("{\n\"traceEvents\": [\n");
  w.raw(R"({"name":"process_name","ph":"M","pid":0,"tid":0,)"
        R"("args":{"name":"cid virtual time"}})");

  // Spans are sorted by rank first: one track per distinct rank, in order.
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const int rank = sorted[i]->rank;
    if (i > 0 && sorted[i - 1]->rank == rank) continue;
    w.raw(",\n" R"({"name":"thread_name","ph":"M","pid":0,"tid":)")
        .integer(rank)
        .raw(R"(,"args":{"name":"rank )")
        .integer(rank)
        .raw(R"("}})");
  }

  for (const detail::SpanRecord* s : sorted) {
    w.raw(",\n" R"({"name":)").raw(s->name.json());
    w.raw(R"(,"cat":)").raw(s->cat.json());
    w.raw(R"(,"ph":"X","pid":0,"tid":)").integer(s->rank);
    w.raw(R"(,"ts":)").number(s->begin * 1e6);
    w.raw(R"(,"dur":)").number((s->end - s->begin) * 1e6);
    w.raw(R"(,"args":{"bytes":)").integer(s->bytes);
    w.raw(R"(,"messages":)").integer(s->messages).raw("}}");
  }
  w.raw("\n],\n\"displayTimeUnit\": \"ns\",\n");

  w.raw("\"cidMetrics\": {\n\"counters\": [");
  bool first = true;
  for (const auto& row : detail::merged_counters()) {
    w.raw(first ? "\n" : ",\n");
    first = false;
    write_key(w, row.metric, row.site, row.rank);
    w.raw(R"(,"value":)").integer(row.value).raw("}");
  }
  w.raw("\n],\n\"histograms\": [");
  first = true;
  for (const auto& row : detail::merged_histograms()) {
    const Histogram& h = row.value;
    w.raw(first ? "\n" : ",\n");
    first = false;
    write_key(w, row.metric, row.site, row.rank);
    w.raw(R"(,"count":)").integer(h.count());
    w.raw(R"(,"sum":)").number(h.sum());
    w.raw(R"(,"min":)").number(h.min());
    w.raw(R"(,"max":)").number(h.max());
    // Sparse buckets: [index, count] pairs for non-empty buckets only.
    w.raw(R"(,"buckets":[)");
    bool first_bucket = true;
    for (int i = 0; i < Histogram::kBucketCount; ++i) {
      const std::uint64_t n = h.buckets()[static_cast<std::size_t>(i)];
      if (n == 0) continue;
      if (!first_bucket) w.raw(",");
      first_bucket = false;
      w.raw("[").integer(i).raw(",").integer(n).raw("]");
    }
    w.raw("]}");
  }
  w.raw("\n]\n}\n}\n");
}

}  // namespace cid::obs
