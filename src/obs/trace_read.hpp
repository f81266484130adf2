// Reading trace files back: a minimal JSON parser (sufficient for the
// Chrome trace-event format) and the loader for the one trace shape this
// repository emits — the {"traceEvents": [...], "cidMetrics": {...}} object
// written by cid::obs::write_chrome_json.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace cid::obs {

/// A parsed JSON value. Numbers are doubles (the trace schema never needs
/// integers beyond 2^53).
struct Json {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  const Json* find(std::string_view key) const {
    auto it = object.find(std::string(key));
    return it == object.end() ? nullptr : &it->second;
  }
};

/// Parse a complete JSON document (trailing whitespace allowed).
Result<Json> parse_json(std::string_view text);

/// One trace slice as read back from a file.
struct TraceSpan {
  int rank = 0;
  std::string cat;
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
};

/// Metric rows read back from the "cidMetrics" section.
struct TraceCounter {
  std::string metric;
  std::string site;
  int rank = -1;
  std::uint64_t value = 0;
};
struct TraceHistogram {
  std::string metric;
  std::string site;
  int rank = -1;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct TraceFile {
  std::vector<TraceSpan> spans;  ///< "ph":"X" events only (metadata skipped)
  std::vector<TraceCounter> counters;
  std::vector<TraceHistogram> histograms;
};

/// Load a trace file from disk.
Result<TraceFile> read_trace_file(const std::string& path);

/// Parse an in-memory trace document; ParseError unless it is an object
/// with a "traceEvents" array.
Result<TraceFile> parse_trace(std::string_view text);

}  // namespace cid::obs
