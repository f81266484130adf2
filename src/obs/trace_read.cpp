#include "obs/trace_read.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>

namespace cid::obs {

namespace {

double number_or(const Json& event, std::string_view key, double fallback) {
  const Json* value = event.find(key);
  return value != nullptr && value->kind == Json::Kind::Number ? value->number
                                                               : fallback;
}

std::string string_or(const Json& event, std::string_view key) {
  const Json* value = event.find(key);
  return value != nullptr && value->kind == Json::Kind::String ? value->string
                                                               : std::string();
}

void load_event(const Json& event, TraceFile& out) {
  const Json* ph = event.find("ph");
  if (ph == nullptr || ph->string != "X") return;  // metadata / counters
  TraceSpan span;
  span.rank = static_cast<int>(number_or(event, "tid", 0.0));
  span.cat = string_or(event, "cat");
  span.name = string_or(event, "name");
  span.ts_us = number_or(event, "ts", 0.0);
  span.dur_us = number_or(event, "dur", 0.0);
  if (const Json* args = event.find("args");
      args != nullptr && args->kind == Json::Kind::Object) {
    span.bytes = static_cast<std::uint64_t>(number_or(*args, "bytes", 0.0));
    span.messages =
        static_cast<std::uint64_t>(number_or(*args, "messages", 0.0));
  }
  out.spans.push_back(std::move(span));
}

void load_metrics(const Json& metrics, TraceFile& out) {
  if (const Json* counters = metrics.find("counters");
      counters != nullptr && counters->kind == Json::Kind::Array) {
    for (const Json& row : counters->array) {
      out.counters.push_back(
          {string_or(row, "metric"), string_or(row, "site"),
           static_cast<int>(number_or(row, "rank", -1.0)),
           static_cast<std::uint64_t>(number_or(row, "value", 0.0))});
    }
  }
  if (const Json* histograms = metrics.find("histograms");
      histograms != nullptr && histograms->kind == Json::Kind::Array) {
    for (const Json& row : histograms->array) {
      out.histograms.push_back(
          {string_or(row, "metric"), string_or(row, "site"),
           static_cast<int>(number_or(row, "rank", -1.0)),
           static_cast<std::uint64_t>(number_or(row, "count", 0.0)),
           number_or(row, "sum", 0.0), number_or(row, "min", 0.0),
           number_or(row, "max", 0.0)});
    }
  }
}

/// Recursive-descent JSON parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> parse() {
    auto value = parse_value();
    if (!value.is_ok()) return value;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return value;
  }

  /// Parse a trace document into `out` without building it as one tree:
  /// walk the top-level object, load each "traceEvents" element and drop it,
  /// and keep only "cidMetrics" as a tree. Validates like parse(); for a
  /// repeated key the first occurrence counts, as in parse_json.
  Status parse_trace(TraceFile& out) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '{') {
      auto value = parse();
      return value.is_ok() ? not_a_trace() : value.status();
    }
    bool seen_events = false;
    bool events_ok = false;
    std::optional<Json> metrics;
    CID_RETURN_IF_ERROR(walk_object([&](const std::string& key) -> Status {
      if (key == "traceEvents" && !seen_events) {
        seen_events = true;
        skip_ws();
        events_ok = pos_ < text_.size() && text_[pos_] == '[';
        if (events_ok) {
          return walk_array([&](const Json& event) {
            if (event.kind == Json::Kind::Object) load_event(event, out);
          });
        }
      }
      auto value = parse_value();
      if (!value.is_ok()) return value.status();
      if (key == "cidMetrics" && !metrics) metrics = std::move(value).take();
      return Status::ok();
    }));
    skip_ws();
    if (pos_ != text_.size()) return error("trailing characters");
    if (!events_ok) return not_a_trace();
    if (metrics && metrics->kind == Json::Kind::Object) {
      load_metrics(*metrics, out);
    }
    return Status::ok();
  }

 private:
  static Status not_a_trace() {
    return Status(ErrorCode::ParseError,
                  "trace: expected an object with a \"traceEvents\" array");
  }

  /// An object's members in order (cursor on '{'); `member(key)` parses the
  /// value after the key.
  template <class Member>
  Status walk_object(Member&& member) {
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) return Status::ok();
    for (;;) {
      skip_ws();
      auto key = parse_string();
      if (!key.is_ok()) return key.status();
      skip_ws();
      if (!consume(':')) return error("expected ':'");
      CID_RETURN_IF_ERROR(member(key.value().string));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return Status::ok();
      return error("expected ',' or '}'");
    }
  }

  /// An array's elements in order (cursor on '['), each handed to
  /// `element` as soon as it is parsed.
  template <class Element>
  Status walk_array(Element&& element) {
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) return Status::ok();
    for (;;) {
      auto value = parse_value();
      if (!value.is_ok()) return value.status();
      element(std::move(value).take());
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return Status::ok();
      return error("expected ',' or ']'");
    }
  }

  Status error(const std::string& message) const {
    return Status(ErrorCode::ParseError,
                  "json: " + message + " at offset " + std::to_string(pos_));
  }
  Result<Json> fail(const std::string& message) const {
    return Result<Json>(error(message));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<Json> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string();
    if (consume_word("true")) {
      Json v;
      v.kind = Json::Kind::Bool;
      v.boolean = true;
      return v;
    }
    if (consume_word("false")) {
      Json v;
      v.kind = Json::Kind::Bool;
      return v;
    }
    if (consume_word("null")) return Json{};
    return parse_number();
  }

  Result<Json> parse_object() {
    Json out;
    out.kind = Json::Kind::Object;
    Status status = walk_object([&](std::string& key) -> Status {
      auto value = parse_value();
      if (!value.is_ok()) return value.status();
      out.object.emplace(std::move(key), std::move(value).take());
      return Status::ok();
    });
    if (!status.is_ok()) return Result<Json>(status);
    return out;
  }

  Result<Json> parse_array() {
    Json out;
    out.kind = Json::Kind::Array;
    Status status = walk_array(
        [&](Json&& value) { out.array.push_back(std::move(value)); });
    if (!status.is_ok()) return Result<Json>(status);
    return out;
  }

  Result<Json> parse_string() {
    if (!consume('"')) return fail("expected string");
    Json out;
    out.kind = Json::Kind::String;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.string.push_back('"'); break;
          case '\\': out.string.push_back('\\'); break;
          case '/': out.string.push_back('/'); break;
          case 'n': out.string.push_back('\n'); break;
          case 't': out.string.push_back('\t'); break;
          case 'r': out.string.push_back('\r'); break;
          case 'b': out.string.push_back('\b'); break;
          case 'f': out.string.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            const std::string hex(text_.substr(pos_, 4));
            pos_ += 4;
            const long code = std::strtol(hex.c_str(), nullptr, 16);
            // Trace strings are ASCII; map anything else to '?'.
            out.string.push_back(code < 0x80 ? static_cast<char>(code) : '?');
            break;
          }
          default: return fail("unknown escape");
        }
      } else {
        out.string.push_back(c);
      }
    }
    return fail("unterminated string");
  }

  Result<Json> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '-' || text_[pos_] == '+') &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("bad number");
    Json out;
    out.kind = Json::Kind::Number;
    out.number = value;
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Json> parse_json(std::string_view text) {
  return Parser(text).parse();
}

Result<TraceFile> parse_trace(std::string_view text) {
  TraceFile out;
  if (Status status = Parser(text).parse_trace(out); !status.is_ok()) {
    return Result<TraceFile>(status);
  }
  return out;
}

Result<TraceFile> read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Result<TraceFile>(
        Status(ErrorCode::IoError, "cannot read '" + path + "'"));
  }
  std::string text;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size >= 0) {
    text.resize(static_cast<std::size_t>(size));
    in.seekg(0, std::ios::beg);
    in.read(text.data(), size);
    text.resize(static_cast<std::size_t>(in.gcount()));
  } else {  // not seekable (a pipe): read to the end
    in.clear();
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  return parse_trace(text);
}

}  // namespace cid::obs
