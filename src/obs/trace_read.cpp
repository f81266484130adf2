#include "obs/trace_read.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace cid::obs {

namespace {

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

 private:
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
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) return out;
    for (;;) {
      skip_ws();
      auto key = parse_string();
      if (!key.is_ok()) return key;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      auto value = parse_value();
      if (!value.is_ok()) return value;
      out.object.emplace(std::move(key.value().string),
                         std::move(value).take());
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return out;
      return fail("expected ',' or '}'");
    }
  }

  Result<Json> parse_array() {
    Json out;
    out.kind = Json::Kind::Array;
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) return out;
    for (;;) {
      auto value = parse_value();
      if (!value.is_ok()) return value;
      out.array.push_back(std::move(value).take());
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return out;
      return fail("expected ',' or ']'");
    }
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

}  // namespace

Result<Json> parse_json(std::string_view text) {
  return Parser(text).parse();
}

Result<TraceFile> parse_trace(std::string_view text) {
  auto document = parse_json(text);
  if (!document.is_ok()) return Result<TraceFile>(document.status());
  const Json& root = document.value();

  const Json* events =
      root.kind == Json::Kind::Object ? root.find("traceEvents") : nullptr;
  if (events == nullptr || events->kind != Json::Kind::Array) {
    return Result<TraceFile>(
        Status(ErrorCode::ParseError,
               "trace: expected an object with a \"traceEvents\" array"));
  }
  TraceFile out;
  if (const Json* metrics = root.find("cidMetrics");
      metrics != nullptr && metrics->kind == Json::Kind::Object) {
    load_metrics(*metrics, out);
  }
  for (const Json& event : events->array) {
    if (event.kind == Json::Kind::Object) load_event(event, out);
  }
  return out;
}

Result<TraceFile> read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Result<TraceFile>(
        Status(ErrorCode::IoError, "cannot read '" + path + "'"));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_trace(buffer.str());
}

}  // namespace cid::obs
