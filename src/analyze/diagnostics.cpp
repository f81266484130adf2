#include "analyze/diagnostics.hpp"

#include <algorithm>
#include <ostream>

namespace cid::analyze {

std::string_view severity_name(Severity severity) noexcept {
  return severity == Severity::Error ? "error" : "warning";
}

int Report::errors() const noexcept {
  int n = 0;
  for (const auto& d : diagnostics) {
    if (d.severity == Severity::Error) ++n;
  }
  return n;
}

int Report::warnings() const noexcept {
  return static_cast<int>(diagnostics.size()) - errors();
}

void Report::add(std::string id, Severity severity, int line, int column,
                 std::string message, std::string hint) {
  Diagnostic d;
  d.id = std::move(id);
  d.severity = severity;
  d.line = line;
  d.column = column;
  d.message = std::move(message);
  d.hint = std::move(hint);
  diagnostics.push_back(std::move(d));
}

void Report::sort() {
  std::stable_sort(diagnostics.begin(), diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.line != b.line) return a.line < b.line;
                     if (a.column != b.column) return a.column < b.column;
                     return a.id < b.id;
                   });
}

void print_human(const FileReport& file, std::ostream& out) {
  for (const auto& d : file.report.diagnostics) {
    out << file.path << ':' << d.line << ':' << d.column << ": "
        << severity_name(d.severity) << ": [" << d.id << "] " << d.message
        << '\n';
    if (!d.hint.empty()) out << "  hint: " << d.hint << '\n';
  }
  if (file.report.symbolic_skips > 0) {
    out << file.path << ": note: " << file.report.symbolic_skips
        << " directive(s) skipped: symbolic clause(s) reference variables "
           "beyond rank/nprocs; nothing is provable statically\n"
        << "  hint: run `cidt explore " << file.path
        << "` to check the skipped directives dynamically\n";
  }
}

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string to_json(const std::vector<FileReport>& files) {
  int errors = 0;
  int warnings = 0;
  int directives = 0;
  int symbolic_skips = 0;
  std::string out = "{\"cidlint\":1,\"files\":[";
  bool first_file = true;
  for (const auto& file : files) {
    if (!first_file) out += ',';
    first_file = false;
    out += "{\"path\":";
    append_json_string(out, file.path);
    out += ",\"directives\":" + std::to_string(file.report.directives_checked);
    out += ",\"symbolic_skips\":" + std::to_string(file.report.symbolic_skips);
    out += ",\"diagnostics\":[";
    bool first = true;
    for (const auto& d : file.report.diagnostics) {
      if (!first) out += ',';
      first = false;
      out += "{\"id\":";
      append_json_string(out, d.id);
      out += ",\"severity\":\"";
      out += severity_name(d.severity);
      out += "\",\"line\":" + std::to_string(d.line);
      out += ",\"column\":" + std::to_string(d.column);
      out += ",\"message\":";
      append_json_string(out, d.message);
      if (!d.hint.empty()) {
        out += ",\"hint\":";
        append_json_string(out, d.hint);
      }
      out += '}';
    }
    out += "]}";
    errors += file.report.errors();
    warnings += file.report.warnings();
    directives += file.report.directives_checked;
    symbolic_skips += file.report.symbolic_skips;
  }
  out += "],\"summary\":{\"files\":" + std::to_string(files.size()) +
         ",\"directives\":" + std::to_string(directives) +
         ",\"symbolic_skips\":" + std::to_string(symbolic_skips) +
         ",\"errors\":" + std::to_string(errors) +
         ",\"warnings\":" + std::to_string(warnings) + "}}";
  return out;
}

}  // namespace cid::analyze
