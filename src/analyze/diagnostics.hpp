// Diagnostic model of the static directive verifier ("cidlint").
//
// Every finding carries a stable ID (CID-<family><number>, documented in
// docs/ANALYSIS.md), a severity, a 1-based source position, a message and an
// optional fix hint. Reports render as human-readable compiler-style lines
// or as a machine-readable JSON document for CI gating.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace cid::analyze {

enum class Severity { Warning, Error };

std::string_view severity_name(Severity severity) noexcept;

struct Diagnostic {
  std::string id;  ///< stable, e.g. "CID-M012"
  Severity severity = Severity::Error;
  int line = 0;    ///< 1-based; 0 when the finding has no position
  int column = 0;  ///< 1-based; 0 when unknown
  std::string message;
  std::string hint;  ///< optional "fix it by ..." suggestion
};

/// The result of analyzing one source buffer.
struct Report {
  std::vector<Diagnostic> diagnostics;
  int directives_checked = 0;
  /// Directives whose match sweep was skipped because a clause references
  /// variables beyond rank/nprocs — nothing is provable statically about
  /// them. Surfaced (never silently dropped) in both renderers: these are
  /// exactly the directives `cidt explore` checks dynamically.
  int symbolic_skips = 0;

  int errors() const noexcept;
  int warnings() const noexcept;
  bool clean() const noexcept { return diagnostics.empty(); }

  void add(std::string id, Severity severity, int line, int column,
           std::string message, std::string hint = {});

  /// Order by line, then column, then ID — the order both renderers emit.
  void sort();
};

/// One analyzed file, for multi-file renderings.
struct FileReport {
  std::string path;
  Report report;
};

/// Compiler-style rendering: `path:line:col: severity: [ID] message`.
void print_human(const FileReport& file, std::ostream& out);

/// The stable JSON document (schema documented in docs/ANALYSIS.md):
/// {"cidlint":1,"files":[{"path","diagnostics":[...]}],
///  "summary":{"files","directives","errors","warnings"}}.
std::string to_json(const std::vector<FileReport>& files);

/// Append `text` as a quoted, escaped JSON string (shared with
/// `cidt explore --json`).
void append_json_string(std::string& out, std::string_view text);

}  // namespace cid::analyze
