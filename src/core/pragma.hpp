// Textual form of the directives:
//   #pragma comm_parameters sender(rank-1) receiver(rank+1) ...
//   #pragma comm_p2p sbuf(buf1) rbuf(buf2) count(n)
//
// parse_pragma() produces a structural representation used by the
// source-to-source translator and by the string-based runtime API
// (clauses_from_parsed + a BufferTable binding buffer names to BufferRefs).
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/clauses.hpp"

namespace cid::core {

enum class DirectiveKind { CommParameters, CommP2P, CommCollective };

std::string_view directive_name(DirectiveKind kind) noexcept;

struct RawClause {
  std::string name;
  std::vector<std::string> args;  ///< top-level comma-split, trimmed
  /// Byte offset of the clause name within the text given to parse_pragma
  /// (continuation lines already joined) — lets diagnostics point at the
  /// clause instead of the start of the pragma.
  std::size_t offset = 0;
};

struct ParsedDirective {
  DirectiveKind kind = DirectiveKind::CommP2P;
  std::vector<RawClause> clauses;

  /// First clause with the given name, or nullptr.
  const RawClause* find(std::string_view name) const noexcept;
};

/// A region directive's own place_sync (never inherited from an enclosing
/// region), END_PARAM_REGION when the clause is absent.
Result<SyncPlacement> place_sync_of(const ParsedDirective& directive);

/// Parse one pragma line (continuation lines already joined). Accepts both
/// "#pragma comm_p2p ..." and the bare "comm_p2p ..." form. Validates clause
/// names, arity and duplicates.
Result<ParsedDirective> parse_pragma(std::string_view line);

/// Binds buffer names appearing in textual sbuf/rbuf clauses to BufferRefs.
class BufferTable {
 public:
  void add(std::string name, BufferRef buffer) {
    buffers_[std::move(name)] = std::move(buffer);
  }
  /// Lookup by the exact clause argument text (e.g. "buf1", "&ev[3*p]").
  Result<BufferRef> lookup(const std::string& name) const;

 private:
  std::map<std::string, BufferRef> buffers_;
};

/// Build an executable clause set from a parsed directive. Expression
/// clauses are parsed into Exprs; sbuf/rbuf arguments are resolved through
/// `buffers` (must be non-null when the directive lists buffers).
Result<Clauses> clauses_from_parsed(const ParsedDirective& directive,
                                    const BufferTable* buffers);

}  // namespace cid::core
