// A lightweight declaration model of the analyzed translation unit.
//
// The analyzer runs before any real compiler, so it recovers just enough
// C/C++ declaration structure textually to reason about directive buffers:
//  - array declarations with constant extents (`double buf[4];`), feeding
//    the paper's count-inference checks;
//  - struct definitions with their field declarations, flagging pointer
//    members and nested composites — the reflection rules TypeLayout
//    enforces at run time, surfaced at lint time;
//  - CID_REFLECT_STRUCT(...) registrations;
//  - variable declarations of composite types (`AtomScalars s;`).
//
// Heuristic by design: declarations the scanner cannot parse are simply
// absent from the model, and every consumer treats "unknown" as "no
// diagnostic" — lint-time analysis must never invent a false positive from
// a parse it did not understand.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cid::translate {
struct DirectiveTree;
}  // namespace cid::translate

namespace cid::analyze {

struct StructFieldDecl {
  std::string type;  ///< leading type token(s), without '*' / array suffix
  std::string name;
  bool is_pointer = false;
  bool is_array = false;
};

struct StructDecl {
  std::string name;
  std::vector<StructFieldDecl> fields;
  bool reflected = false;  ///< CID_REFLECT_STRUCT seen for this type
  int line = 0;            ///< 1-based line of the struct keyword
};

struct SourceModel {
  /// Variable name -> constant array extent (only constant-extent arrays).
  std::map<std::string, long long> array_extents;
  /// Variable name -> declared type name (composite candidates only).
  std::map<std::string, std::string> variable_types;
  /// Struct name -> definition.
  std::map<std::string, StructDecl> structs;

  const StructDecl* struct_of_variable(const std::string& variable) const;

  /// Extent of `buffer_text` when it names a declared constant-extent array
  /// (bare identifier only; indexed or address-of expressions are unknown).
  std::optional<long long> extent_of(const std::string& buffer_text) const;

  /// Scan a source buffer (comments and strings are ignored), reading the
  /// code mask and line starts of its directive tree.
  static SourceModel scan(std::string_view source,
                          const translate::DirectiveTree& tree);
};

/// Base identifier of a buffer clause argument: `&ev[3*p]` -> "ev",
/// `stage.vr` -> "stage", `buf2` -> "buf2". Empty when there is none.
std::string buffer_base_identifier(std::string_view argument);

}  // namespace cid::analyze
