// Source-to-source translation of the communication directives: the role
// Open64 plays in the paper. The translator consumes C/C++ source containing
// #pragma comm_parameters / comm_p2p / comm_collective and emits source in
// which every directive has been replaced by the call the embedded API makes
// for it (core::comm_parameters, core::comm_p2p, core::comm_collective), so
// translated code runs the directive executor, exactly like a program
// written against the embedded API:
//
//   #pragma comm_parameters ...   ->  ::cid::core::comm_parameters(
//   { body }                               <own clauses>,
//                                          [&](::cid::core::Region&) { body });
//   #pragma comm_p2p ...          ->  ::cid::core::comm_p2p(<own clauses>
//   { overlap }                            [, [&]() { overlap }]);
//
// Clause expressions become lambdas evaluated in the user's scope, buffers
// become core::buf descriptors, keywords their core enumerators. Each
// directive carries only its own clauses: the executor inherits the rest
// through its region stack and alone decides target choice, count
// inference, datatypes, persistent requests and where synchronization lands
// (place_sync). A comm_collective, which the executor does not let inherit,
// carries the collective clauses of its statically merged clause set. The
// translator keeps the static checks: required clauses after inheritance,
// keywords, reliability only on MPI two-sided, no collective inside a
// reliability region, root on every collective but all-to-all, and no
// one-sided collective.
//
// The translator finds no directives of its own: it walks the tree that
// scan_directives() (translate/scan.hpp) builds, the same tree the analyzer
// and the explorer read, copying the text between directives verbatim.
// Pragma text in comments or string literals is therefore not a directive,
// and directives nested in an overlap body are translated with the
// enclosing region.
//
// Scope, matching the paper's structured-region design: a directive must be
// followed by a statement or a brace-delimited block (the overlap region for
// comm_p2p, the clause scope for comm_parameters). Pragma lines may be
// continued with trailing backslashes. Region and overlap bodies become
// lambdas: break/continue/goto out of them do not compile, and return ends
// only the body.
#pragma once

#include <string>
#include <string_view>

#include "common/error.hpp"
#include "core/clauses.hpp"

namespace cid::translate {

struct Options {
  /// Target of a top-level directive (and of a comm_collective) whose
  /// clauses, inherited ones included, name none.
  core::Target default_target = core::Target::Mpi2Side;
  /// Emit explanatory comments in the generated code.
  bool annotate = true;
};

/// Statistics of one translation.
struct Summary {
  int p2p_directives = 0;
  int collective_directives = 0;
  int parameter_regions = 0;
  /// Regions carrying a reliability clause, their own or inherited.
  int reliable_regions = 0;
};

struct Translation {
  std::string source;
  Summary summary;
};

/// Translate a whole source buffer. Fails with a "line N: " message on the
/// first scan issue (malformed pragma, missing body, unbalanced braces,
/// unterminated continuation) or on a directive that cannot be lowered.
Result<Translation> translate_source(std::string_view source,
                                     const Options& options = {});

}  // namespace cid::translate
