// cid::analyze — the static directive verifier behind `cidt check`.
//
// Verifies a directive program without executing it, over the lexical
// region tree produced by translate::scan_directives():
//  1. rank-symbolic match analysis: sender/receiver/sendwhen/receivewhen
//     expressions are evaluated on every rank for every nprocs in a swept
//     range, pairing each posted send with the receive that should consume
//     it — stranded sends, receives that never fire, and out-of-range peers
//     become diagnostics long before the program deadlocks at run time;
//  2. buffer race detection: a transfer touching a buffer a previous
//     receive still writes (the executor's hidden sync), sbuf/rbuf
//     self-aliasing, and overlap-region statements that touch in-flight
//     buffers;
//  3. sync placement and inheritance validation: dangling
//     BEGIN_NEXT_PARAM_REGION / END_ADJ_PARAM_REGIONS, max_comm_iter
//     conflicts, contradictory inherited clauses, count/extent mismatches;
//  4. reflection rules (pointer members, nested composites) surfaced at
//     lint time instead of at TypeLayout instantiation.
//
// Every diagnostic ID is documented with a minimal triggering example in
// docs/ANALYSIS.md.
#pragma once

#include <string_view>

#include "analyze/diagnostics.hpp"

namespace cid::analyze {

struct Options {
  /// Inclusive nprocs sweep for rank-symbolic match analysis. The defaults
  /// cover the boundary cases (2) and enough ranks to expose modular and
  /// parity patterns (8).
  int nprocs_min = 2;
  int nprocs_max = 8;
};

/// Analyze one source buffer. Never fails: unreadable constructs produce
/// diagnostics (or are skipped), not errors.
Report analyze_source(std::string_view source, const Options& options = {});

}  // namespace cid::analyze
