// cid::explore — the schedule-space model checker (`cidt explore`).
//
// The static analyzer (cid::analyze) proves what it can from clause
// expressions over rank/nprocs and *skips* everything symbolic. This module
// is the dynamic complement: it runs the directive program, each rank's
// synchronization placed by core::SyncPlan where the directive executor
// places it (translate/walk.hpp), under a controlled scheduler that owns
// every source of nondeterminism — symbolic guard outcomes, symbolic
// peer/root values, and the order in which wildcard receives consume
// competing messages — and enumerates the schedule tree, DPOR-style,
// reporting:
//
//   CID-E100  cyclic-wait deadlock                       (error)
//   CID-E101  stalled ranks, no cycle (orphaned waits)   (error)
//   CID-E102  wildcard receive value race                (error)
//   CID-E103  wildcard match-order race, same site       (warning)
//   CID-E104  messages never received (stranded sends)   (warning)
//   CID-E105  receive buffer reused while in flight      (warning)
//
// Every diagnostic carries a witness schedule; replaying it
// (Options::schedule) deterministically reproduces the finding. See
// docs/EXPLORE.md.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analyze/diagnostics.hpp"
#include "common/error.hpp"

namespace cid::explore {

struct Options {
  /// Rank count of the explored executions (one fixed size per run, unlike
  /// the analyzer's sweep — schedule enumeration is per-nprocs).
  int nprocs = 4;
  /// DPOR mode (default): at each quiescence branch only over the lowest
  /// pending rank's candidates. false: naive mode, branch over every
  /// (rank, message) pair — same findings, measurably more executions.
  bool dpor = true;
  /// Stop after this many executions (the run is marked truncated).
  int max_executions = 512;
  /// Abort any single execution after this many decisions.
  int max_decisions = 128;
  /// Replay prefix: decision i takes schedule[i] (0 beyond the prefix).
  /// Combined with max_executions = 1 this replays one execution exactly.
  std::vector<int> schedule;
};

/// One diagnostic's replay recipe.
struct Witness {
  std::string id;
  int line = 0;
  std::vector<int> schedule;
};

struct ExploreResult {
  /// The findings, in the analyzer's diagnostic currency so cidt renders
  /// both layers identically.
  analyze::Report report;
  std::vector<Witness> witnesses;
  int nprocs = 0;
  bool dpor = true;
  int executions = 0;
  long long decisions = 0;  ///< total choice points across executions
  int max_depth = 0;        ///< longest decision sequence seen
  bool truncated = false;   ///< hit max_executions / max_decisions
  int symbolic_clauses = 0; ///< directives the analyzer had to skip
  std::vector<std::string> notes;  ///< model simplifications applied
};

/// Explore every schedule of the directive program in `source`. Fails only
/// on structural scan errors; unusable directives are skipped with a note.
Result<ExploreResult> explore_source(std::string_view source,
                                     const Options& options);

/// Render the result as JSON ({"cidexplore":1, ...}).
std::string to_json(const std::string& path, const ExploreResult& result);

/// Format a schedule as the --schedule argument ("1,0,2"; "-" when empty).
std::string format_schedule(const std::vector<int>& schedule);

/// Parse a --schedule argument; empty vector on "-" or "".
Result<std::vector<int>> parse_schedule(std::string_view text);

}  // namespace cid::explore
