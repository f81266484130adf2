// The cross-layer directive fuzzer (`cidt fuzz`).
//
// Seeded generation of well-formed pragma programs, each pushed through all
// three intent layers — translate (must it lower?), analyze (what does the
// static sweep prove?) and explore (what do the schedules actually do?) —
// with the layers cross-checked against each other. A divergence is a bug in
// one of the layers by construction:
//
//   rule A  analyze is fully clean (no diagnostics, no symbolic skips) yet
//           exploration finds a deadlock or value race (E100/E101/E102):
//           the static matcher missed a provable defect.
//   rule B  analyze proves a never-completing receive (CID-M012, with no
//           muddying CID-M010/M011/M015 on the same file) yet no explored
//           schedule deadlocks: the dynamic model missed a proven defect.
//   rule C  translate rejects a program analyze accepted without errors:
//           the front ends disagree on the language.
//   rule D  translate and analyze both accept the program, but the
//           translator lowered a different number of directives
//           (p2p_directives + collective_directives + parameter_regions)
//           than the analyzer checked (directives_checked): the front
//           ends disagree on which directives the file holds. Every
//           generated program carries a pragma inside a block comment,
//           which is not a directive.
//
// Symbolic programs (analyze skips, explore branches) are exercised but
// exempt from rule A — that division of labor is the design, not a bug.
#pragma once

#include <cstdint>
#include <string>

#include "explore/explore.hpp"

namespace cid::explore {

struct FuzzOptions {
  int nprocs = 3;
  int max_executions = 128;
  int max_decisions = 64;
};

struct FuzzOutcome {
  std::uint64_t seed = 0;
  std::string program;
  bool divergence = false;
  std::string detail;  ///< which rule fired and why (empty when none)
  // layer observations, for summaries and tests
  bool translate_ok = false;
  int analyze_errors = 0;
  int analyze_symbolic_skips = 0;
  bool analyze_m012 = false;
  bool explore_deadlock = false;
  bool explore_truncated = false;
};

/// Deterministically generate one directive program from a seed.
std::string generate_program(std::uint64_t seed);

/// Generate, run all three layers, cross-check. Never throws on layer
/// disagreement — that is the reportable outcome.
FuzzOutcome fuzz_one(std::uint64_t seed, const FuzzOptions& options);

}  // namespace cid::explore
