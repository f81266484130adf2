#include "explore/fuzz.hpp"

#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "common/rng.hpp"
#include "translate/translator.hpp"

namespace cid::explore {

namespace {

const char* pick(Rng& rng, const std::vector<const char*>& pool) {
  return pool[rng.next_below(pool.size())];
}

/// One generated comm_p2p line. The clause pools are chosen so the corpus
/// covers clean rings/chains, statically-provable mismatches (CID-M01x
/// material) and symbolic directives (wildcard/guard-branch material for the
/// explorer) in roughly equal measure. Sometimes its overlap body holds
/// another comm_p2p, which runs after the outer one posts.
std::string gen_p2p(Rng& rng, int& index, bool may_nest = true) {
  static const std::vector<const char*> kExactPeers = {
      "(rank+1)%nprocs", "(rank+nprocs-1)%nprocs", "rank+1", "rank-1", "0",
      "nprocs-1"};
  static const std::vector<const char*> kSymbolicPeers = {"k", "k%nprocs"};
  static const std::vector<const char*> kExactGuards = {
      "rank>0", "rank<nprocs-1", "rank%2==0", "rank!=0", "rank==0"};
  static const std::vector<const char*> kSymbolicGuards = {"k>0", "k==0"};
  static const std::vector<const char*> kSendBufs = {"a", "c"};
  static const std::vector<const char*> kRecvBufs = {"b", "d"};

  const std::string sbuf = pick(rng, kSendBufs);
  const std::string rbuf = pick(rng, kRecvBufs);
  std::string line = "#pragma comm_p2p sbuf(" + sbuf + ") rbuf(" + rbuf +
                     ") count(4)";
  switch (rng.next_below(4)) {
    case 0:  // clean ring shift
      line += " receiver((rank+1)%nprocs) sender((rank+nprocs-1)%nprocs)";
      break;
    case 1:  // guarded chain
      line += " receiver(rank+1) sendwhen(rank<nprocs-1)"
              " sender(rank-1) receivewhen(rank>0)";
      break;
    case 2: {  // arbitrary exact pair — may or may not match
      line += " receiver(" + std::string(pick(rng, kExactPeers)) + ")";
      line += " sender(" + std::string(pick(rng, kExactPeers)) + ")";
      // the grammar requires the guards paired (CID-P001): both or neither
      if (rng.next_below(2) == 0) {
        line += " sendwhen(" + std::string(pick(rng, kExactGuards)) + ")";
        line += " receivewhen(" + std::string(pick(rng, kExactGuards)) + ")";
      }
      break;
    }
    default: {  // symbolic: wildcard receives and/or branching guards
      line += " receiver(" + std::string(pick(rng, kExactPeers)) + ")";
      line += " sender(" + std::string(pick(rng, kSymbolicPeers)) + ")";
      if (rng.next_below(2) == 0) {
        line += " sendwhen(" + std::string(pick(rng, kSymbolicGuards)) + ")";
        line += " receivewhen(" + std::string(pick(rng, kExactGuards)) + ")";
      }
      break;
    }
  }
  line += "\n  { work" + std::to_string(index++) + "();";
  if (may_nest && rng.next_below(4) == 0) {
    line += "\n" + gen_p2p(rng, index, false) + " ";
  }
  return line + " }\n";
}

std::string gen_collective(Rng& rng, int& index) {
  static const std::vector<const char*> kPatterns = {
      "PATTERN_ONE_TO_MANY", "PATTERN_MANY_TO_ONE", "PATTERN_ALL_TO_ALL"};
  static const std::vector<const char*> kRoots = {"0", "nprocs-1", "k",
                                                  "nprocs"};
  std::string line = "#pragma comm_collective pattern(" +
                     std::string(pick(rng, kPatterns)) +
                     ") sbuf(a) rbuf(b) count(4)";
  if (rng.next_below(2) == 0) {
    line += " root(" + std::string(pick(rng, kRoots)) + ")";
  }
  line += "\n  { work" + std::to_string(index++) + "(); }\n";
  return line;
}

}  // namespace

std::string generate_program(std::uint64_t seed) {
  Rng rng(seed);
  std::string source =
      "// cidt fuzz seed " + std::to_string(seed) + "\n"
      "int a[8]; int b[8]; int c[8]; int d[8];\n"
      "int k;\n"
      "/* pragma text in a comment is not a directive:\n"
      "#pragma comm_p2p sbuf(a) rbuf(b) sender(0) receiver(1)\n"
      "*/\n"
      "void work0(); void work1(); void work2(); void work3(); void work4();\n"
      "void work5(); void work6(); void work7(); void work8(); void work9();\n"
      "void work10(); void work11(); void work12(); void work13();\n"
      "void work14();\n"
      "void step() {\n";
  // A region's place_sync: absent, or one of the three placements.
  static const char* const kPlaceSync[] = {
      "", " place_sync(END_PARAM_REGION)",
      " place_sync(BEGIN_NEXT_PARAM_REGION)",
      " place_sync(END_ADJ_PARAM_REGIONS)"};
  const int constructs = 1 + static_cast<int>(rng.next_below(3));
  int index = 0;
  bool deferred = false;  // lands only at a following sibling region
  for (int i = 0; i < constructs; ++i) {
    switch (deferred ? 0 : rng.next_below(5)) {
      case 0: {  // region wrapping one or two p2ps (exercises inheritance)
        // The last region of a run lands its own sync.
        const auto placement = rng.next_below(i + 1 < constructs ? 4 : 2);
        deferred = placement >= 2;
        source += "#pragma comm_parameters count(4)" +
                  std::string(kPlaceSync[placement]) + "\n  {\n";
        source += gen_p2p(rng, index);
        if (rng.next_below(4) == 0) source += gen_collective(rng, index);
        if (rng.next_below(2) == 0) source += gen_p2p(rng, index);
        source += "  }\n";
        break;
      }
      case 1:
        source += gen_collective(rng, index);
        break;
      default:
        source += gen_p2p(rng, index);
        break;
    }
  }
  source += "}\n";
  return source;
}

FuzzOutcome fuzz_one(std::uint64_t seed, const FuzzOptions& options) {
  FuzzOutcome out;
  out.seed = seed;
  out.program = generate_program(seed);

  auto translated = translate::translate_source(out.program, {});
  out.translate_ok = translated.is_ok();

  analyze::Options analyze_options;
  analyze_options.nprocs_min = options.nprocs;
  analyze_options.nprocs_max = options.nprocs;
  const analyze::Report report =
      analyze::analyze_source(out.program, analyze_options);
  out.analyze_errors = report.errors();
  out.analyze_symbolic_skips = report.symbolic_skips;
  bool m010 = false;
  bool m011 = false;
  bool m015 = false;
  for (const analyze::Diagnostic& diagnostic : report.diagnostics) {
    if (diagnostic.id == "CID-M012") out.analyze_m012 = true;
    if (diagnostic.id == "CID-M010") m010 = true;
    if (diagnostic.id == "CID-M011") m011 = true;
    if (diagnostic.id == "CID-M015") m015 = true;
  }

  Options explore_options;
  explore_options.nprocs = options.nprocs;
  explore_options.max_executions = options.max_executions;
  explore_options.max_decisions = options.max_decisions;
  auto explored = explore_source(out.program, explore_options);
  if (!explored.is_ok()) {
    // Explore refusing a program is only a disagreement when the static
    // layer thought it was fine; when analyze also errors, the layers agree
    // the program is malformed and there is nothing to compare.
    if (out.analyze_errors == 0) {
      out.divergence = true;
      out.detail = "explore rejected a program analyze accepted: " +
                   explored.status().message();
    }
    return out;
  }
  const ExploreResult& result = explored.value();
  out.explore_truncated = result.truncated;
  bool value_race = false;
  for (const analyze::Diagnostic& diagnostic : result.report.diagnostics) {
    if (diagnostic.id == "CID-E100" || diagnostic.id == "CID-E101") {
      out.explore_deadlock = true;
    }
    if (diagnostic.id == "CID-E102") value_race = true;
  }

  // rule C — the front ends disagree on the language.
  if (!out.translate_ok && out.analyze_errors == 0) {
    out.divergence = true;
    out.detail = "rule C: translate rejected (" +
                 translated.status().message() +
                 ") but analyze reported no errors";
    return out;
  }
  // rule D — the front ends disagree on which directives the file holds.
  if (translated.is_ok() && out.analyze_errors == 0) {
    const translate::Summary& summary = translated.value().summary;
    const int lowered = summary.p2p_directives +
                        summary.collective_directives +
                        summary.parameter_regions;
    if (lowered != report.directives_checked) {
      out.divergence = true;
      out.detail = "rule D: translate lowered " + std::to_string(lowered) +
                   " directive(s) but analyze checked " +
                   std::to_string(report.directives_checked);
      return out;
    }
  }
  // rule A — static sweep fully clean, exploration finds a hard defect.
  if (report.clean() && report.symbolic_skips == 0 &&
      (out.explore_deadlock || value_race)) {
    out.divergence = true;
    out.detail =
        "rule A: analyze is clean with nothing skipped, but exploration "
        "reports a deadlock or value race";
    return out;
  }
  // rule B — static proof of a never-completing receive must reproduce as a
  // deadlock in some schedule. Guarded against the cases where the models
  // legitimately differ: out-of-range peers (M010: both layers skip the op,
  // but differently), surplus sends (M011: pooled-tag matching at runtime
  // can reroute them), failed evaluations (M015) and symbolic skips.
  if (out.analyze_m012 && !m010 && !m011 && !m015 &&
      report.symbolic_skips == 0 && !out.explore_deadlock &&
      !out.explore_truncated) {
    out.divergence = true;
    out.detail =
        "rule B: analyze proved CID-M012 (receive never completes) but no "
        "explored schedule deadlocks";
    return out;
  }
  return out;
}

}  // namespace cid::explore
