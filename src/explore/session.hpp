// The schedule oracle for one controlled execution.
//
// A Session owns every source of visible nondeterminism in one run of the
// directive interpreter:
//
//   Guard  — a symbolic sendwhen/receivewhen evaluation (2 outcomes),
//   Value  — a symbolic receiver/root evaluation (nprocs outcomes),
//   Wild   — which gated message a wildcard receive consumes next.
//
// Guard/Value decisions are taken inline on the deciding rank's fiber. Wild
// decisions follow the POE/ISP discipline: the mailbox gate (installed via
// Mailbox::set_explore_hooks) hides every message from wildcard matching
// until the world is *quiescent* — the pooled scheduler's run queue is empty
// and nothing is dispatching, so every candidate that can ever compete for a
// wildcard receive at this point has arrived. The scheduler's idle hook then
// either releases exactly one candidate (a Wild decision over the maximal
// candidate set) or, when no candidate exists and ranks are still blocked,
// declares a deadlock and snapshots the per-rank wait states.
//
// Each decision consumes the next entry of the schedule prefix (0 beyond
// it), so an execution is a deterministic function of (program, schedule) —
// the driver enumerates the schedule tree and replays any prefix verbatim.
//
// The session also records the happens-before trace of the execution: a
// vector clock per rank, ticked on delivery and joined on extraction, with
// every send's clock snapshot kept for race classification.
//
// Threading: the explorer forces the pooled scheduler with ONE worker
// thread, so fibers, mailbox hooks and the idle hook all run on that single
// thread — the session needs no locks of its own.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "rt/world.hpp"

namespace cid::explore::detail {

/// The pooled point-to-point tag, matching the directive executor's one
/// tag for every comm_p2p (kDirectiveTag in core/region.cpp): every
/// directive's messages share it, so a wildcard receive competes across
/// directives exactly as executed directives would.
inline constexpr int kP2PTag = 2000;

enum class DecisionKind { Guard, Value, Wild };

/// One releasable message at a Wild decision.
struct Candidate {
  int recv_rank = -1;  ///< rank whose wildcard receive can consume it
  int recv_line = 0;   ///< source line that rank is blocked on
  std::uint64_t uid = 0;
  int src = -1;   ///< sending rank
  int site = -1;  ///< sending directive's site index (-1: not a p2p payload)
};

struct ChoicePoint {
  DecisionKind kind = DecisionKind::Guard;
  int rank = -1;  ///< deciding rank (Wild: receiver of the chosen candidate)
  int site = -1;  ///< directive site (Wild: site of the chosen send)
  int num_options = 1;
  int chosen = 0;
  std::vector<Candidate> candidates;  ///< Wild only, in option order
};

/// One delivered envelope with the sender's vector clock at delivery.
struct SendRecord {
  std::uint64_t uid = 0;
  int src = -1;
  int dest = -1;
  int site = -1;  ///< -1 for collective-internal traffic
  bool extracted = false;
  std::vector<std::uint64_t> vc;
};

/// What a rank is blocked on, maintained by the interpreter around every
/// blocking call; the deadlock report is a snapshot of these.
struct WaitInfo {
  enum Kind { kNone, kExactRecv, kWildRecv, kCollective, kDone };
  Kind kind = kNone;
  int peer = -1;  ///< kExactRecv: the awaited sending rank
  int line = 0;
};

struct RbufReuse {
  int rank = -1;
  int line_first = 0;
  int line_second = 0;
  std::string buffer;
};

class Session {
 public:
  Session(int nprocs, bool dpor, std::vector<int> schedule,
          int max_decisions);

  /// Install the delivery tap and per-mailbox wildcard gates / extract taps
  /// on the freshly built world (rt::RunOptions::world_setup).
  void install(rt::World& world);

  /// Scheduler idle hook: quiescence reached. Releases one candidate (true)
  /// or declares deadlock / truncation and poisons the world (false).
  bool on_idle();

  /// Inline Guard/Value decision on a rank fiber. Throws (after poisoning)
  /// when the decision budget is exhausted.
  int decide(DecisionKind kind, int rank, int site, int num_options);

  /// For collectively-agreed symbolic values (a collective's root): the
  /// first rank to arrive decides, every later rank reads the same value.
  int decide_shared(int rank, int site, int num_options);

  void set_wait(int rank, WaitInfo info);
  void rank_done(int rank);
  void note_rbuf_reuse(int rank, int line_first, int line_second,
                       const std::string& buffer);
  /// Model-deviation note (skipped send/receive, failed evaluation, ...).
  void note(std::string text) { notes_.push_back(std::move(text)); }

  // --- post-run results ---
  const std::vector<ChoicePoint>& choices() const { return choices_; }
  bool deadlocked() const { return deadlocked_; }
  bool cyclic() const { return cyclic_; }
  bool truncated() const { return truncated_; }
  const std::vector<WaitInfo>& wait_snapshot() const { return snapshot_; }
  const std::vector<SendRecord>& sends() const { return sends_; }
  const std::vector<RbufReuse>& rbuf_reuses() const { return rbuf_reuses_; }
  const std::vector<std::string>& notes() const { return notes_; }

  /// Neither send happens-before the other (by the recorded vector clocks).
  static bool concurrent(const SendRecord& a, const SendRecord& b);

 private:
  int take_choice(int num_options);
  bool detect_cycle() const;
  void abort_run();

  rt::World* world_ = nullptr;
  int nprocs_;
  bool dpor_;
  std::vector<int> schedule_;
  int max_decisions_;
  std::size_t cursor_ = 0;

  std::vector<ChoicePoint> choices_;
  std::set<std::uint64_t> released_;
  std::vector<SendRecord> sends_;
  std::vector<std::vector<std::uint64_t>> vc_;
  std::vector<WaitInfo> wait_;
  std::vector<std::pair<int, int>> shared_values_;  ///< (site, value)
  int done_count_ = 0;
  bool deadlocked_ = false;
  bool cyclic_ = false;
  bool truncated_ = false;
  bool aborting_ = false;
  std::vector<WaitInfo> snapshot_;
  std::vector<RbufReuse> rbuf_reuses_;
  std::vector<std::string> notes_;
};

}  // namespace cid::explore::detail
