#include "explore/session.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace cid::explore::detail {

Session::Session(int nprocs, bool dpor, std::vector<int> schedule,
                 int max_decisions)
    : nprocs_(nprocs),
      dpor_(dpor),
      schedule_(std::move(schedule)),
      max_decisions_(max_decisions),
      vc_(nprocs, std::vector<std::uint64_t>(nprocs, 0)),
      wait_(nprocs) {}

void Session::install(rt::World& world) {
  world_ = &world;
  // Delivery tap: runs on the sending fiber before the envelope is routed.
  // Assigns the stable per-run uid, ticks the sender's vector clock and
  // snapshots it into the send record.
  world.set_delivery_tap([this](rt::Envelope& envelope, int dest) {
    if (envelope.src < 0 || envelope.src >= nprocs_) return;
    ++vc_[envelope.src][envelope.src];
    SendRecord record;
    record.uid = sends_.size() + 1;
    record.src = envelope.src;
    record.dest = dest;
    record.vc = vc_[envelope.src];
    // A directive payload carries {site, sender}; anything else (collective
    // tree traffic) keeps site -1 and only contributes happens-before edges.
    if (envelope.channel == rt::Channel::MpiPointToPoint &&
        envelope.tag == kP2PTag && envelope.payload.size() >= sizeof(int)) {
      int site = 0;
      std::memcpy(&site, envelope.payload.span().data(), sizeof(int));
      record.site = site;
    }
    envelope.explore_uid = record.uid;
    sends_.push_back(std::move(record));
  });
  for (int r = 0; r < nprocs_; ++r) {
    // The gate hides envelopes from *wildcard* matching until released at a
    // quiescence point; exact-key matching is never gated. The extract tap
    // joins the receiver's vector clock with the send's snapshot. Both run
    // under the mailbox mutex on the single worker thread.
    world.mailbox(r).set_explore_hooks(
        [this](const rt::Envelope& envelope) {
          return envelope.explore_uid == 0 ||
                 released_.count(envelope.explore_uid) > 0;
        },
        [this, r](const rt::Envelope& envelope) {
          if (envelope.explore_uid == 0) return;
          SendRecord& record = sends_[envelope.explore_uid - 1];
          record.extracted = true;
          for (int k = 0; k < nprocs_; ++k) {
            vc_[r][k] = std::max(vc_[r][k], record.vc[k]);
          }
          ++vc_[r][r];
        });
  }
}

int Session::take_choice(int num_options) {
  int choice = 0;
  if (cursor_ < schedule_.size()) choice = schedule_[cursor_];
  ++cursor_;
  if (choice < 0) choice = 0;
  if (choice >= num_options) choice = num_options - 1;
  return choice;
}

void Session::abort_run() {
  aborting_ = true;
  world_->poison();
}

int Session::decide(DecisionKind kind, int rank, int site, int num_options) {
  if (num_options < 1) num_options = 1;
  if (static_cast<int>(choices_.size()) >= max_decisions_) {
    truncated_ = true;
    abort_run();
    throw CidError(ErrorCode::RuntimeFault,
                   "cid::explore: decision budget exhausted");
  }
  ChoicePoint point;
  point.kind = kind;
  point.rank = rank;
  point.site = site;
  point.num_options = num_options;
  point.chosen = take_choice(num_options);
  choices_.push_back(point);
  return point.chosen;
}

int Session::decide_shared(int rank, int site, int num_options) {
  for (const auto& [decided_site, value] : shared_values_) {
    if (decided_site == site) return value;
  }
  const int value = decide(DecisionKind::Value, rank, site, num_options);
  shared_values_.emplace_back(site, value);
  return value;
}

void Session::set_wait(int rank, WaitInfo info) { wait_[rank] = info; }

void Session::rank_done(int rank) {
  wait_[rank] = WaitInfo{WaitInfo::kDone, -1, 0};
  ++done_count_;
}

void Session::note_rbuf_reuse(int rank, int line_first, int line_second,
                              const std::string& buffer) {
  rbuf_reuses_.push_back({rank, line_first, line_second, buffer});
}

bool Session::detect_cycle() const {
  // Walk the exact-receive wait-for edges; any walk that revisits a rank
  // proves a cyclic wait (E100). Everything else is a stall (E101).
  for (int start = 0; start < nprocs_; ++start) {
    int current = start;
    std::vector<char> on_path(nprocs_, 0);
    while (current >= 0 && current < nprocs_ &&
           snapshot_[current].kind == WaitInfo::kExactRecv) {
      if (on_path[current]) return true;
      on_path[current] = 1;
      current = snapshot_[current].peer;
    }
  }
  return false;
}

bool Session::on_idle() {
  if (aborting_ || done_count_ == nprocs_) return false;
  // Quiescence: every unfinished rank is parked. The gated envelopes
  // admissible by some registered wildcard waiter are the maximal candidate
  // set — nothing else can arrive until one of them is released.
  std::vector<Candidate> all;
  for (int r = 0; r < nprocs_; ++r) {
    for (const rt::Mailbox::HeldCandidate& held :
         world_->mailbox(r).held_candidates()) {
      Candidate candidate;
      candidate.recv_rank = r;
      candidate.recv_line = wait_[r].line;
      candidate.uid = held.uid;
      candidate.src = held.src;
      if (held.uid >= 1 && held.uid <= sends_.size()) {
        candidate.site = sends_[held.uid - 1].site;
      }
      all.push_back(candidate);
    }
  }
  if (all.empty()) {
    deadlocked_ = true;
    snapshot_ = wait_;
    cyclic_ = detect_cycle();
    abort_run();
    return false;
  }
  if (static_cast<int>(choices_.size()) >= max_decisions_) {
    truncated_ = true;
    abort_run();
    return false;
  }
  // DPOR-style persistent set: wildcard resolutions on different ranks touch
  // disjoint mailboxes and commute, so branching over one rank's candidates
  // (the lowest pending, canonically) covers the schedule space. Naive mode
  // branches over every (rank, message) pair — strictly more executions,
  // same findings; the gap is the measured reduction.
  std::vector<Candidate> options;
  if (dpor_) {
    int lowest = all.front().recv_rank;
    for (const Candidate& candidate : all) {
      lowest = std::min(lowest, candidate.recv_rank);
    }
    for (const Candidate& candidate : all) {
      if (candidate.recv_rank == lowest) options.push_back(candidate);
    }
  } else {
    options = all;
  }
  ChoicePoint point;
  point.kind = DecisionKind::Wild;
  point.num_options = static_cast<int>(options.size());
  point.chosen = take_choice(point.num_options);
  const Candidate& chosen = options[point.chosen];
  point.rank = chosen.recv_rank;
  point.site = chosen.site;
  point.candidates = std::move(options);
  choices_.push_back(std::move(point));
  released_.insert(chosen.uid);
  // Wake the receiving rank's parked waiter so it rescans and matches the
  // released envelope (interrupt_all is a rescan signal, not an error, when
  // the world is healthy).
  world_->mailbox(chosen.recv_rank).interrupt_all();
  return true;
}

bool Session::concurrent(const SendRecord& a, const SendRecord& b) {
  bool a_le_b = true;
  bool b_le_a = true;
  for (std::size_t k = 0; k < a.vc.size() && k < b.vc.size(); ++k) {
    if (a.vc[k] > b.vc[k]) a_le_b = false;
    if (b.vc[k] > a.vc[k]) b_le_a = false;
  }
  return !a_le_b && !b_le_a;
}

}  // namespace cid::explore::detail
