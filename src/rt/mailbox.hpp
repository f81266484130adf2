// Per-rank mailbox: a mutex+condvar guarded arrival store with structured,
// indexed matching.
//
// Envelopes live in one slab of slots per mailbox, recycled through a free
// list. Each slot is linked into two intrusive doubly linked lists: the
// arrival-order list of its (channel, context) bucket and the FIFO
// sub-queue of its (src, tag) inside that bucket. Both lists are ordered by
// a global arrival sequence number (`seq`). Matching is expressed as a
// MatchKey — exact values or wildcards for src/tag plus a fault-tombstone
// filter — so:
//
//  - the common exact-match extract is a hash lookup + front-of-queue pop
//    instead of a linear std::function scan of the whole queue;
//  - extraction through any key unlinks the slot from both of its lists in
//    O(1), so no index ever holds a stale entry;
//  - wildcard matches scan one bucket in arrival order, never unrelated
//    channels/contexts, and one pass over a bucket serves every non-exact
//    key on it;
//  - MPI's non-overtaking guarantee holds by construction: within a bucket
//    both the arrival list and every (src, tag) sub-queue are seq-ordered,
//    and multi-key searches always return the lowest-seq match across keys;
//  - blocking waits resume from a seq watermark after each wakeup (only
//    newly arrived envelopes are examined — a rejected envelope is never
//    rescanned within one wait, since keys are fixed for the call);
//  - push() wakes a waiter only when the new envelope can match one of its
//    registered keys; a push nobody could want costs no syscall;
//  - once the slab and the two open-addressed list indexes have grown to the
//    mailbox's peak occupancy, push and extract allocate nothing: a list
//    index entry is erased when its list empties, so keys that never recur
//    (the reliability protocol's per-transfer tags) do not accumulate.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "rt/envelope.hpp"
#include "rt/sched.hpp"

namespace cid::rt {

/// Wildcard value for MatchKey::src / MatchKey::tag. Distinct from -1, which
/// is a legal envelope src/tag value.
inline constexpr int kMatchAny = std::numeric_limits<int>::min();

/// What a key does with fault-layer tombstones (Envelope::faulted).
enum class FaultFilter : std::uint8_t {
  Clean,    ///< match only intact envelopes (plain MPI matching)
  Faulted,  ///< match only tombstones (timeout detection)
  Any,      ///< match both (reliability protocol traffic)
};

/// One structured matching pattern. channel/context are always exact (they
/// select the bucket); src/tag may be kMatchAny.
struct MatchKey {
  Channel channel = Channel::MpiPointToPoint;
  int context = 0;
  int src = kMatchAny;
  int tag = kMatchAny;
  FaultFilter faults = FaultFilter::Clean;

  bool admits(const Envelope& e) const noexcept {
    if (e.channel != channel || e.context != context) return false;
    if (src != kMatchAny && e.src != src) return false;
    if (tag != kMatchAny && e.tag != tag) return false;
    switch (faults) {
      case FaultFilter::Clean:
        return !e.faulted;
      case FaultFilter::Faulted:
        return e.faulted;
      case FaultFilter::Any:
        return true;
    }
    return false;
  }

  bool exact() const noexcept { return src != kMatchAny && tag != kMatchAny; }
};

class Mailbox {
 public:
  /// Optional refinement evaluated on key-admitted candidates only (e.g.
  /// communicator-membership checks). Must be deterministic for the duration
  /// of one call: a candidate it rejects is not re-examined within that call.
  using Residual = std::function<bool(const Envelope&)>;

  /// Deliver an envelope (called from the sending rank's thread). An
  /// aggregate (Channel::Internal, agg::kContext — see rt/agg.hpp) is split
  /// here into its per-message sub-envelopes under one lock acquisition, in
  /// append order, so seq-based non-overtaking matches the unbatched path.
  void push(Envelope envelope);

  /// Remove and return the lowest-seq envelope admitted by any key (and the
  /// residual, when given); blocks until one arrives. Throws
  /// CidError(RuntimeFault) if the world gets poisoned while waiting.
  Envelope wait_extract(std::span<const MatchKey> keys,
                        const Residual* residual = nullptr);
  Envelope wait_extract(const MatchKey& key,
                        const Residual* residual = nullptr) {
    return wait_extract(std::span<const MatchKey>(&key, 1), residual);
  }

  /// Timed variant for wall-clock transports: block at most `seconds` of
  /// real time; nullopt on timeout. Real-loss transports (tcp) deliver
  /// nothing at all for a lost message, so reliability protocols cannot
  /// wait on a tombstone — they wait on the clock instead.
  std::optional<Envelope> wait_extract_for(std::span<const MatchKey> keys,
                                           double seconds,
                                           const Residual* residual = nullptr);

  /// Non-blocking variant.
  std::optional<Envelope> try_extract(std::span<const MatchKey> keys,
                                      const Residual* residual = nullptr);
  std::optional<Envelope> try_extract(const MatchKey& key,
                                      const Residual* residual = nullptr) {
    return try_extract(std::span<const MatchKey>(&key, 1), residual);
  }

  /// Block until an admitted envelope is present, without removing it.
  void wait_present(std::span<const MatchKey> keys,
                    const Residual* residual = nullptr);

  /// True if an admitted envelope is queued (does not remove it).
  bool probe(const MatchKey& key, const Residual* residual = nullptr);

  /// Header of the first admitted queued envelope (no payload copy, no
  /// removal): {src, tag, payload bytes, available_at}.
  struct Header {
    int src = -1;
    int tag = 0;
    std::size_t payload_bytes = 0;
    simnet::SimTime available_at = 0.0;
  };
  std::optional<Header> peek(const MatchKey& key,
                             const Residual* residual = nullptr);

  /// Number of queued envelopes (diagnostics).
  std::size_t size() const;

  // ---- Schedule-exploration hooks (cid::explore) -------------------------
  //
  // A model-checking session makes the one visible source of nondeterminism
  // — which envelope a wildcard (non-exact) key matches — a controlled
  // decision: envelopes stay invisible to non-exact keys until the session's
  // gate admits them, and every successful extraction is reported through a
  // tap so the session can maintain its happens-before trace. Exact keys are
  // never gated (their match is already deterministic by non-overtaking and
  // post order). Both hooks are strictly inert when unset: the matching
  // logic, wakeups and floor watermark behave byte-identically to the
  // ungated mailbox, which is what keeps the golden fingerprints valid.

  /// True when the gated envelope may be matched by a non-exact key.
  using WildcardGate = std::function<bool(const Envelope&)>;
  /// Observes every extracted envelope, called under the mailbox lock; must
  /// not call back into this mailbox.
  using ExtractTap = std::function<void(const Envelope&)>;

  /// Install (or clear, with nullptrs) the exploration hooks. Install
  /// before ranks start; not thread-safe against concurrent operations.
  void set_explore_hooks(WildcardGate gate, ExtractTap tap);

  /// A queued envelope admitted by some blocked waiter's non-exact key but
  /// currently held back by the wildcard gate: the candidate set of one
  /// schedule decision.
  struct HeldCandidate {
    std::uint64_t uid = 0;  ///< Envelope::explore_uid
    int src = -1;
    int tag = 0;
    int context = 0;
  };
  /// Gate-held candidates visible to currently registered blocked waiters,
  /// deduplicated, in uid order. Empty when no session is installed.
  std::vector<HeldCandidate> held_candidates() const;

  /// Wake all waiters so they can observe the poisoned world and unwind.
  void interrupt_all();

  void set_poison_check(std::function<bool()> check) {
    poisoned_ = std::move(check);
  }

 private:
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  /// Neighbours of a slot in one intrusive list (slot indices, kNil at the
  /// ends).
  struct Link {
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };
  /// One queued envelope and its links. A free slot keeps a moved-from
  /// envelope and threads the free list through `arrival.next`.
  struct Slot {
    Envelope envelope;
    Link arrival;  ///< its bucket's arrival order
    Link sub;      ///< its bucket's (src, tag) sub-queue
  };
  /// Ends of one intrusive list; head == kNil means empty.
  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// Names one list: a bucket's arrival list ({bucket_id, 0}) or a (src, tag)
  /// sub-queue ({bucket_id, exact_id}).
  struct ListKey {
    std::uint64_t bucket = 0;
    std::uint64_t sub = 0;
    bool operator==(const ListKey&) const = default;
  };

  /// ListKey -> List, open-addressed with linear probing and backward-shift
  /// erase (no tombstones). An entry is vacant iff its list is empty, and
  /// the owner erases an entry as soon as its list empties, so the table
  /// holds only live keys and, once grown, never allocates.
  class ListIndex {
   public:
    struct Entry {
      ListKey key;
      List list;
    };
    const Entry* find(const ListKey& key) const;
    Entry* find(const ListKey& key) {
      return const_cast<Entry*>(std::as_const(*this).find(key));
    }
    /// The list for `key`, inserted empty if absent. The caller links a
    /// slot into it before the next insert.
    List& insert(const ListKey& key);
    void erase(Entry* entry);

   private:
    std::size_t home(const ListKey& key) const noexcept;
    void grow();

    std::vector<Entry> entries_;  // size is zero or a power of two
    std::size_t used_ = 0;
  };

  /// A registered blocking waiter, used by push() for targeted wakeups.
  struct Waiter {
    std::span<const MatchKey> keys;
  };

  static std::uint64_t bucket_id(Channel channel, int context) noexcept {
    return (static_cast<std::uint64_t>(channel) << 32) |
           static_cast<std::uint32_t>(context);
  }
  static std::uint64_t exact_id(int src, int tag) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }

  static ListKey arrival_key(const Envelope& e) noexcept {
    return {bucket_id(e.channel, e.context), 0};
  }
  static ListKey sub_key(const Envelope& e) noexcept {
    return {bucket_id(e.channel, e.context), exact_id(e.src, e.tag)};
  }

  /// Slot of the first (lowest-seq) envelope with seq >= floor that the
  /// exact `key` admits and the residual accepts, via the key's (src, tag)
  /// sub-queue; kNil when there is none.
  std::uint32_t find_exact(const MatchKey& key, const Residual* residual,
                           std::uint64_t floor);
  /// Slot of the first (lowest-seq) envelope with seq >= floor admitted by
  /// any key and accepted by the residual; kNil when there is none.
  std::uint32_t find_any(std::span<const MatchKey> keys,
                         const Residual* residual, std::uint64_t floor);

  /// True when some registered waiter's keys admit `envelope`.
  bool wanted(const Envelope& envelope) const;

  /// Queue an envelope (seq already set) at the back of its two lists.
  void enqueue(Envelope envelope);
  /// Unlink the slot from both of its lists, free it and return its
  /// envelope.
  Envelope extract(std::uint32_t slot);

  /// Append `slot` to `list`, or remove it, through the slot's `link`.
  void link_back(List& list, std::uint32_t slot, Link Slot::*link) noexcept;
  void unlink(List& list, std::uint32_t slot, Link Slot::*link) noexcept;

  std::uint64_t seq_of(std::uint32_t slot) const noexcept {
    return slots_[slot].envelope.seq;
  }

  /// Split an aggregate envelope into per-message sub-envelopes (one lock
  /// acquisition, one wakeup). Faulted aggregates fan out into faulted,
  /// payload-less tombstones — one per logical message.
  void push_aggregate(Envelope envelope);

  void throw_if_poisoned() const;

  /// Generic blocking loop shared by every wait_* entry point: repeatedly
  /// run `search(floor)`, advancing the floor watermark past everything
  /// already examined, and sleep between attempts. Returns the match.
  template <typename Search>
  std::uint32_t wait_match(std::unique_lock<std::mutex>& lock,
                           std::span<const MatchKey> waiter_keys,
                           const Search& search);

  mutable std::mutex mutex_;
  /// Scheduler-aware: a fiber waiting here parks instead of blocking its
  /// worker thread (see rt/sched.hpp).
  sched::WaitCv arrived_;
  /// The arrival store: every queued envelope's slot, and the head of the
  /// free-slot list. All of it is guarded by mutex_.
  std::vector<Slot> slots_;
  std::uint32_t free_ = kNil;
  /// Arrival list of each non-empty (channel, context) bucket.
  ListIndex buckets_;
  /// Sub-queue of each non-empty (channel, context, src, tag).
  ListIndex subqueues_;
  std::vector<const Waiter*> waiters_;
  /// find_any's list of buckets holding non-exact keys; a member so the
  /// per-extraction search does not allocate. Guarded by mutex_.
  std::vector<std::uint64_t> scratch_buckets_;
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
  std::function<bool()> poisoned_;
  WildcardGate wildcard_gate_;
  ExtractTap extract_tap_;
};

}  // namespace cid::rt
