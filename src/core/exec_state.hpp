// Rank-local executor state: the sync plan of not yet synchronized
// communication (core/sync_plan.hpp, place_sync), cached
// derived datatypes ("reused within the function scope"), persistent-request
// slots per directive site, SHMEM flag words, and cached one-sided windows.
#pragma once

#include <cstdint>
#include <map>
#include <source_location>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "core/clauses.hpp"
#include "core/expr.hpp"
#include "core/reliability.hpp"
#include "core/stats.hpp"
#include "core/sync_plan.hpp"
#include "core/type_layout.hpp"
#include "mpi/mpi.hpp"
#include "rt/payload.hpp"
#include "rt/runtime.hpp"

namespace cid::core::detail {

/// A directive site: the lexical position of a directive call (file:line),
/// interned once per process. All ranks execute the same sites in the same
/// order (SPMD discipline), which makes site-keyed collective allocations
/// consistent. One site may run with different buffers, element types or
/// let() values (a function template shares its source_location across
/// instantiations), so nothing derived from those is keyed on the site alone.
class SiteId {
 public:
  SiteId() = default;

  /// The site of a directive call: lock-free after the first call from the
  /// same file and line, from any rank or thread.
  static SiteId of(const std::source_location& location);

  /// "file:line". The build strips the source root from file names
  /// (src/CMakeLists.txt), so names are root-relative
  /// ("examples/halo3d.cpp:104") and the same in every checkout.
  std::string_view name() const noexcept;

  /// The hash of the site at file:line. It depends on the name's content
  /// only, never on an address, so the per-site tables lay their buckets out
  /// the same way in every process.
  static std::size_t hash_of(std::string_view file,
                             std::uint_least32_t line) noexcept {
    return std::hash<std::string_view>{}(file) ^
           (line * 0x9E3779B97F4A7C15ULL);
  }

  bool operator==(const SiteId&) const = default;

 private:
  struct Entry {
    std::size_t hash = 0;  ///< hash_of(file, line)
    std::string file;
    std::uint_least32_t line = 0;
    std::string name;  ///< "file:line"
  };
  friend struct std::hash<SiteId>;
  explicit SiteId(const Entry* entry) : entry_(entry) {}
  const Entry* entry_ = nullptr;
};

/// A per-(site, buffer pair, peer) table key: persistent-request slots and
/// one-sided windows (peer -1: one window per pair serves every peer).
struct SlotKey {
  SiteId site;
  std::size_t pair = 0;
  int peer = -1;

  bool operator==(const SlotKey&) const = default;
};

}  // namespace cid::core::detail

template <>
struct std::hash<cid::core::detail::SiteId> {
  std::size_t operator()(const cid::core::detail::SiteId& site) const noexcept {
    return site.entry_ != nullptr ? site.entry_->hash : 0;
  }
};

template <>
struct std::hash<cid::core::detail::SlotKey> {
  std::size_t operator()(const cid::core::detail::SlotKey& key) const noexcept {
    return std::hash<cid::core::detail::SiteId>{}(key.site) ^
           (key.pair * 0x9E3779B97F4A7C15ULL) ^
           (static_cast<std::size_t>(static_cast<unsigned>(key.peer)) << 20);
  }
};

namespace cid::core::detail {

/// Byte range touched by a pending operation, for the adjacency analysis
/// ("adjacent comm_p2p directives with independent buffers" share one sync).
struct BufferRange {
  const std::byte* begin = nullptr;
  std::size_t size = 0;
  bool written = false;  ///< receive target (true) vs send source (false)
};

inline bool ranges_conflict(const BufferRange& a, const BufferRange& b) {
  if (!a.written && !b.written) return false;  // read-read never conflicts
  return a.begin < b.begin + b.size && b.begin < a.begin + a.size;
}

/// A receiver-side SHMEM completion obligation: wait until the site flag
/// reaches the cumulative expected count.
struct ShmemExpect {
  const std::uint64_t* flag = nullptr;
  std::uint64_t expected = 0;
};

/// Per-site SHMEM lowering state. Completion flags are an array with one
/// slot per possible SOURCE rank (single-writer counters), so a site whose
/// sender changes over time — or that has several senders — stays correct.
struct ShmemSiteState {
  std::uint64_t* flags = nullptr;  ///< symmetric array, one slot per PE
  std::map<int, std::uint64_t> sent_to;        ///< dest PE -> my messages
  std::map<int, std::uint64_t> expected_from;  ///< src PE -> expected count
};

/// A sender-side deferred flag update: one per (site, destination) per sync
/// epoch, published at the consolidated synchronization point instead of
/// after every message.
struct ShmemFlagUpdate {
  ShmemSiteState* site = nullptr;
  int dest = -1;
};

/// A reliable transfer's sender half. The attempt-0 DATA envelope is already
/// in flight (injected at directive time, mirroring the plain lowering's
/// costs); the epoch loop waits for the ack and retransmits from `payload`.
struct ReliableSend {
  SiteId site;
  std::size_t pair_index = 0;
  int dest = -1;        ///< world rank
  int transfer_id = 0;  ///< per ordered (src,dst) pair, program order
  /// Attempt-0 DATA bytes (attempt header + gathered wire), aliasing the
  /// in-flight envelope's payload; retransmissions re-prefix the wire span.
  rt::Payload payload;
  simnet::SimTime timeout = 0.0;  ///< base retransmission timeout (seconds)
  int max_retries = 0;
  simnet::SimTime sent_at = 0.0;  ///< attempt-0 injection-complete time
  simnet::SimTime local_complete_at = 0.0;  ///< eager buffer-reuse time
};

/// A reliable transfer's receiver half; matched in the epoch loop.
struct ReliableRecv {
  SiteId site;
  std::size_t pair_index = 0;
  int src = -1;  ///< world rank
  int transfer_id = 0;
  void* buf = nullptr;
  std::size_t count = 0;
  mpi::Datatype dtype = mpi::Datatype::basic(mpi::BasicType::Byte);
  simnet::SimTime timeout = 0.0;
  int max_retries = 0;
  simnet::SimTime posted_at = 0.0;
};

/// A receiver-side flat-copy completion obligation (cid::tune): the wire
/// carried the flat element images into `staging`; after the waitall the
/// recorded pack plan scatters them into the composite receive buffer.
struct FlatScatter {
  std::vector<std::byte> staging;  ///< heap buffer, stable across moves
  void* rbuf = nullptr;
  mpi::Datatype dtype = mpi::Datatype::basic(mpi::BasicType::Byte);
  std::size_t count = 0;
};

/// One batch of communication that still needs synchronization.
struct PendingOps {
  std::vector<mpi::Request> mpi_requests;
  std::vector<ReliableSend> reliable_sends;
  std::vector<ReliableRecv> reliable_recvs;
  std::vector<ShmemExpect> shmem_expects;
  std::vector<ShmemFlagUpdate> shmem_flag_updates;
  bool shmem_quiet_needed = false;
  std::vector<mpi::Win> windows_to_fence;
  std::vector<BufferRange> ranges;
  /// Sub-threshold sends batched per destination (cid::tune aggregation);
  /// wire format in rt/agg.hpp. Injected as one envelope per destination at
  /// the next flush, before the waitall that completes their receives.
  std::map<int, std::vector<std::byte>> agg_buffers;
  std::vector<FlatScatter> flat_scatters;

  bool empty() const noexcept {
    return mpi_requests.empty() && reliable_sends.empty() &&
           reliable_recvs.empty() && shmem_expects.empty() &&
           shmem_flag_updates.empty() && !shmem_quiet_needed &&
           windows_to_fence.empty() && agg_buffers.empty() &&
           flat_scatters.empty();
  }
  void merge_from(PendingOps&& other);
};

/// A persistent request and the datatype it was initialized with: a slot is
/// rebound to new buffers in place, but re-created for a new element type.
struct PersistentSlot {
  mpi::Request request;
  mpi::Datatype dtype = mpi::Datatype::basic(mpi::BasicType::Byte);
};

/// Per-(site, pair, peer) persistent-request slots (the compiler's request
/// table, sized by the loop's execution count between synchronization
/// points).
struct ChannelSlots {
  std::vector<PersistentSlot> send_slots;
  std::vector<PersistentSlot> recv_slots;
  std::size_t send_used = 0;  ///< slots consumed since the last flush
  std::size_t recv_used = 0;
  std::uint64_t epoch = 0;  ///< ExecState::slot_epoch the counts belong to
};

/// Per-site cached one-sided window.
struct WindowCacheEntry {
  mpi::Win win;
  void* base = nullptr;
  std::size_t bytes = 0;
};

/// Per-site cached group communicator for comm_collective (split is
/// re-issued collectively when the group clause's value changes).
struct GroupCommEntry {
  core::ExprValue color = 0;
  bool valid = false;
  mpi::Comm comm;
};

/// Per-site SHMEM collective state. `flags` has 2*npes single-writer slots:
/// [0, npes) publish data arrival, [npes, 2*npes) acknowledge consumption.
/// Acks are deferred to the NEXT execution of the site — the proof that the
/// caller consumed the previous round's buffers — which gives consecutive
/// one-sided collectives on the same buffers back-pressure without an extra
/// barrier.
struct ShmemCollectiveSite {
  std::uint64_t* flags = nullptr;  ///< symmetric, 2*npes slots
  std::uint64_t executions = 0;    ///< rounds of this site on this rank
  std::map<int, std::uint64_t> sent_to;        ///< dest PE -> my data puts
  std::map<int, std::uint64_t> expected_from;  ///< src PE -> expected data
  std::map<int, std::uint64_t> acks_sent_to;   ///< dest PE -> my acks
  std::map<int, std::uint64_t> acks_expected_from;  ///< src PE -> their acks
};

class Region;

/// The per-rank executor state. Lazily (re)created per SPMD region.
class ExecState {
 public:
  /// State of the calling rank; resets automatically when a new World runs.
  static ExecState& mine();

  /// Everything not yet synchronized, placed by place_sync.
  SyncPlan<PendingOps> sync_plan;

  /// Rank-local communication statistics (see core/stats.hpp).
  CommStats stats;

  /// Per-peer monotonic transfer ids for the reliability protocol. SPMD
  /// discipline makes the two sides of each ordered (src,dst) pair agree:
  /// the sender's tx counter for dst and the receiver's rx counter for src
  /// advance at the same program points.
  std::map<int, int> reliable_tx_ids;  ///< dest world rank -> next id
  std::map<int, int> reliable_rx_ids;  ///< src world rank -> next id
  /// Per-site persistent-slot accounting for the reliable lowering, which
  /// has no real request objects. Mirrors ChannelSlots exactly: one slot per
  /// p2p execution per site between flushes, one-time setup charged when the
  /// site's table grows, usage reset at the epoch (the flush equivalent).
  struct ReliableSlotUse {
    std::size_t send_slots = 0;  ///< slots created (setup charged) so far
    std::size_t recv_slots = 0;
    std::size_t send_used = 0;  ///< slots consumed since the last epoch
    std::size_t recv_used = 0;
  };
  std::unordered_map<SiteId, ReliableSlotUse> reliable_slots;
  /// Pairs the reliability protocol gave up on (see core::delivery_report()).
  DeliveryReport delivery_report;

  std::unordered_map<SiteId, ShmemSiteState> shmem_sites;
  std::unordered_map<SlotKey, ChannelSlots> channels;
  /// Waitalls that completed every persistent slot: a ChannelSlots from an
  /// earlier epoch has all its slots free again.
  std::uint64_t slot_epoch = 0;
  std::unordered_map<SlotKey, WindowCacheEntry> windows;
  std::unordered_map<SiteId, GroupCommEntry> group_comms;
  std::unordered_map<SiteId, ShmemCollectiveSite> shmem_collectives;
  std::map<const TypeLayout*, mpi::Datatype> datatype_cache;
  /// Sites whose pack-vs-flat throughput was already measured this run
  /// (cid::tune record mode calibrates each site once).
  std::unordered_set<SiteId> tune_calibrated;

  /// Region nesting stack (owned by the Region RAII objects).
  std::vector<class RegionImpl*> region_stack;

  /// The datatype a buffer's elements travel as: its basic type, or the
  /// cached derived type of its reflected layout, which charges the model's
  /// type-creation cost on first use (the paper's per-scope reuse).
  mpi::Datatype datatype_for(const BufferRef& buffer);

  /// Complete everything in `ops` (waitall / shmem waits / quiet / fences)
  /// and reset slot usage so persistent requests can be restarted; records
  /// one sync span when recording is on.
  void flush(PendingOps& ops);

  /// The rank-local part of flush(): aggregates, reliable epochs, MPI
  /// requests, SHMEM flag publication, waits and quiet. Window fences are
  /// collective and stay pending; no span is recorded.
  void complete_local(PendingOps& ops);

 private:
  friend struct ExecStateResetCheck;
  const rt::World* world_ = nullptr;
};

/// cid::tune aggregation: inject each destination's batched wire buffer as
/// one combined envelope (split back into per-message sub-envelopes by the
/// destination mailbox, see rt/agg.hpp). Must run before the waitall that
/// completes the matching receives.
void inject_aggregates(PendingOps& ops);

/// Inject only the batch bound for `dest`: a direct (unbatched) send to a
/// destination must not overtake its batched predecessors.
void inject_aggregate_for(PendingOps& ops, int dest);

/// cid::tune flat-copy: scatter the staged flat element images into the
/// composite receive buffers (pack-plan runs only — holes are untouched).
/// Must run after the waitall that filled the staging buffers.
void apply_flat_scatters(PendingOps& ops);

/// Clause evaluation shared by the comm_p2p and comm_collective executors.
/// The environment binds rank and nprocs, then every let() of `clauses`.
Env make_env(const ClauseView& clauses);

/// The value of a present clause; throws InvalidClause naming `what` when
/// evaluation fails (a parse error, an unbound variable, division by zero).
ExprValue eval_clause(const ClauseExpr& clause, const Env& env,
                      const char* what);

/// The value of a present count clause; throws unless it is positive.
std::size_t eval_count(const ClauseExpr& count, const Env& env);

}  // namespace cid::core::detail
