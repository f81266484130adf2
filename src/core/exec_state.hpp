// Rank-local executor state: pending (not yet synchronized) communication,
// carryover synchronization deferred across regions (place_sync), cached
// derived datatypes ("reused within the function scope"), persistent-request
// slots per directive site, SHMEM flag words, and cached one-sided windows.
#pragma once

#include <cstdint>
#include <map>
#include <source_location>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "core/expr.hpp"
#include "core/reliability.hpp"
#include "core/stats.hpp"
#include "core/type_layout.hpp"
#include "mpi/mpi.hpp"
#include "rt/payload.hpp"
#include "rt/runtime.hpp"

namespace cid::core::detail {

/// A directive site: the lexical position of a comm_p2p (file:line). All
/// ranks execute the same sites in the same order (SPMD discipline), which
/// makes site-keyed collective allocations consistent.
using SiteKey = std::string;

/// The SiteKey of a directive call. The build strips the source root from
/// file names (src/CMakeLists.txt), so keys are root-relative
/// ("examples/halo3d.cpp:104") and the same in every checkout.
SiteKey site_key(const std::source_location& location);

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
  SiteKey site;
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
  SiteKey site;
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

/// Everything that still needs synchronization.
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

/// Per-site persistent-request slots (the compiler's request table, sized by
/// the loop's execution count between synchronization points).
struct ChannelSlots {
  std::vector<mpi::Request> send_slots;
  std::vector<mpi::Request> recv_slots;
  std::size_t send_used = 0;  ///< slots consumed since the last flush
  std::size_t recv_used = 0;
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

  PendingOps pending;
  /// Sync deferred past a region boundary by place_sync.
  PendingOps carryover;
  bool carryover_flush_at_next_region_begin = false;
  bool carryover_adjacent = false;

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
  std::map<SiteKey, ReliableSlotUse> reliable_slots;
  /// Pairs the reliability protocol gave up on (see core::delivery_report()).
  DeliveryReport delivery_report;

  std::map<SiteKey, ShmemSiteState> shmem_sites;
  std::map<SiteKey, ChannelSlots> channels;
  std::map<SiteKey, WindowCacheEntry> windows;
  std::map<SiteKey, GroupCommEntry> group_comms;
  std::map<SiteKey, ShmemCollectiveSite> shmem_collectives;
  std::map<const TypeLayout*, mpi::Datatype> datatype_cache;
  /// Sites whose pack-vs-flat throughput was already measured this run
  /// (cid::tune record mode calibrates each site once).
  std::map<SiteKey, bool> tune_calibrated;

  /// Region nesting stack (owned by the Region RAII objects).
  std::vector<class RegionImpl*> region_stack;

  /// Cached derived datatype for a reflected layout; charges the model's
  /// type-creation cost on first use (the paper's per-scope reuse).
  mpi::Datatype datatype_for(const TypeLayout& layout);

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
void inject_aggregates(ExecState& state, PendingOps& ops);

/// Inject only the batch bound for `dest`: a direct (unbatched) send to a
/// destination must not overtake its batched predecessors.
void inject_aggregate_for(ExecState& state, PendingOps& ops, int dest);

/// cid::tune flat-copy: scatter the staged flat element images into the
/// composite receive buffers (pack-plan runs only — holes are untouched).
/// Must run after the waitall that filled the staging buffers.
void apply_flat_scatters(ExecState& state, PendingOps& ops);

}  // namespace cid::core::detail
