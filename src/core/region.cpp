#include "core/region.hpp"

#include <algorithm>
#include <chrono>

#include <cstring>

#include "core/exec_state.hpp"
#include "core/reliability.hpp"
#include "core/trace.hpp"
#include "obs/obs.hpp"
#include "rt/agg.hpp"
#include "shmem/shmem.hpp"
#include "tune/tune.hpp"

namespace cid::core {

namespace detail {

/// One open comm_parameters region (lives on the Region RAII stack).
class RegionImpl {
 public:
  RegionImpl(ClauseView clauses, SiteId site) : clauses(clauses), site(site) {}

  const ClauseView clauses;  ///< layered over any enclosing region's
  const SiteId site;
};

namespace {

constexpr int kDirectiveTag = 2000;

void throw_if_error(const Status& status) {
  if (!status.is_ok()) {
    throw CidError(status.code(), status.message());
  }
}

/// Count inference: explicit count clause, else the smallest known array
/// extent among the listed buffers (paper Section III-B).
std::size_t resolve_count(const ClauseView& merged, const Env& env) {
  if (merged.count_clause().present()) {
    return eval_count(merged.count_clause(), env);
  }
  std::size_t smallest = SIZE_MAX;
  for (const auto* list : {&merged.sbuf_list(), &merged.rbuf_list()}) {
    for (const auto& buffer : *list) {
      if (buffer.has_extent) smallest = std::min(smallest, buffer.extent_count);
    }
  }
  CID_REQUIRE(smallest != SIZE_MAX, ErrorCode::InvalidClause,
              "count omitted and no listed buffer has a known array extent");
  CID_REQUIRE(smallest > 0, ErrorCode::InvalidClause,
              "count inference found a zero-sized array");
  return smallest;
}

Target to_core_target(tune::Lowering lowering) noexcept {
  switch (lowering) {
    case tune::Lowering::Mpi1Side: return Target::Mpi1Side;
    case tune::Lowering::Shmem: return Target::Shmem;
    case tune::Lowering::Mpi2Side: break;
  }
  return Target::Mpi2Side;
}

/// Record mode (CID_TUNE=record): wall-clock throughput of this site's
/// pack-plan walk vs a flat extent copy — the two rates whose measured
/// crossover drives the flat-copy lowering decision. Wall time only; the
/// virtual clock is untouched.
void calibrate_pack(SiteId site, rt::RankCtx& ctx,
                    const mpi::Datatype& dtype, const void* base,
                    std::size_t count) {
  const std::size_t payload = dtype.payload_size() * count;
  const std::size_t extent = dtype.extent() * count;
  if (payload == 0 || extent == 0) return;
  std::vector<std::byte> scratch(std::max(payload, extent));
  constexpr int kReps = 3;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kReps; ++r) {
    dtype.gather_into(MutableByteSpan(scratch.data(), payload), base, count);
  }
  const auto t1 = std::chrono::steady_clock::now();
  for (int r = 0; r < kReps; ++r) {
    std::memcpy(scratch.data(), base, extent);
  }
  const auto t2 = std::chrono::steady_clock::now();
  static const obs::Name kPlan("cid.tune.plan_ns_per_byte");
  static const obs::Name kFlat("cid.tune.flat_ns_per_byte");
  obs::observe(kPlan, site.name(), ctx.rank(),
               std::chrono::duration<double, std::nano>(t1 - t0).count() /
                   (kReps * static_cast<double>(payload)));
  obs::observe(kFlat, site.name(), ctx.rank(),
               std::chrono::duration<double, std::nano>(t2 - t1).count() /
                   (kReps * static_cast<double>(extent)));
}

/// Record mode: per-site size profile and symmetric-heap eligibility, the
/// inputs of the target(auto) decision (docs/TUNING.md).
void record_tune_observations(ExecState& state, rt::RankCtx& ctx,
                              SiteId site,
                              const std::vector<BufferRef>& sbufs,
                              const std::vector<BufferRef>& rbufs,
                              std::size_t count) {
  static const obs::Name kMsgBytes("cid.tune.msg_bytes");
  static const obs::Name kSymOk("cid.tune.sym_ok");
  static const obs::Name kSymFail("cid.tune.sym_fail");
  for (std::size_t i = 0; i < sbufs.size(); ++i) {
    const mpi::Datatype dtype = state.datatype_for(sbufs[i]);
    obs::observe(kMsgBytes, site.name(), ctx.rank(),
                 static_cast<double>(count * dtype.payload_size()));
    obs::count(shmem::is_symmetric(rbufs[i].data) ? kSymOk : kSymFail,
               site.name(), ctx.rank());
    if (!dtype.is_contiguous() && state.tune_calibrated.insert(site).second) {
      calibrate_pack(site, ctx, dtype, sbufs[i].data, count);
    }
  }
}

/// The request table of `key`, with its usage reset when a waitall has
/// completed its slots since it was last used.
ChannelSlots& channel_slots(ExecState& state, const SlotKey& key) {
  ChannelSlots& slots = state.channels[key];
  if (slots.epoch != state.slot_epoch) {
    slots.epoch = state.slot_epoch;
    slots.send_used = 0;
    slots.recv_used = 0;
  }
  return slots;
}

/// Fetch a persistent slot (growing the request table as the compiler's
/// generated code would), rebinding and starting it.
mpi::Request& acquire_send_slot(ExecState& state, const SlotKey& key,
                                const mpi::Comm& comm, const void* buf,
                                std::size_t count, const mpi::Datatype& dtype,
                                int dest) {
  ChannelSlots& slots = channel_slots(state, key);
  const std::size_t index = slots.send_used++;
  if (index < slots.send_slots.size()) {
    PersistentSlot& slot = slots.send_slots[index];
    // A slot still in flight (a safety valve) or initialized for another
    // element type (one site, two template instantiations) is re-created.
    if (slot.dtype != dtype ||
        (slot.request.valid() && !slot.request.complete())) {
      slot = {mpi::send_init(comm, buf, count, dtype, dest, kDirectiveTag),
              dtype};
    } else {
      mpi::rebind_send(slot.request, buf, count);
    }
    mpi::start(slot.request);
    return slot.request;
  }
  slots.send_slots.push_back(
      {mpi::send_init(comm, buf, count, dtype, dest, kDirectiveTag), dtype});
  mpi::start(slots.send_slots.back().request);
  return slots.send_slots.back().request;
}

mpi::Request& acquire_recv_slot(ExecState& state, const SlotKey& key,
                                const mpi::Comm& comm, void* buf,
                                std::size_t capacity,
                                const mpi::Datatype& dtype, int source) {
  ChannelSlots& slots = channel_slots(state, key);
  const std::size_t index = slots.recv_used++;
  if (index < slots.recv_slots.size()) {
    PersistentSlot& slot = slots.recv_slots[index];
    if (slot.dtype != dtype ||
        (slot.request.valid() && !slot.request.complete())) {
      slot = {mpi::recv_init(comm, buf, capacity, dtype, source,
                             kDirectiveTag),
              dtype};
    } else {
      mpi::rebind_recv(slot.request, buf, capacity);
    }
    mpi::start(slot.request);
    return slot.request;
  }
  slots.recv_slots.push_back(
      {mpi::recv_init(comm, buf, capacity, dtype, source, kDirectiveTag),
       dtype});
  mpi::start(slots.recv_slots.back().request);
  return slots.recv_slots.back().request;
}

/// The reliable lowering of an MPI-two-sided pair list. Mirrors the plain
/// lowering's virtual-time charges exactly (receive posts, gather, injection,
/// eager/rendezvous completion, persistent-slot setup), so at a 0% fault
/// rate the protocol costs what the unprotected path costs; the protocol
/// state itself (acks, retransmission timers) lives in the epoch loop that
/// runs at the synchronization point (core/reliability.cpp).
void execute_reliable_mpi2(ExecState& state, rt::RankCtx& ctx,
                           const ClauseView& merged, const Env& env,
                           SiteId site, std::size_t count,
                           bool send_active, bool recv_active,
                           int receiver_rank, int sender_rank,
                           bool use_persistent) {
  const auto& costs = ctx.model().mpi_two_sided;
  const ExprValue timeout_us =
      eval_clause(merged.reliability_timeout_clause(), env, "reliability");
  CID_REQUIRE(timeout_us > 0, ErrorCode::InvalidClause,
              "reliability timeout must be positive (virtual microseconds), "
              "got " + std::to_string(timeout_us));
  const ExprValue retries =
      eval_clause(merged.reliability_retries_clause(), env, "reliability");
  CID_REQUIRE(retries >= 0, ErrorCode::InvalidClause,
              "reliability max_retries must be non-negative, got " +
                  std::to_string(retries));
  simnet::SimTime timeout = static_cast<simnet::SimTime>(timeout_us) * 1e-6;
  if (tune::active()) {
    // Both sides derive the same tightened timeout from the same profile
    // entry, so sender deadlines and receiver deadlines stay consistent.
    timeout = tune::tuned_timeout(
        tune::Tuner::global().site(site.name().text()), timeout);
  }
  if (tune::recording()) {
    static const obs::Name kTimeout("cid.reliability.timeout_seconds");
    obs::observe(kTimeout, site.name(), ctx.rank(), timeout);
  }
  const int max_retries = static_cast<int>(retries);

  const auto& sbufs = merged.sbuf_list();
  const auto& rbufs = merged.rbuf_list();
  const std::size_t pairs = sbufs.size();

  // Receives first, like the plain lowering (an opportunistic self-message
  // finds its counterpart posted).
  if (recv_active) {
    for (std::size_t i = 0; i < pairs; ++i) {
      const mpi::Datatype dtype = state.datatype_for(rbufs[i]);
      if (use_persistent) {
        // One slot per p2p execution per site between epochs, exactly like
        // acquire_recv_slot: setup is charged only when the table grows.
        auto& slots = state.reliable_slots[site];
        if (slots.recv_used++ >= slots.recv_slots) {
          ++slots.recv_slots;
          ctx.charge_compute(costs.persistent_setup);
        }
        ctx.charge_compute(costs.persistent_recv_overhead);
      } else {
        ctx.charge_compute(costs.recv_overhead);
      }
      ReliableRecv recv;
      recv.site = site;
      recv.pair_index = i;
      recv.src = sender_rank;  // directives run on the world communicator
      recv.transfer_id = state.reliable_rx_ids[sender_rank]++;
      recv.buf = rbufs[i].data;
      recv.count = count;
      recv.dtype = dtype;
      recv.timeout = timeout;
      recv.max_retries = max_retries;
      recv.posted_at = ctx.clock().now();
      state.sync_plan.open().reliable_recvs.push_back(std::move(recv));
    }
  }
  if (send_active) {
    for (std::size_t i = 0; i < pairs; ++i) {
      const mpi::Datatype dtype = state.datatype_for(sbufs[i]);
      ++state.stats.mpi2_messages;
      state.stats.mpi2_bytes += count * dtype.payload_size();
      ++state.stats.reliable_transfers;
      simnet::SimTime send_overhead = costs.send_overhead;
      if (use_persistent) {
        auto& slots = state.reliable_slots[site];
        if (slots.send_used++ >= slots.send_slots) {
          ++slots.send_slots;
          ctx.charge_compute(costs.persistent_setup);
        }
        send_overhead = costs.persistent_send_overhead;
      }
      // Gather the wire bytes directly behind the attempt header; the one
      // resulting buffer is shared (refcounted) between the in-flight
      // envelope and the retransmission source — no copies on this path.
      const std::size_t bytes = dtype.payload_size() * count;
      ctx.charge_compute(
          ctx.model().host.layout_walk_time(bytes, dtype.is_contiguous()));
      cid::ByteBuffer prefixed(sizeof(std::uint32_t) + bytes);
      const std::uint32_t attempt0 = 0;
      std::memcpy(prefixed.data(), &attempt0, sizeof(attempt0));
      dtype.gather_into(
          cid::MutableByteSpan(prefixed.data() + sizeof(attempt0), bytes),
          sbufs[i].data, count);
      const rt::Payload attempt0_payload{std::move(prefixed)};
      const simnet::Injection sent =
          costs.inject(ctx.clock().now(), bytes, send_overhead);
      ctx.charge_compute(sent.busy);

      ReliableSend send;
      send.site = site;
      send.pair_index = i;
      send.dest = receiver_rank;
      send.transfer_id = state.reliable_tx_ids[receiver_rank]++;
      send.timeout = timeout;
      send.max_retries = max_retries;
      send.sent_at = ctx.clock().now();
      send.local_complete_at = sent.local_complete;

      // Attempt 0 goes out now, exactly when the plain isend would inject.
      rt::Envelope envelope;
      envelope.src = ctx.rank();
      envelope.tag = send.transfer_id;
      envelope.channel = rt::Channel::Internal;
      envelope.context = kReliableDataCtx;
      envelope.payload = attempt0_payload;
      envelope.available_at = sent.delivery;
      ctx.world().deliver(receiver_rank, std::move(envelope));

      send.payload = attempt0_payload;
      state.sync_plan.open().reliable_sends.push_back(std::move(send));
    }
  }
}

/// The adjacency rule (SyncPlan::land_touching) on this rank's buffer
/// ranges: a batch the incoming transfer conflicts with gets an intermediate
/// sync of its rank-local completions. Window fences are collective and stay
/// with the batch until it lands, which every rank reaches.
void sync_if_buffers_conflict(ExecState& state,
                              const std::vector<BufferRange>& incoming) {
  state.sync_plan.land_touching(
      [&](const PendingOps& batch) {
        for (const auto& range : incoming) {
          for (const auto& in_flight : batch.ranges) {
            if (ranges_conflict(range, in_flight)) return true;
          }
        }
        return false;
      },
      [&](PendingOps& batch) {
        ++state.stats.conflict_flushes;
        state.complete_local(batch);
      });
}

void execute_p2p(const Clauses& site_clauses, const RegionImpl* region,
                 const std::function<void()>* overlap, SiteId site) {
  auto& ctx = rt::current_ctx();
  auto& state = ExecState::mine();
  PendingOps& pending = state.sync_plan.open();

  const simnet::SimTime trace_begin = ctx.clock().now();
  const std::uint64_t trace_bytes0 = state.stats.total_bytes();
  const std::uint64_t trace_msgs0 = state.stats.total_messages();

  ++state.stats.p2p_directives;
  throw_if_error(site_clauses.validate_p2p_site());
  const ClauseView merged = region != nullptr
                               ? ClauseView(region->clauses, site_clauses)
                               : ClauseView(site_clauses);
  throw_if_error(merged.validate_for_p2p());

  const Env env = make_env(merged);
  const bool send_active =
      !merged.sendwhen_clause().present() ||
      eval_clause(merged.sendwhen_clause(), env, "sendwhen") != 0;
  const bool recv_active =
      !merged.receivewhen_clause().present() ||
      eval_clause(merged.receivewhen_clause(), env, "receivewhen") != 0;

  const std::size_t count = resolve_count(merged, env);
  Target target = merged.target_clause().value_or(Target::Mpi2Side);
  const auto& sbufs = merged.sbuf_list();
  const auto& rbufs = merged.rbuf_list();
  const std::size_t pairs = sbufs.size();

  // Destination / source ranks are evaluated lazily: the receiver clause
  // only on sending ranks, the sender clause only on receiving ranks, so
  // boundary ranks excluded by sendwhen/receivewhen never evaluate an
  // out-of-range neighbour expression (paper Listing 2).
  int receiver_rank = -1;
  if (send_active) {
    const ExprValue value =
        eval_clause(merged.receiver_clause(), env, "receiver");
    CID_REQUIRE(value >= 0 && value < ctx.nranks(), ErrorCode::InvalidClause,
                "receiver clause evaluates to out-of-range rank " +
                    std::to_string(value));
    receiver_rank = static_cast<int>(value);
  }
  int sender_rank = -1;
  if (recv_active) {
    const ExprValue value = eval_clause(merged.sender_clause(), env, "sender");
    CID_REQUIRE(value >= 0 && value < ctx.nranks(), ErrorCode::InvalidClause,
                "sender clause evaluates to out-of-range rank " +
                    std::to_string(value));
    sender_rank = static_cast<int>(value);
  }

  // Adjacency analysis against every unsynchronized batch.
  std::vector<BufferRange> touched;
  if (send_active) {
    for (const auto& buffer : sbufs) {
      touched.push_back({static_cast<const std::byte*>(buffer.data),
                         buffer.span_bytes(count), /*written=*/false});
    }
  }
  if (recv_active) {
    for (const auto& buffer : rbufs) {
      touched.push_back({static_cast<const std::byte*>(buffer.data),
                         buffer.span_bytes(count), /*written=*/true});
    }
  }
  sync_if_buffers_conflict(state, touched);

  const bool in_region = region != nullptr;
  // Persistent-request tables are generated only for looping regions, which
  // the programmer marks with max_comm_iter (paper Section III-B: the clause
  // "will facilitate code generation for synchronizations"); a one-shot
  // region lowers to plain nonblocking calls.
  const bool use_persistent =
      in_region && merged.max_comm_iter_clause().present();
  const mpi::Comm world = mpi::Comm::world();

  // --- cid::tune: measurement-driven lowering (docs/TUNING.md) ------------
  // With CID_TUNE=off (the default) `tuning` is false, `target(auto)`
  // resolves to the static default, and every path below is byte-identical
  // to the untuned dispatch.
  const bool tuning = tune::active();
  const tune::SiteProfile* profile =
      tuning ? tune::Tuner::global().site(site.name().text()) : nullptr;
  if (target == Target::Auto) {
    tune::SiteFacts facts;
    facts.reliability = merged.reliability_present();
    facts.single_process = ctx.world().single_process();
    target = to_core_target(tune::auto_target(profile, ctx.model(), facts)
                                .lowering);
  }
  if (tune::recording() && send_active) {
    record_tune_observations(state, ctx, site, sbufs, rbufs, count);
  }

  if (merged.reliability_present()) {
    CID_REQUIRE(target == Target::Mpi2Side, ErrorCode::InvalidClause,
                "reliability requires TARGET_COMM_MPI_2SIDE (got " +
                    std::string(target_keyword(target)) + ")");
  }

  // Per-pair tuned refinements of the two-sided lowering. Both sides of a
  // transfer evaluate the same predicates from the same profile entry and
  // clause set (SPMD discipline), so they always agree on the wire format.
  const bool may_tune =
      tuning && !use_persistent && !merged.reliability_present();
  const auto pair_aggregated = [&](const mpi::Datatype& dtype, int peer) {
    return may_tune && in_region && peer != ctx.rank() &&
           tune::should_aggregate(profile, count * dtype.payload_size(),
                                  ctx.model());
  };
  const auto pair_flat = [&](const mpi::Datatype& dtype) {
    return may_tune && !dtype.is_contiguous() &&
           tune::use_flat_copy(profile, dtype.payload_size(), dtype.extent());
  };

  switch (target) {
    case Target::Auto:  // resolved above; defensive fallback to the default
    case Target::Mpi2Side: {
      if (merged.reliability_present()) {
        execute_reliable_mpi2(state, ctx, merged, env, site, count,
                              send_active, recv_active, receiver_rank,
                              sender_rank, use_persistent);
        break;
      }
      // Receives are posted before sends so an opportunistic self-message
      // (receiver_rank == rank) matches immediately.
      if (recv_active) {
        for (std::size_t i = 0; i < pairs; ++i) {
          const mpi::Datatype dtype = state.datatype_for(rbufs[i]);
          if (!pair_aggregated(dtype, sender_rank) && pair_flat(dtype)) {
            // Flat-copy receive: the wire carries whole element images into
            // a staging buffer; the pack-plan scatter runs at the flush
            // (apply_flat_scatters), touching payload runs only.
            pending.flat_scatters.push_back(
                FlatScatter{std::vector<std::byte>(count * dtype.extent()),
                            rbufs[i].data, dtype, count});
            auto& staging = pending.flat_scatters.back().staging;
            pending.mpi_requests.push_back(mpi::irecv(
                world, staging.data(), staging.size(),
                mpi::Datatype::basic(mpi::BasicType::Byte), sender_rank,
                kDirectiveTag));
            continue;
          }
          if (use_persistent) {
            // Slot identity includes the peer: a persistent request's
            // source/destination is fixed at init time, so each (site,
            // buffer index, peer) triple owns its own request table.
            pending.mpi_requests.push_back(acquire_recv_slot(
                state, {site, i, sender_rank}, world, rbufs[i].data, count,
                dtype, sender_rank));
          } else {
            pending.mpi_requests.push_back(mpi::irecv(
                world, rbufs[i].data, count, dtype, sender_rank,
                kDirectiveTag));
          }
        }
      }
      if (send_active) {
        for (std::size_t i = 0; i < pairs; ++i) {
          const mpi::Datatype dtype = state.datatype_for(sbufs[i]);
          ++state.stats.mpi2_messages;
          state.stats.mpi2_bytes += count * dtype.payload_size();
          if (pair_aggregated(dtype, receiver_rank)) {
            // Batch: gather the logical payload into the destination's wire
            // buffer now; the combined envelope is injected at the next
            // flush, before anything waits (see inject_aggregates).
            ctx.charge_compute(ctx.model().host.layout_walk_time(
                dtype.payload_size() * count, dtype.is_contiguous()));
            rt::agg::append(pending.agg_buffers[receiver_rank],
                            kDirectiveTag, world.context(),
                            dtype.gather(sbufs[i].data, count));
            continue;
          }
          // A direct send must not overtake batched predecessors bound for
          // the same destination.
          inject_aggregate_for(pending, receiver_rank);
          if (pair_flat(dtype)) {
            // Flat-copy send: one straight memcpy of the whole extent onto
            // the wire instead of the per-run pack-plan walk.
            pending.mpi_requests.push_back(mpi::isend(
                world, sbufs[i].data, count * dtype.extent(),
                mpi::Datatype::basic(mpi::BasicType::Byte), receiver_rank,
                kDirectiveTag));
            continue;
          }
          if (use_persistent) {
            pending.mpi_requests.push_back(acquire_send_slot(
                state, {site, i, receiver_rank}, world, sbufs[i].data, count,
                dtype, receiver_rank));
          } else {
            pending.mpi_requests.push_back(mpi::isend(
                world, sbufs[i].data, count, dtype, receiver_rank,
                kDirectiveTag));
          }
        }
      }
      break;
    }

    case Target::Shmem: {
      // All ranks reach the directive (SPMD), so the per-site flag word is a
      // consistent collective symmetric allocation.
      // The flag slots start at 0 because the symmetric heap is
      // zero-initialized; writing them locally here would race with an early
      // remote flag put from a faster sender. One slot per possible source.
      // Key-coordinated allocation: ranks that never execute this site do
      // not disturb the offsets of those that do.
      auto& shmem_site = state.shmem_sites[site];
      if (shmem_site.flags == nullptr) {
        shmem_site.flags =
            shmem::shared_flags("cid.p2p." + std::string(site.name().text()),
                                static_cast<std::size_t>(ctx.nranks()));
      }
      if (send_active) {
        for (std::size_t i = 0; i < pairs; ++i) {
          CID_REQUIRE(shmem::is_symmetric(rbufs[i].data),
                      ErrorCode::InvalidClause,
                      "SHMEM target requires rbuf '" + rbufs[i].name +
                          "' to be a symmetric data object");
          shmem::putmem(rbufs[i].data, sbufs[i].data,
                        count * sbufs[i].element_size, receiver_rank);
          ++state.stats.shmem_puts;
          state.stats.shmem_bytes += count * sbufs[i].element_size;
        }
        shmem_site.sent_to[receiver_rank] += pairs;
        // The flag publication is deferred to the consolidated sync point:
        // one fence + one flag put per (site, destination) per epoch.
        auto& updates = pending.shmem_flag_updates;
        const bool already_pending = std::any_of(
            updates.begin(), updates.end(), [&](const ShmemFlagUpdate& u) {
              return u.site == &shmem_site && u.dest == receiver_rank;
            });
        if (!already_pending) {
          updates.push_back({&shmem_site, receiver_rank});
        }
        pending.shmem_quiet_needed = true;
      }
      if (recv_active) {
        const std::uint64_t* flag = &shmem_site.flags[sender_rank];
        shmem_site.expected_from[sender_rank] += pairs;
        // Replace any previous expectation on the same flag slot.
        auto it = std::find_if(
            pending.shmem_expects.begin(),
            pending.shmem_expects.end(),
            [&](const ShmemExpect& e) { return e.flag == flag; });
        if (it != pending.shmem_expects.end()) {
          it->expected = shmem_site.expected_from[sender_rank];
        } else {
          pending.shmem_expects.push_back(
              {flag, shmem_site.expected_from[sender_rank]});
        }
      }
      break;
    }

    case Target::Mpi1Side: {
      // One window per (site, buffer pair); creation is collective — every
      // rank reaches the directive and exposes its own rbuf.
      for (std::size_t i = 0; i < pairs; ++i) {
        auto& cache = state.windows[{site, i}];
        void* expose_base = rbufs[i].data;
        const std::size_t expose_bytes = count * rbufs[i].element_size;
        if (!cache.win.valid() || cache.base != expose_base ||
            cache.bytes != expose_bytes) {
          cache.win = mpi::Win::create(world, expose_base, expose_bytes);
          cache.base = expose_base;
          cache.bytes = expose_bytes;
        }
        if (send_active) {
          const mpi::Datatype dtype = state.datatype_for(sbufs[i]);
          cache.win.put(sbufs[i].data, count, dtype, receiver_rank, 0);
          ++state.stats.mpi1_puts;
          state.stats.mpi1_bytes += count * dtype.payload_size();
        }
        auto& fences = pending.windows_to_fence;
        if (std::find(fences.begin(), fences.end(), cache.win) ==
            fences.end()) {
          fences.push_back(cache.win);
        }
      }
      break;
    }
  }

  pending.ranges.insert(pending.ranges.end(), touched.begin(),
                              touched.end());

  // Communication/computation overlap: the block runs while transfers are
  // in flight; synchronization comes later (region end or directive end).
  if (overlap != nullptr && *overlap) {
    const simnet::SimTime overlap_begin = ctx.clock().now();
    (*overlap)();
    if (obs::enabled()) {
      record_trace_event({TraceEventKind::Overlap, ctx.rank(), overlap_begin,
                          ctx.clock().now(), site.name(), 0, 0});
    }
  }

  if (!in_region) {
    state.flush(pending);
  }

  if (obs::enabled()) {
    record_trace_event({TraceEventKind::P2PDirective, ctx.rank(), trace_begin,
                        ctx.clock().now(), site.name(),
                        state.stats.total_bytes() - trace_bytes0,
                        state.stats.total_messages() - trace_msgs0});
  }
}

}  // namespace
}  // namespace detail

void Region::p2p(const Clauses& clauses, std::source_location site) {
  detail::execute_p2p(clauses, impl_, nullptr, detail::SiteId::of(site));
}

void Region::p2p(const Clauses& clauses, const std::function<void()>& overlap,
                 std::source_location site) {
  detail::execute_p2p(clauses, impl_, &overlap, detail::SiteId::of(site));
}

void comm_parameters(const Clauses& clauses,
                     const std::function<void(Region&)>& body,
                     std::source_location site) {
  CID_REQUIRE(rt::in_spmd_region(), ErrorCode::RuntimeFault,
              "comm_parameters outside an SPMD region");
  detail::throw_if_error(clauses.validate_for_params());

  auto& state = detail::ExecState::mine();
  auto& trace_ctx = rt::current_ctx();
  const simnet::SimTime trace_begin = trace_ctx.clock().now();
  const std::uint64_t trace_bytes0 = state.stats.total_bytes();
  const std::uint64_t trace_msgs0 = state.stats.total_messages();

  const auto land = [&state](detail::PendingOps& batch) {
    state.flush(batch);
  };
  state.sync_plan.begin_region(land);

  ++state.stats.regions;
  detail::RegionImpl impl(
      state.region_stack.empty()
          ? ClauseView(clauses)
          : ClauseView(state.region_stack.back()->clauses, clauses),
      detail::SiteId::of(site));
  state.region_stack.push_back(&impl);

  Region region(impl);
  try {
    body(region);
  } catch (...) {
    state.region_stack.pop_back();
    throw;
  }
  state.region_stack.pop_back();

  // The region's own place_sync: a nested region does not inherit it.
  const SyncPlacement placement =
      clauses.place_sync_clause().value_or(SyncPlacement::EndParamRegion);
  if (placement != SyncPlacement::EndParamRegion) ++state.stats.deferred_syncs;
  state.sync_plan.end_region(placement, land);

  if (obs::enabled()) {
    detail::record_trace_event(
        {TraceEventKind::RegionDirective, trace_ctx.rank(), trace_begin,
         trace_ctx.clock().now(), impl.site.name(),
         state.stats.total_bytes() - trace_bytes0,
         state.stats.total_messages() - trace_msgs0});
  }
}

void comm_p2p(const Clauses& clauses, std::source_location site) {
  CID_REQUIRE(rt::in_spmd_region(), ErrorCode::RuntimeFault,
              "comm_p2p outside an SPMD region");
  auto& state = detail::ExecState::mine();
  const detail::RegionImpl* region =
      state.region_stack.empty() ? nullptr : state.region_stack.back();
  detail::execute_p2p(clauses, region, nullptr, detail::SiteId::of(site));
}

void comm_p2p(const Clauses& clauses, const std::function<void()>& overlap,
              std::source_location site) {
  CID_REQUIRE(rt::in_spmd_region(), ErrorCode::RuntimeFault,
              "comm_p2p outside an SPMD region");
  auto& state = detail::ExecState::mine();
  const detail::RegionImpl* region =
      state.region_stack.empty() ? nullptr : state.region_stack.back();
  detail::execute_p2p(clauses, region, &overlap, detail::SiteId::of(site));
}

void comm_flush() {
  CID_REQUIRE(rt::in_spmd_region(), ErrorCode::RuntimeFault,
              "comm_flush outside an SPMD region");
  auto& state = detail::ExecState::mine();
  state.sync_plan.flush_all(
      [&state](detail::PendingOps& batch) { state.flush(batch); });
}

}  // namespace cid::core
