#include "mpi/request.hpp"

#include <algorithm>
#include <vector>

#include "obs/obs.hpp"
#include "rt/envelope.hpp"
#include "rt/mailbox.hpp"

namespace cid::mpi {

namespace {

/// Field-level matching for one posted receive, ignoring the fault flag
/// (used by the timed wait to spot tombstones addressed to a request).
bool envelope_fields_match(const rt::Envelope& envelope,
                           const detail::RequestImpl& request) {
  if (envelope.channel != rt::Channel::MpiPointToPoint) return false;
  if (envelope.context != request.comm.context()) return false;
  if (request.match_tag != kAnyTag && envelope.tag != request.match_tag) {
    return false;
  }
  const int src_comm_rank = request.comm.comm_rank_of_world(envelope.src);
  if (src_comm_rank < 0) return false;  // not a member of this communicator
  if (request.match_source != kAnySource &&
      src_comm_rank != request.match_source) {
    return false;
  }
  return true;
}

/// Matching predicate for one posted receive. Tombstones (dropped messages)
/// never match: plain MPI has no recovery protocol, so a lost message simply
/// never arrives.
bool envelope_matches(const rt::Envelope& envelope,
                      const detail::RequestImpl& request) {
  if (envelope.faulted) return false;
  return envelope_fields_match(envelope, request);
}

/// Structured key admitting the envelopes `envelope_fields_match` accepts for
/// `request`, up to communicator membership (which only the residual can
/// check when the source is a wildcard). match_source is a comm rank; the
/// wire carries world ranks, so exact sources are translated here.
rt::MatchKey key_for(const detail::RequestImpl& request,
                     rt::FaultFilter faults) {
  rt::MatchKey key;
  key.channel = rt::Channel::MpiPointToPoint;
  key.context = request.comm.context();
  key.src = request.match_source == kAnySource
                ? rt::kMatchAny
                : request.comm.world_rank(request.match_source);
  key.tag = request.match_tag == kAnyTag ? rt::kMatchAny : request.match_tag;
  key.faults = faults;
  return key;
}

/// Keys of every posted incomplete receive, for indexed mailbox matching.
std::vector<rt::MatchKey> posted_keys(
    const std::vector<std::shared_ptr<detail::RequestImpl>>& posted) {
  std::vector<rt::MatchKey> keys;
  keys.reserve(posted.size());
  for (const auto& request : posted) {
    if (!request->complete) {
      keys.push_back(key_for(*request, rt::FaultFilter::Clean));
    }
  }
  return keys;
}

/// When every key pins (src, tag), the residual re-scan of the posted list
/// is redundant: an envelope admitted by an exact key already field-matches
/// the (incomplete) receive that produced the key — same channel, context,
/// source and tag, and membership holds because the key's src came through
/// the receive's own communicator. Skipping it turns the flat fan-in
/// pattern (a root waiting on P-1 exact receives) from O(P^3) envelope
/// matching into O(P^2). Wildcard receives keep the residual: kMatchAny
/// admits envelopes from ranks outside the receive's communicator.
bool all_exact(const std::vector<rt::MatchKey>& keys) noexcept {
  for (const auto& key : keys) {
    if (!key.exact()) return false;
  }
  return true;
}

}  // namespace

Engine& Engine::mine() {
  // Cached per rank like Comm::world(): the registry is consulted once.
  static const char kSlot = 0;
  auto& ctx = rt::current_ctx();
  auto& slot = ctx.local_slot(&kSlot);
  if (!slot) {
    auto engines = ctx.world().shared_object<std::vector<Engine>>(
        "mpi.engines", ctx.nranks());
    // Aliasing constructor: the slot keeps the whole vector alive.
    slot = std::shared_ptr<void>(engines, &(*engines)[ctx.rank()]);
  }
  return *static_cast<Engine*>(slot.get());
}

void Engine::post_recv(const std::shared_ptr<detail::RequestImpl>& request) {
  request->post_order = next_post_order_++;
  posted_.push_back(request);
}

void Engine::deliver(rt::RankCtx& ctx, detail::RequestImpl& request,
                     const rt::Envelope& envelope) {
  const std::size_t element_bytes = request.dtype.payload_size();
  const std::size_t wire_bytes = envelope.payload.size();
  CID_REQUIRE(element_bytes > 0 && wire_bytes % element_bytes == 0,
              ErrorCode::RuntimeFault,
              "incoming message of " + std::to_string(wire_bytes) +
                  " bytes is not a whole number of " +
                  std::to_string(element_bytes) + "-byte elements");
  const std::size_t count = wire_bytes / element_bytes;
  CID_REQUIRE(count <= request.recv_capacity, ErrorCode::RuntimeFault,
              "message truncation: incoming " + std::to_string(count) +
                  " elements exceed posted capacity " +
                  std::to_string(request.recv_capacity));

  const Status scatter_status = request.dtype.scatter(
      ByteSpan(envelope.payload.data(), wire_bytes), request.recv_buf, count);
  CID_REQUIRE(scatter_status.is_ok(), ErrorCode::RuntimeFault,
              scatter_status.to_string());
  // The engine walks the derived layout on delivery.
  ctx.charge_compute(ctx.model().host.layout_walk_time(
      wire_bytes, request.dtype.is_contiguous()));

  request.status.source = request.comm.comm_rank_of_world(envelope.src);
  request.status.tag = envelope.tag;
  request.status.count = count;
  request.complete_at = envelope.available_at;
  request.complete = true;
  request.active = false;
  if (obs::enabled()) {
    obs::count("mpi.match.messages", "engine", ctx.rank());
    obs::count("mpi.match.bytes", "engine", ctx.rank(), wire_bytes);
  }
}

void Engine::progress(rt::RankCtx& ctx) {
  // Message-driven matching, like an MPI progress engine: take arriving
  // envelopes one at a time (in arrival order) and hand each to the FIRST
  // posted incomplete receive it matches. Extracting the envelope and
  // choosing its receive atomically (per envelope) avoids the race where a
  // message arriving mid-sweep is claimed by a later posted receive after
  // an earlier matching receive already scanned an empty queue.
  //
  // The key list is built once: keys[i] belongs to open[i], and both drop
  // the entry when that receive completes, so each extraction searches with
  // exactly the keys of the receives still incomplete.
  std::vector<rt::MatchKey> keys;
  std::vector<detail::RequestImpl*> open;
  keys.reserve(posted_.size());
  open.reserve(posted_.size());
  std::size_t wildcards = 0;
  for (const auto& request : posted_) {
    if (request->complete) continue;
    keys.push_back(key_for(*request, rt::FaultFilter::Clean));
    open.push_back(request.get());
    if (!keys.back().exact()) ++wildcards;
  }
  const rt::Mailbox::Residual residual = [&open](const rt::Envelope& e) {
    for (const detail::RequestImpl* request : open) {
      if (envelope_matches(e, *request)) return true;
    }
    return false;
  };
  while (!keys.empty()) {
    auto envelope =
        ctx.mailbox().try_extract(keys, wildcards == 0 ? nullptr : &residual);
    if (!envelope) break;
    for (std::size_t i = 0; i < open.size(); ++i) {
      if (!envelope_matches(*envelope, *open[i])) continue;
      deliver(ctx, *open[i], *envelope);
      if (!keys[i].exact()) --wildcards;
      keys.erase(keys.begin() + static_cast<std::ptrdiff_t>(i));
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  posted_.erase(std::remove_if(posted_.begin(), posted_.end(),
                               [](const auto& r) { return r->complete; }),
                posted_.end());
}

void Engine::wait_any_progress(rt::RankCtx& ctx) {
  const std::vector<rt::MatchKey> keys = posted_keys(posted_);
  const rt::Mailbox::Residual residual = [this](const rt::Envelope& e) {
    for (const auto& posted : posted_) {
      if (!posted->complete && envelope_matches(e, *posted)) return true;
    }
    return false;
  };
  ctx.mailbox().wait_present(keys, all_exact(keys) ? nullptr : &residual);
  progress(ctx);
}

bool Engine::wait_complete_for(
    rt::RankCtx& ctx, const std::shared_ptr<detail::RequestImpl>& request,
    simnet::SimTime deadline) {
  for (;;) {
    progress(ctx);
    if (request->complete) break;
    // A tombstone addressed to this request means its message was dropped:
    // the virtual-time timer fires at the deadline.
    const rt::MatchKey tombstone_key =
        key_for(*request, rt::FaultFilter::Faulted);
    const rt::Mailbox::Residual fields_residual = [&](const rt::Envelope& e) {
      return envelope_fields_match(e, *request);
    };
    auto tombstone = ctx.mailbox().try_extract(
        std::span<const rt::MatchKey>(&tombstone_key, 1),
        tombstone_key.exact() ? nullptr : &fields_residual);
    if (tombstone) {
      posted_.erase(std::remove(posted_.begin(), posted_.end(), request),
                    posted_.end());
      request->active = false;
      ctx.clock().advance_to(deadline);
      return false;
    }
    std::vector<rt::MatchKey> keys = posted_keys(posted_);
    keys.push_back(tombstone_key);
    const rt::Mailbox::Residual residual = [&](const rt::Envelope& e) {
      if (e.faulted) return envelope_fields_match(e, *request);
      for (const auto& posted : posted_) {
        if (!posted->complete && envelope_matches(e, *posted)) return true;
      }
      return false;
    };
    ctx.mailbox().wait_present(keys, all_exact(keys) ? nullptr : &residual);
  }
  if (request->complete_at <= deadline) return true;
  // The payload landed, but only after the deadline: the timer fired first.
  ctx.clock().advance_to(deadline);
  return false;
}

void Engine::wait_complete(
    rt::RankCtx& ctx, const std::shared_ptr<detail::RequestImpl>& request) {
  if ((request->kind == detail::ReqKind::PersistentSend ||
       request->kind == detail::ReqKind::PersistentRecv) &&
      !request->active && !request->complete) {
    return;  // MPI: waiting on an inactive persistent request is a no-op
  }
  for (;;) {
    progress(ctx);
    if (request->complete) return;
    // Block until something that could complete ANY posted receive arrives,
    // then re-run ordered matching. (Send requests complete at creation, so
    // reaching here means `request` is a posted receive.)
    const std::vector<rt::MatchKey> keys = posted_keys(posted_);
    const rt::Mailbox::Residual residual = [this](const rt::Envelope& e) {
      for (const auto& posted : posted_) {
        if (!posted->complete && envelope_matches(e, *posted)) return true;
      }
      return false;
    };
    ctx.mailbox().wait_present(keys, all_exact(keys) ? nullptr : &residual);
  }
}

}  // namespace cid::mpi
