#include "rt/world.hpp"

#include <algorithm>

#include "net/transport.hpp"
#include "obs/obs.hpp"
#include "rt/agg.hpp"

namespace cid::rt {

World::World(int nranks, simnet::MachineModel model,
             std::shared_ptr<net::Transport> transport)
    : nranks_(nranks),
      model_(model),
      transport_(std::move(transport)),
      clocks_(nranks) {
  CID_REQUIRE(nranks > 0, ErrorCode::InvalidArgument,
              "World requires at least one rank");
  CID_REQUIRE(transport_ != nullptr, ErrorCode::InvalidArgument,
              "World requires a transport");
  CID_REQUIRE(transport_->local_rank_count(nranks_) > 0,
              ErrorCode::InvalidArgument,
              "transport hosts no ranks in this process");
  transport_real_loss_ = transport_->real_loss();
  mailboxes_.reserve(nranks);
  signals_.reserve(nranks);
  for (int r = 0; r < nranks; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    mailboxes_.back()->set_poison_check([this] { return poisoned(); });
    signals_.push_back(std::make_unique<RankSignal>());
  }
  const int shard_count = (nranks + kBarrierShardSize - 1) / kBarrierShardSize;
  barrier_shards_.reserve(shard_count);
  for (int s = 0; s < shard_count; ++s) {
    barrier_shards_.push_back(std::make_unique<BarrierShard>());
  }
  // Only locally hosted ranks arrive at this process's barrier shards.
  for (int r = 0; r < nranks; ++r) {
    if (rank_is_local(r)) ++shard_of(r).expected;
  }
  for (auto& shard : barrier_shards_) {
    if (shard->expected > 0) ++barrier_root_.active_shards;
  }
}

void World::require_single_process(const std::string& what) const {
  if (transport_->cross_process()) {
    throw CidError(ErrorCode::UnsupportedTarget,
                   what + " requires all ranks in one process; the " +
                       std::string(net::backend_name(transport_->kind())) +
                       " transport shards them across processes");
  }
}

bool World::single_process() const noexcept {
  return !transport_->cross_process();
}

bool World::rank_is_local(int rank) const noexcept {
  const int begin = transport_->local_rank_begin(nranks_);
  return rank >= begin && rank < begin + transport_->local_rank_count(nranks_);
}

void World::deliver(int dest, Envelope envelope) {
  CID_REQUIRE(dest >= 0 && dest < nranks_, ErrorCode::InvalidArgument,
              "deliver destination rank out of range");
  if (obs::enabled()) {
    // Every envelope (including fault-layer duplicates pushed below) funnels
    // through here, so this counter pair is the ground truth for wire load
    // per destination rank.
    static const obs::Name kMessages("rt.deliver.messages");
    static const obs::Name kBytes("rt.deliver.bytes");
    static const obs::Name kSite("world");
    obs::count(kMessages, kSite, dest);
    obs::count(kBytes, kSite, dest, envelope.payload.size());
  }
  if (delivery_tap_) delivery_tap_(envelope, dest);
  if (interceptor_ != nullptr) {
    const DeliveryVerdict verdict = interceptor_->on_deliver(envelope, dest);
    if (verdict.sender_stall > 0.0 && envelope.src >= 0 &&
        envelope.src < nranks_) {
      // The sending rank freezes: its clock advances and the envelope (still
      // in its NIC) is pushed out correspondingly later.
      clocks_[envelope.src].advance(verdict.sender_stall);
      envelope.available_at += verdict.sender_stall;
    }
    envelope.available_at += verdict.delay;
    if (verdict.duplicate) {
      Envelope copy = envelope;
      copy.available_at += verdict.duplicate_delay;
      transport_->deliver(dest, std::move(copy));
    }
    if (verdict.drop) {
      if (transport_real_loss_) {
        // Real loss (tcp): the envelope never made it onto the wire.
        // Nothing arrives at the destination; reliability protocols must
        // detect the gap with wall-clock deadlines.
        if (obs::enabled()) {
          obs::count("rt.deliver.lost", "world", dest);
        }
        return;
      }
      if (envelope.channel == Channel::Internal &&
          envelope.context == agg::kContext) {
        // A lost aggregate keeps its per-sub headers so the mailbox split
        // still fans out one tombstone per logical message (rt/agg.hpp).
        envelope.payload = Payload(agg::tombstone(envelope.payload.span()));
      } else {
        envelope.payload.clear();
      }
      envelope.faulted = true;
    }
  }
  transport_->deliver(dest, std::move(envelope));
}

void World::barrier(int rank, simnet::SimTime cost) {
  check_poisoned();
  BarrierShard& shard = shard_of(rank);
  std::unique_lock<std::mutex> lock(shard.mutex);
  shard.max_clock = std::max(shard.max_clock, clocks_[rank].now());
  const std::uint64_t my_generation = shard.generation;
  if (++shard.arrived < shard.expected) {
    shard.released.wait(lock, [&] {
      return shard.generation != my_generation || poisoned();
    });
    check_poisoned();
    return;
  }

  // Shard closer: fold this shard's max into the root. The shard lock can
  // drop first — every other rank of this shard is parked until the next
  // generation is published, so nobody mutates the shard behind our back.
  const simnet::SimTime shard_max = shard.max_clock;
  lock.unlock();
  bool global_last = false;
  simnet::SimTime global_max = 0.0;
  {
    std::lock_guard<std::mutex> root_lock(barrier_root_.mutex);
    barrier_root_.max_clock = std::max(barrier_root_.max_clock, shard_max);
    if (++barrier_root_.shards_arrived == barrier_root_.active_shards) {
      global_last = true;
      global_max = barrier_root_.max_clock;
      // Reset the root before any shard is released: a woken rank may
      // re-enter the next barrier and close its shard again immediately.
      barrier_root_.shards_arrived = 0;
      barrier_root_.max_clock = 0.0;
    }
  }
  if (!global_last) {
    lock.lock();
    shard.released.wait(lock, [&] {
      return shard.generation != my_generation || poisoned();
    });
    check_poisoned();
    return;
  }

  // Global releaser: exactly the pre-sharding arithmetic. The last
  // locally-arriving rank folds the other processes' maxima in through the
  // transport (identity for in-process transports, so the simulator's
  // barrier arithmetic is untouched), then resets every clock to the common
  // release time.
  global_max = transport_->barrier_sync(global_max);
  const simnet::SimTime release_time = global_max + cost;
  for (auto& clock : clocks_) clock.reset(release_time);
  // Publish generation G+1 shard by shard. A rank woken from an early shard
  // can race ahead into the next barrier, but it cannot finish that barrier
  // before we release the last shard here, because that shard's ranks are
  // still parked on generation G.
  for (auto& shard_ptr : barrier_shards_) {
    BarrierShard& s = *shard_ptr;
    if (s.expected == 0) continue;
    {
      std::lock_guard<std::mutex> shard_lock(s.mutex);
      s.arrived = 0;
      s.max_clock = 0.0;
      ++s.generation;
    }
    s.released.notify_all();
  }
}

void World::poison() noexcept {
  poisoned_.store(true, std::memory_order_release);
  transport_->interrupt();  // wake ranks blocked inside barrier_sync
  for (auto& mailbox : mailboxes_) mailbox->interrupt_all();
  // The empty lock/unlock brackets pair with each waiter, which holds the
  // corresponding mutex from its predicate check until it is registered on
  // the cv: without them the store above could land between a check and the
  // park and the notify would find no one.
  for (auto& shard : barrier_shards_) {
    { std::lock_guard<std::mutex> lock(shard->mutex); }
    shard->released.notify_all();
  }
  for (auto& signal : signals_) {
    { std::lock_guard<std::mutex> lock(signal->mutex); }
    signal->changed.notify_all();
  }
  { std::lock_guard<std::mutex> lock(global_mutex_); }
  global_cv_.notify_all();
}

void World::wait_global(std::unique_lock<std::mutex>& lock,
                        const std::function<bool()>& condition) {
  CID_ASSERT(lock.mutex() == &global_mutex_ && lock.owns_lock(),
             "wait_global requires the locked global mutex");
  global_cv_.wait(lock, [&] { return condition() || poisoned(); });
  check_poisoned();
}

void World::notify_rank(int rank) {
  CID_REQUIRE(rank >= 0 && rank < nranks_, ErrorCode::InvalidArgument,
              "notify_rank out of range");
  // Lock/unlock pairs with the wait in wait_on_signal so a notification
  // cannot slip between the condition check and the wait.
  { std::lock_guard<std::mutex> lock(signals_[rank]->mutex); }
  signals_[rank]->changed.notify_all();
}

void World::wait_on_signal(int rank, const std::function<bool()>& condition) {
  CID_REQUIRE(rank >= 0 && rank < nranks_, ErrorCode::InvalidArgument,
              "wait_on_signal out of range");
  std::unique_lock<std::mutex> lock(signals_[rank]->mutex);
  signals_[rank]->changed.wait(
      lock, [&] { return condition() || poisoned(); });
  check_poisoned();
}

}  // namespace cid::rt
