// The shared state of one SPMD execution: mailboxes, clocks, the machine
// model, a max-reducing barrier, and a registry where higher layers (miniMPI
// windows, miniSHMEM symmetric heap) stash their collective state.
#pragma once

#include <any>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "rt/mailbox.hpp"
#include "rt/sched.hpp"
#include "simnet/machine_model.hpp"
#include "simnet/virtual_clock.hpp"

namespace cid::net {
class Transport;
}  // namespace cid::net

namespace cid::rt {

/// What the delivery interceptor decided about one envelope. At most one of
/// drop/duplicate should be set; delay and sender_stall compose with either.
struct DeliveryVerdict {
  bool drop = false;            ///< deliver a payload-less tombstone instead
  bool duplicate = false;       ///< push a second, clean copy
  simnet::SimTime delay = 0.0;  ///< extra transit latency for this envelope
  simnet::SimTime duplicate_delay = 0.0;  ///< extra latency for the copy
  simnet::SimTime sender_stall = 0.0;     ///< freeze charged to the sender
};

/// Observes every mailbox delivery in the world. Called on the *sending*
/// rank's thread, before the envelope is queued, so implementations may keep
/// per-source state without locking (one writer per source rank) and may
/// charge the sender's virtual clock. Install via RunOptions / World.
class DeliveryInterceptor {
 public:
  virtual ~DeliveryInterceptor() = default;
  virtual DeliveryVerdict on_deliver(const Envelope& envelope,
                                     int dest_rank) = 0;
};

class World {
 public:
  /// `transport` carries every envelope and synchronizes the world barrier
  /// (see net/transport.hpp); it must not be null. rt::run resolves it
  /// (SimTransport for the default sim backend) and attaches it before any
  /// rank starts.
  World(int nranks, simnet::MachineModel model,
        std::shared_ptr<net::Transport> transport);

  int nranks() const noexcept { return nranks_; }
  const simnet::MachineModel& model() const noexcept { return model_; }

  Mailbox& mailbox(int rank) {
    CID_REQUIRE(rank >= 0 && rank < nranks_, ErrorCode::InvalidArgument,
                "mailbox rank out of range");
    return *mailboxes_[rank];
  }

  simnet::VirtualClock& clock(int rank) {
    CID_REQUIRE(rank >= 0 && rank < nranks_, ErrorCode::InvalidArgument,
                "clock rank out of range");
    return clocks_[rank];
  }

  /// The single delivery seam: every envelope headed for a mailbox goes
  /// through here so an installed interceptor can drop (tombstone), delay,
  /// duplicate, or stall it. Call from the sending rank's thread.
  void deliver(int dest, Envelope envelope);

  /// Install (or clear, with nullptr) the delivery interceptor. Not
  /// thread-safe against concurrent deliveries; install before ranks start.
  void set_interceptor(std::shared_ptr<DeliveryInterceptor> interceptor) {
    interceptor_ = std::move(interceptor);
  }
  DeliveryInterceptor* interceptor() const noexcept {
    return interceptor_.get();
  }

  /// Lightweight mutating tap on the delivery seam, run before the fault
  /// interceptor and before transport routing. cid::explore uses it to
  /// stamp Envelope::explore_uid and record the send in its happens-before
  /// trace. Inert (and free) when unset; install before ranks start.
  void set_delivery_tap(std::function<void(Envelope&, int)> tap) {
    delivery_tap_ = std::move(tap);
  }

  net::Transport& transport() const noexcept { return *transport_; }

  /// Gate for facilities built on in-process shared state (the shmem
  /// symmetric heap, MPI windows, communicator split): throws
  /// CidError(UnsupportedTarget) on a cross-process transport, whose remote
  /// ranks cannot reach this process's memory or condition variables.
  void require_single_process(const std::string& what) const;

  /// Non-throwing form of the gate above: true when every rank runs in this
  /// OS process (cid::tune only auto-picks shmem / one-sided when so).
  bool single_process() const noexcept;

  /// True when `rank` runs in this OS process (always true on an
  /// in-process transport).
  bool rank_is_local(int rank) const noexcept;

  /// Max-reducing barrier: all ranks block until everyone arrives, then every
  /// clock is set to max(arrival clocks) + cost. `cost` defaults to the
  /// machine model's barrier cost; pass 0 for a pure synchronization point
  /// (used by test harnesses).
  ///
  /// Internally sharded for O(10k) ranks: ranks combine into per-shard
  /// {mutex, cv, max} groups of kBarrierShardSize, the last rank of each
  /// shard propagates to a small root, and release walks the shards with
  /// targeted per-shard wakeups instead of one notify_all storm over a
  /// single contended mutex. The released clock value is computed exactly
  /// as before (global max + cost, every clock reset), so results stay
  /// byte-identical.
  void barrier(int rank, simnet::SimTime cost);
  void barrier(int rank) { barrier(rank, model_.barrier_cost(nranks_)); }

  /// Mark the world failed (a rank threw). All blocking operations wake up
  /// and throw so every thread unwinds instead of deadlocking.
  void poison() noexcept;
  bool poisoned() const noexcept {
    return poisoned_.load(std::memory_order_acquire);
  }
  void check_poisoned() const {
    if (poisoned()) {
      throw CidError(ErrorCode::RuntimeFault,
                     "SPMD world poisoned by a failure on another rank");
    }
  }

  /// Collective-state registry. The first caller constructs the object; all
  /// callers get the same instance. `key` must be unique per object (e.g.
  /// "shmem.heap", "mpi.win.3"). Thread-safe.
  template <typename T, typename... Args>
  std::shared_ptr<T> shared_object(const std::string& key, Args&&... args) {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    auto it = registry_.find(key);
    if (it == registry_.end()) {
      auto object = std::make_shared<T>(std::forward<Args>(args)...);
      registry_.emplace(key, object);
      return object;
    }
    auto object = std::any_cast<std::shared_ptr<T>>(&it->second);
    CID_REQUIRE(object != nullptr, ErrorCode::RuntimeFault,
                "shared_object type mismatch for key '" + key + "'");
    return *object;
  }

  /// Shared low-frequency condition variable for collective protocols built
  /// by higher layers (communicator split, window creation, sub-group
  /// barriers). poison() notifies it, so waiters must use wait_global() which
  /// checks the poison flag.
  std::mutex& global_mutex() noexcept { return global_mutex_; }
  /// Wait on the global CV until `condition()` (evaluated under the lock held
  /// by `lock`) is true; throws if the world is poisoned.
  void wait_global(std::unique_lock<std::mutex>& lock,
                   const std::function<bool()>& condition);
  void notify_global() { global_cv_.notify_all(); }

  /// Per-rank signal used by one-sided layers: notify after writing remote
  /// memory so a rank blocked in wait_until() re-checks its condition.
  void notify_rank(int rank);
  /// Block until `condition()` is true, waking on notify_rank(my_rank).
  /// The condition is evaluated under the signal lock.
  void wait_on_signal(int rank, const std::function<bool()>& condition);

 private:
  /// Barrier combining-tree fan-in: ranks [s*64, s*64+64) share shard s.
  /// 64 keeps shard state on a handful of cache lines while bounding the
  /// root's fan-in at nranks/64 (157 shards for 10k ranks).
  static constexpr int kBarrierShardSize = 64;

  /// One leaf of the combining tree: the only mutex/cv most ranks touch.
  struct BarrierShard {
    std::mutex mutex;
    sched::WaitCv released;
    int arrived = 0;
    int expected = 0;  ///< local participants with rank in this shard
    std::uint64_t generation = 0;
    simnet::SimTime max_clock = 0.0;
  };

  /// The tree root: touched once per shard per barrier, not once per rank.
  struct BarrierRoot {
    std::mutex mutex;
    int shards_arrived = 0;
    int active_shards = 0;  ///< shards with expected > 0
    simnet::SimTime max_clock = 0.0;
  };

  struct RankSignal {
    std::mutex mutex;
    sched::WaitCv changed;
  };

  BarrierShard& shard_of(int rank) {
    return *barrier_shards_[static_cast<std::size_t>(rank) /
                            kBarrierShardSize];
  }

  int nranks_;
  simnet::MachineModel model_;
  std::shared_ptr<DeliveryInterceptor> interceptor_;
  std::function<void(Envelope&, int)> delivery_tap_;
  std::shared_ptr<net::Transport> transport_;
  /// Cached Transport::real_loss(): fault-layer drops are discarded
  /// outright instead of delivered as tombstones.
  bool transport_real_loss_ = false;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<simnet::VirtualClock> clocks_;
  std::vector<std::unique_ptr<BarrierShard>> barrier_shards_;
  BarrierRoot barrier_root_;
  std::vector<std::unique_ptr<RankSignal>> signals_;
  std::atomic<bool> poisoned_{false};
  std::mutex global_mutex_;
  sched::WaitCv global_cv_;
  std::mutex registry_mutex_;
  std::map<std::string, std::any> registry_;
};

}  // namespace cid::rt
