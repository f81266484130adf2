// SPMD launcher. On the virtual-time (sim) backend ranks always run as
// fibers multiplexed over a bounded worker pool (rt/sched.hpp), so
// O(10k)-rank simulations cost CID_SIM_WORKERS OS threads; wall-clock and
// cross-process transports keep one OS thread per rank. Ranks wait via
// scheduler-aware condition variables, never spin, so heavily
// oversubscribed runs are fine on either.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "rt/sched.hpp"
#include "rt/world.hpp"
#include "simnet/machine_model.hpp"
#include "simnet/virtual_clock.hpp"

namespace cid::rt {

/// Per-rank view of the execution; passed to the SPMD function and reachable
/// from anywhere on the rank thread via current_ctx().
class RankCtx {
 public:
  RankCtx(int rank, World& world) : rank_(rank), world_(&world) {}

  int rank() const noexcept { return rank_; }
  int nranks() const noexcept { return world_->nranks(); }
  World& world() noexcept { return *world_; }
  const simnet::MachineModel& model() const noexcept {
    return world_->model();
  }

  simnet::VirtualClock& clock() noexcept { return world_->clock(rank_); }
  Mailbox& mailbox() noexcept { return world_->mailbox(rank_); }

  /// Charge local computation time to this rank's virtual clock.
  void charge_compute(simnet::SimTime seconds) { clock().advance(seconds); }

  /// Runtime-level barrier (max-reduces virtual clocks).
  void barrier() { world_->barrier(rank_); }

  /// Rank-local storage: one slot per unique key address, created empty on
  /// first use. This is where facilities keep per-rank state that used to
  /// live in a thread_local (executor state, trace sinks) — a thread_local
  /// is wrong under the pooled scheduler, where many ranks share one worker
  /// thread. Only the owning rank touches its slots, so no locking.
  std::shared_ptr<void>& local_slot(const void* key) { return locals_[key]; }

 private:
  int rank_;
  World* world_;
  std::map<const void*, std::shared_ptr<void>> locals_;
};

/// The rank function: the body of the SPMD program.
using RankFn = std::function<void(RankCtx&)>;

struct RunResult {
  /// Final virtual clock of each rank when its function returned.
  std::vector<simnet::SimTime> final_clocks;

  /// True when the pooled fiber scheduler ran the ranks (the in-process
  /// virtual-time backend).
  bool pooled = false;

  /// Scheduler counters for the run (all zero when pooled is false). The
  /// park/switch counts depend on wall-clock interleaving — informational,
  /// never part of deterministic output.
  sched::SchedStats sched_stats;

  /// Latest final clock: the virtual makespan of the run.
  simnet::SimTime makespan() const noexcept;
};

/// Knobs for run() beyond the machine model. The World is constructed inside
/// run(), so anything that must be installed on it before ranks start (the
/// fault layer's delivery interceptor, notably) is passed here.
struct RunOptions {
  std::shared_ptr<DeliveryInterceptor> interceptor;
  /// Transport backend carrying envelopes between ranks. Null resolves
  /// CID_BACKEND (sim when unset) via net::make_transport_from_env(); see
  /// docs/TRANSPORTS.md. On cross-process transports run() spawns only the
  /// ranks this process hosts.
  std::shared_ptr<net::Transport> transport;
  /// Worker threads for the pooled scheduler that runs the ranks of the
  /// in-process virtual-time backend; 0 resolves CID_SIM_WORKERS, then
  /// hardware concurrency. Wall-clock and cross-process transports run one
  /// OS thread per rank and ignore it.
  int sim_workers = 0;
  /// Called with the freshly constructed World after the transport and
  /// interceptor are installed and before any rank starts. cid::explore
  /// installs its mailbox gates and delivery tap here; anything that must
  /// see the World before the SPMD program does can use it.
  std::function<void(World&)> world_setup;
  /// Pooled-scheduler quiescence hook (see sched::Scheduler::set_idle_hook).
  /// Ignored by the wall-clock and cross-process transports, which run a
  /// thread per rank.
  std::function<bool()> idle_hook;
};

/// Execute `fn` on `nranks` ranks over a fresh World. Rethrows the first
/// rank failure (after poisoning the world so the other ranks unwind).
///
/// One run at a time per process: a call made while another run is in
/// progress, from any thread, throws CidError(RuntimeFault) before it touches
/// any state. Every run shares process-wide state with no lock around it:
/// tune::Tuner::prepare() rewrites the tuning mode and CID_COLL overrides at
/// the start of each run, and obs keeps one recorder per rank number, which
/// the same rank of two concurrent runs would both write.
RunResult run(int nranks, const simnet::MachineModel& model,
              const RankFn& fn);

/// As above, with extra options (delivery interceptor, ...).
RunResult run(int nranks, const simnet::MachineModel& model, const RankFn& fn,
              const RunOptions& options);

/// Convenience overload using the calibrated Cray XK7 model.
RunResult run(int nranks, const RankFn& fn);

/// The RankCtx of the calling thread. Throws CidError(RuntimeFault) when
/// called from outside an SPMD region.
RankCtx& current_ctx();

/// True when the calling thread is inside an SPMD region.
bool in_spmd_region() noexcept;

}  // namespace cid::rt
