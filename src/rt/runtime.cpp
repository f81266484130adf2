#include "rt/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "common/log.hpp"
#include "net/backend.hpp"
#include "net/transport.hpp"
#include "obs/autotrace.hpp"
#include "obs/obs.hpp"
#include "tune/tune.hpp"

namespace cid::rt {

namespace {
thread_local RankCtx* t_ctx = nullptr;

/// Set while a run() is in progress anywhere in the process.
std::atomic<bool> g_running{false};

/// RAII installation of the thread-local context.
class CtxScope {
 public:
  explicit CtxScope(RankCtx& ctx) {
    t_ctx = &ctx;
    log::set_thread_rank(ctx.rank());
  }
  ~CtxScope() {
    t_ctx = nullptr;
    log::set_thread_rank(-1);
  }
  CtxScope(const CtxScope&) = delete;
  CtxScope& operator=(const CtxScope&) = delete;
};
}  // namespace

simnet::SimTime RunResult::makespan() const noexcept {
  simnet::SimTime latest = 0.0;
  for (simnet::SimTime t : final_clocks) latest = std::max(latest, t);
  return latest;
}

RunResult run(int nranks, const simnet::MachineModel& model,
              const RankFn& fn) {
  return run(nranks, model, fn, RunOptions{});
}

RunResult run(int nranks, const simnet::MachineModel& model, const RankFn& fn,
              const RunOptions& options) {
  CID_REQUIRE(nranks > 0, ErrorCode::InvalidArgument,
              "run() requires nranks >= 1");
  CID_REQUIRE(!in_spmd_region(), ErrorCode::RuntimeFault,
              "nested SPMD regions are not supported");
  bool idle = false;
  CID_REQUIRE(g_running.compare_exchange_strong(idle, true,
                                                std::memory_order_acquire),
              ErrorCode::RuntimeFault,
              "run() called while another run is in progress in the process");
  struct Running {
    ~Running() { g_running.store(false, std::memory_order_release); }
  } running;
  // CID_TRACE_OUT: enable process-wide observability recording with zero
  // code changes in the SPMD program.
  obs::autotrace_poll();
  // CID_TUNE: re-read the tuning mode and (re)load the site profile each
  // run; record mode turns metrics collection on for the run's duration.
  tune::Tuner::global().prepare();

  // Resolve the transport backend: explicit option first, CID_BACKEND
  // otherwise (sim when unset — the deterministic virtual-time default).
  std::shared_ptr<net::Transport> transport =
      options.transport != nullptr ? options.transport
                                   : net::make_transport_from_env();

  World world(nranks, model, transport);
  if (options.interceptor != nullptr) {
    world.set_interceptor(options.interceptor);
  }
  if (options.world_setup) options.world_setup(world);
  std::mutex failure_mutex;
  std::exception_ptr first_failure;

  const bool wall_time = transport->wall_time();
  auto rank_body = [&](RankCtx& ctx) {
    const double wall_begin = net::wall_seconds();
    try {
      fn(ctx);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(failure_mutex);
        if (!first_failure) first_failure = std::current_exception();
      }
      world.poison();
    }
    if (wall_time && obs::enabled()) {
      // On wall-clock backends the number that matters is how long the
      // rank really ran, not its (bookkeeping) virtual clock.
      obs::span(ctx.rank(), "wall", "rank_main", wall_begin,
                net::wall_seconds());
      obs::observe("net.rank_wall_seconds", "rt", ctx.rank(),
                   net::wall_seconds() - wall_begin);
    }
  };

  // attach() before any rank starts; on cross-process transports only the
  // locally-hosted slice of ranks runs in this process.
  transport->attach(world);
  const int local_begin = transport->local_rank_begin(nranks);
  const int local_count = transport->local_rank_count(nranks);

  RunResult result;
  // The in-process virtual-time backend always runs its ranks on the pooled
  // fiber scheduler. Wall-clock transports (thread, tcp) measure real
  // elapsed time per rank, so a rank must own its OS thread for the
  // duration.
  if (!wall_time && !transport->cross_process()) {
    sched::Scheduler scheduler(
        sched::resolve_workers(options.sim_workers, local_count));
    if (options.idle_hook) scheduler.set_idle_hook(options.idle_hook);
    // RankCtx objects live out here (not on fiber stacks): the switch hooks
    // reference them from worker threads between switches.
    std::vector<std::unique_ptr<RankCtx>> ctxs;
    ctxs.reserve(local_count);
    for (int r = local_begin; r < local_begin + local_count; ++r) {
      ctxs.push_back(std::make_unique<RankCtx>(r, world));
    }
    for (auto& ctx_ptr : ctxs) {
      RankCtx* ctx = ctx_ptr.get();
      sched::Fiber& fiber =
          scheduler.add([&rank_body, ctx] { rank_body(*ctx); });
      // The rank's ambient identity (current_ctx, log rank) must follow the
      // fiber across worker threads; the scheduler installs it on whichever
      // worker hosts the fiber next.
      fiber.set_switch_hooks(
          [ctx] {
            t_ctx = ctx;
            log::set_thread_rank(ctx->rank());
          },
          [] {
            t_ctx = nullptr;
            log::set_thread_rank(-1);
          });
    }
    scheduler.run();
    result.pooled = true;
    result.sched_stats = scheduler.stats();
  } else {
    auto rank_main = [&](int rank) {
      RankCtx ctx(rank, world);
      CtxScope scope(ctx);
      rank_body(ctx);
    };
    std::vector<std::thread> threads;
    threads.reserve(local_count);
    for (int r = local_begin; r < local_begin + local_count; ++r) {
      threads.emplace_back(rank_main, r);
    }
    for (auto& thread : threads) thread.join();
  }
  // Deterministic shutdown: after every local rank finished, drain the
  // transport (and, cross-process, synchronize the teardown).
  transport->detach();

  if (first_failure) std::rethrow_exception(first_failure);

  if (result.pooled && obs::enabled()) {
    // Only the deterministic facts go to obs (exports must stay
    // byte-reproducible); the schedule-dependent park/switch counts are
    // returned in RunResult instead.
    obs::count("rt.sched.workers", "sched", 0, result.sched_stats.workers);
    obs::count("rt.sched.fibers", "sched", 0, result.sched_stats.fibers);
  }
  result.final_clocks.reserve(nranks);
  for (int r = 0; r < nranks; ++r) {
    result.final_clocks.push_back(world.clock(r).now());
  }
  // Flush the trace file at the end of every run, not only at process exit,
  // so a crash in a later run still leaves the completed runs on disk.
  if (obs::autotrace_active()) obs::autotrace_write();
  // Record mode: harvest this run's metrics into the in-memory profile and
  // persist it to CID_TUNE_PROFILE (if set).
  tune::Tuner::global().finish();
  return result;
}

RunResult run(int nranks, const RankFn& fn) {
  return run(nranks, simnet::MachineModel::cray_xk7_gemini(), fn);
}

RankCtx& current_ctx() {
  CID_REQUIRE(t_ctx != nullptr, ErrorCode::RuntimeFault,
              "current_ctx() called outside an SPMD region");
  return *t_ctx;
}

bool in_spmd_region() noexcept { return t_ctx != nullptr; }

}  // namespace cid::rt
