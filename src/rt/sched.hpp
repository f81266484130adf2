// Pooled rank scheduling: stackful fibers multiplexed over a bounded worker
// pool, so a 10,000-rank simulation costs CID_SIM_WORKERS OS threads instead
// of 10,000.
//
// The simulator's ranks spend most of their life blocked — in a mailbox
// match wait, a barrier, or a collective protocol. With one OS thread per
// rank every block/wake is a kernel round trip and every rank costs a full
// pthread stack; at O(10k) ranks thread creation alone dominates the run.
// Here each rank runs on a Fiber and a blocked rank *parks*: it hands its
// worker thread back to the scheduler with a user-space context switch, and
// a later notify re-enqueues it. Workers only touch the kernel when the run
// queue is empty.
//
// Stacks and switches: a fiber runs on a 1 MiB guard-paged, lazily mapped
// stack borrowed from the process-wide StackCache and returned to it when the
// fiber is destroyed, so back-to-back rt::run calls map no new stacks. A
// switch is a callee-saved register swap (x86-64), with no system call: the
// signal mask is never saved or restored. A stack's entry trampoline loops —
// when a rank body returns it parks at an idle point, and the next fiber to
// borrow the stack resumes it there.
//
// The scheduler is intent-blind and deterministic-neutral: virtual time is
// advanced by rank code alone, so traces, stats and clocks are byte-identical
// whatever the worker count (pinned by the golden fingerprints in
// tests/property_test.cpp).
//
// Blocking integration: rt code never waits on a raw condition_variable.
// It waits on a WaitCv, which parks the calling fiber when there is one and
// falls back to a real condition_variable_any for plain threads (the rank
// threads of the thread/tcp transports). The park/notify handshake follows
// the classic protocol: the waiter publishes state=Parking and registers
// itself *before* releasing the caller's mutex, so a notify can never slip
// between the predicate check and the park.
//
// Sanitizers: fiber switches are annotated for ASan (fake-stack handoff)
// and TSan (__tsan fiber API), so the existing ASan/UBSan and TSan CI jobs
// run pooled programs unmodified.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cid::rt::sched {

/// Aggregate counters of one scheduler run (exposed through
/// Scheduler::stats() and, via rt::run, the rt.sched.* obs counters).
struct SchedStats {
  std::uint64_t switches = 0;  ///< fiber resumes (incl. first entry)
  std::uint64_t parks = 0;     ///< times a fiber gave its worker back
  std::uint64_t workers = 0;   ///< pool size actually used
  std::uint64_t fibers = 0;    ///< ranks multiplexed
};

class Scheduler;
struct FiberStack;  // a guard-paged stack mapping; defined in sched.cpp

/// Counters of the process-wide fiber stack cache. Reuse depends on how
/// runs follow one another — informational, never part of deterministic
/// output.
struct StackCacheStats {
  std::uint64_t mapped = 0;          ///< stacks mmap-ed (cache misses)
  std::uint64_t reused = 0;          ///< stacks handed out from the cache
  std::uint64_t retained_bytes = 0;  ///< mapping bytes parked in the cache
};

/// Fiber stacks outlive their fibers: a destroyed fiber's stack is parked
/// here, and the next fiber takes it back without an mmap, a guard mprotect
/// or a fresh entry frame. Every fiber stack has the same size.
class StackCache {
 public:
  /// The process-wide cache. Leaked on purpose (like the payload arena) so
  /// fibers destroyed during static teardown stay safe.
  static StackCache& global();

  StackCacheStats stats() const;

 private:
  friend class Fiber;

  StackCache() = default;

  /// A cached stack when available, else a new mapping with a guard page
  /// below it.
  FiberStack* acquire();

  /// Park `stack` for reuse, or unmap it when the cache is full.
  void release(FiberStack* stack);

  /// Each cached stack holds two mappings (guard and stack) of the
  /// process's vm.max_map_count (65530 by default) and whatever pages its
  /// last fiber touched. 4096 covers the 1024-rank perfbench workloads and
  /// the 1000-rank `bench_scale --quick` rows several times over, while
  /// the cache's mappings stay at an eighth of the default limit; stacks
  /// beyond it (the 10k-rank sweeps) are unmapped as they are released.
  static constexpr std::size_t kMaxCachedStacks = 4096;

  mutable std::mutex mutex_;
  std::vector<FiberStack*> cached_;
  StackCacheStats stats_;
};

/// One rank's execution context, running on a stack borrowed from the
/// StackCache. Created and owned by the Scheduler; user code only ever
/// sees it through Fiber::current() and WaitCv.
class Fiber {
 public:
  /// The fiber running on the calling thread, or nullptr when the caller is
  /// a plain OS thread (wall-clock transport ranks, transport threads,
  /// tests).
  static Fiber* current() noexcept;

  /// Install the hooks the scheduler runs around every switch on the worker
  /// thread that hosts this fiber: `in` right before the fiber gains the
  /// worker (installs the rank's thread-locals on that worker), `out` right
  /// after it yields it (clears them). rt::run's rank wrapper sets these.
  void set_switch_hooks(std::function<void()> in, std::function<void()> out) {
    on_switch_in_ = std::move(in);
    on_switch_out_ = std::move(out);
  }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();  // public for std::unique_ptr; only the Scheduler owns Fibers

 private:
  friend class Scheduler;
  friend class StackCache;
  friend class WaitCv;
  friend void yield();

  enum State : int {
    kRunnable,  ///< in the run queue
    kRunning,   ///< owns a worker thread
    kParking,   ///< announced intent to park; not yet switched out
    kParked,    ///< switched out, waiting for an unpark
    kNotified,  ///< unparked while still Parking; requeue on switch-out
    kDone,      ///< entry function returned
  };

  Fiber(Scheduler& scheduler, std::function<void()> entry);

  /// The loop every stack runs: take the stack's current fiber, run its
  /// entry, mark it done, park at the idle point until the next fiber
  /// borrows the stack.
  [[noreturn]] static void stack_main(FiberStack* stack) noexcept;

  /// Yield the worker back to the scheduler. Called with state already
  /// kParking (or kNotified, from yield()) and no rt mutexes held.
  void suspend();

  Scheduler& scheduler_;
  std::function<void()> entry_;
  std::function<void()> on_switch_in_;
  std::function<void()> on_switch_out_;

  FiberStack* stack_;
  void** return_sp_ = nullptr;  ///< hosting worker's saved stack pointer

  std::atomic<int> state_{kRunnable};

  // Sanitizer bookkeeping (unused members cost nothing when disabled).
  // ASan's is on the FiberStack, which outlives the fiber.
  void* tsan_fiber_ = nullptr;   ///< __tsan_create_fiber handle
  void* tsan_return_ = nullptr;  ///< hosting worker's tsan context
};

/// Bounded worker pool driving a fixed set of fibers to completion.
class Scheduler {
 public:
  /// `workers` threads multiplex the fibers.
  explicit Scheduler(int workers);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Register one fiber. Call for every rank before run(). The returned
  /// reference stays valid for the scheduler's lifetime (for hook setup).
  Fiber& add(std::function<void()> entry);

  /// Start the workers, drive every fiber to completion, join the workers.
  /// Exceptions must not escape fiber entries (rt::run's rank wrapper
  /// catches them and poisons the world).
  void run();

  /// Make `fiber` runnable again after a park. Safe from any thread,
  /// including non-worker threads (e.g. poison from a dying rank).
  void unpark(Fiber* fiber);

  /// Install a quiescence hook (cid::explore's schedule oracle). When every
  /// unfinished fiber is parked — the run queue is empty and no worker is
  /// dispatching — a worker calls the hook with no scheduler locks held.
  /// Return true after making at least one fiber runnable (e.g. by
  /// releasing a gated message and waking its waiter); return false when no
  /// progress is possible, after arranging the unwind (poisoning the world
  /// wakes every parked fiber). With several workers the hook may be called
  /// concurrently from more than one idle worker; the pooled exploration
  /// sessions run one worker, where calls are strictly serialized. Inert
  /// when unset: idle workers simply sleep, exactly as before.
  void set_idle_hook(std::function<bool()> hook) {
    idle_hook_ = std::move(hook);
  }

  SchedStats stats() const noexcept;

 private:
  friend class Fiber;

  void worker_loop();
  void enqueue(Fiber* fiber);
  /// Run `fiber` on the calling worker until it parks or finishes.
  void dispatch(Fiber* fiber, void** worker_sp);

  int worker_count_;
  std::vector<std::unique_ptr<Fiber>> fibers_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Fiber*> run_queue_;
  std::size_t finished_ = 0;
  int dispatching_ = 0;  ///< workers currently hosting a fiber
  std::function<bool()> idle_hook_;

  std::atomic<std::uint64_t> switches_{0};
  std::atomic<std::uint64_t> parks_{0};
};

/// Scheduler-aware condition variable for use under an external std::mutex.
/// Fiber callers park (the worker thread stays useful); plain-thread callers
/// block in a real condition_variable_any. Only notify_all is provided —
/// every rt wait re-checks its predicate, so precision beyond "wake the
/// waiters of this cv" is the caller's job (and the reason World shards its
/// barrier: one WaitCv per shard makes notify_all a targeted wakeup).
class WaitCv {
 public:
  /// Wait for one notify_all. Spurious wakeups possible; callers loop on a
  /// predicate. `lock` is released while waiting and re-acquired before
  /// returning.
  void wait(std::unique_lock<std::mutex>& lock);

  /// Predicate loop over wait(), mirroring std::condition_variable.
  template <typename Predicate>
  void wait(std::unique_lock<std::mutex>& lock, Predicate predicate) {
    while (!predicate()) wait(lock);
  }

  /// Timed wait (wall clock). On a fiber this intentionally blocks the
  /// hosting worker thread: timed waits exist for the wall-clock transports
  /// (reliability deadlines on real loss), which run a thread per rank; the
  /// virtual-time pool never issues them on a hot path.
  /// Returns false on timeout.
  bool wait_until(std::unique_lock<std::mutex>& lock,
                  std::chrono::steady_clock::time_point deadline);

  /// Wake every current waiter (fibers are re-enqueued, threads notified).
  /// The caller changes the waited-for state under the waiters' mutex, and
  /// notifies while holding it or after releasing it.
  void notify_all();

 private:
  std::mutex waiters_mutex_;
  std::vector<Fiber*> fiber_waiters_;
  std::condition_variable_any cv_;
  /// Threads in wait() or wait_until(), counted under the caller's mutex.
  std::atomic<int> thread_waiters_{0};
};

/// Cooperative yield. On a fiber: requeue at the back of the run queue and
/// hand the worker to another rank — REQUIRED in busy-poll loops (mpi::test,
/// iprobe retries), which would otherwise starve the bounded pool of the
/// very peers they are polling for. On a plain thread: this_thread::yield().
void yield();

/// Worker count: `requested` when > 0, else CID_SIM_WORKERS, else
/// min(hardware_concurrency, nranks), at least 1.
int resolve_workers(int requested, int nranks);

}  // namespace cid::rt::sched
