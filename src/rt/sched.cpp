#include "rt/sched.hpp"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include <sys/mman.h>
#include <unistd.h>

// Sanitizer fiber annotations. ASan needs to be told about every stack
// switch so its fake-stack machinery follows the fiber; TSan models each
// fiber as its own logical thread so lock/happens-before state stays
// attached to the rank, not the worker that happens to host it.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CID_SCHED_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define CID_SCHED_TSAN 1
#endif
#endif
#if !defined(CID_SCHED_ASAN) && defined(__SANITIZE_ADDRESS__)
#define CID_SCHED_ASAN 1
#endif
#if !defined(CID_SCHED_TSAN) && defined(__SANITIZE_THREAD__)
#define CID_SCHED_TSAN 1
#endif

#if defined(CID_SCHED_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(CID_SCHED_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "cid::rt::sched switches fibers with an x86-64 register swap"
#endif

namespace cid::rt::sched {

/// A fiber stack: one mapping, a PROT_NONE guard page below the usable
/// stack, kept for the mapping's life. `sp` is where the next switch onto
/// the stack resumes: the entry frame of a fresh stack, a parked fiber's
/// switch-out, or stack_main's idle point once a fiber has finished.
struct FiberStack {
  std::byte* map_base = nullptr;
  std::size_t map_bytes = 0;
  std::byte* lo = nullptr;  ///< usable stack bottom (above the guard)
  std::size_t bytes = 0;
  void* sp = nullptr;
  Fiber* fiber = nullptr;  ///< the fiber borrowing the stack

  // ASan bookkeeping lives here, not on the Fiber: stack_main's frames
  // outlive every fiber that runs on them.
  void* asan_fake_stack = nullptr;  ///< saved while switched out
  const void* caller_bottom = nullptr;  ///< hosting worker's stack
  std::size_t caller_size = 0;
};

namespace {

// Fiber switch. cid_sched_swap(save_sp, load_sp) pushes the callee-saved
// registers and the SSE/x87 control words, stores the stack pointer to
// *save_sp, loads load_sp and pops the same layout from there: a plain call
// that returns when something switches back. cid_sched_start is the
// return address of a fresh stack's entry frame (see map_stack); it calls
// r12(rbx), i.e. Fiber::stack_main(stack), which never returns. Both are
// local symbols, and neither touches the signal mask. Neither switches a
// CET shadow stack either, so a process that opts into user shadow stacks
// (glibc.cpu.x86_shstk=on) cannot run pooled ranks.
asm(R"(
  .text
  .p2align 4
  .type cid_sched_swap, @function
cid_sched_swap:
  .cfi_startproc
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .cfi_endproc
  .size cid_sched_swap, .-cid_sched_swap

  .p2align 4
  .type cid_sched_start, @function
cid_sched_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %rbx, %rdi
  callq *%r12
  ud2
  .cfi_endproc
  .size cid_sched_start, .-cid_sched_start
)");

extern "C" void cid_sched_swap(void** save_sp, void* load_sp);
extern "C" void cid_sched_start();

thread_local Fiber* t_current_fiber = nullptr;
#if defined(CID_SCHED_TSAN)
thread_local void* t_worker_tsan_fiber = nullptr;
#endif

std::size_t page_size() {
  static const std::size_t page =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

std::size_t round_up_pages(std::size_t bytes) {
  const std::size_t page = page_size();
  return (bytes + page - 1) / page * page;
}

/// Map a stack with its guard page and lay out the entry frame that
/// cid_sched_swap pops on the first switch onto it: it starts
/// `main(stack)`.
FiberStack* map_stack(std::size_t stack_bytes, void (*main)(FiberStack*)) {
  const std::size_t page = page_size();
  const std::size_t map_bytes = stack_bytes + page;
  void* base = ::mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) {
    throw std::runtime_error("cid::rt::sched: fiber stack mmap failed");
  }
  if (::mprotect(base, page, PROT_NONE) != 0) {
    ::munmap(base, map_bytes);
    throw std::runtime_error("cid::rt::sched: fiber guard mprotect failed");
  }
  auto* stack = new FiberStack;
  stack->map_base = static_cast<std::byte*>(base);
  stack->map_bytes = map_bytes;
  stack->lo = stack->map_base + page;
  stack->bytes = stack_bytes;

  // Entry frame, lowest slot first: control words (MXCSR and x87 at their
  // power-on defaults), r15, r14, r13, r12 = main, rbx = stack, rbp = 0
  // (ends frame-pointer walks), return address = cid_sched_start. Two spare
  // slots above it leave the stack 16-byte aligned when cid_sched_start
  // calls main, as the ABI requires. The mapping is zero-filled, so only
  // the non-zero slots are written.
  auto* frame = reinterpret_cast<std::uint64_t*>(stack->lo + stack_bytes) - 10;
  frame[0] = 0x1F80u | (std::uint64_t{0x037F} << 32);
  frame[4] = reinterpret_cast<std::uint64_t>(main);
  frame[5] = reinterpret_cast<std::uint64_t>(stack);
  frame[7] = reinterpret_cast<std::uint64_t>(&cid_sched_start);
  stack->sp = frame;
  return stack;
}

}  // namespace

StackCache& StackCache::global() {
  static StackCache* cache = new StackCache();
  return *cache;
}

FiberStack* StackCache::acquire(std::size_t stack_bytes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto bin = bins_.find(stack_bytes);
    if (bin != bins_.end() && !bin->second.empty()) {
      FiberStack* stack = bin->second.back();
      bin->second.pop_back();
      --cached_;
      ++stats_.reused;
      stats_.retained_bytes -= stack->map_bytes;
      return stack;
    }
    ++stats_.mapped;
  }
  return map_stack(stack_bytes, &Fiber::stack_main);
}

void StackCache::release(FiberStack* stack) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (cached_ < kMaxCachedStacks) {
      bins_[stack->bytes].push_back(stack);
      ++cached_;
      stats_.retained_bytes += stack->map_bytes;
      return;
    }
  }
  ::munmap(stack->map_base, stack->map_bytes);
  delete stack;
}

StackCacheStats StackCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

Fiber* Fiber::current() noexcept { return t_current_fiber; }

Fiber::Fiber(Scheduler& scheduler, std::function<void()> entry,
             std::size_t stack_bytes)
    : scheduler_(scheduler),
      entry_(std::move(entry)),
      stack_(StackCache::global().acquire(round_up_pages(stack_bytes))) {
  stack_->fiber = this;
#if defined(CID_SCHED_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#if defined(CID_SCHED_TSAN)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  // A fiber is destroyed before its first dispatch or after it finished;
  // either way nothing of it is left on the stack.
  assert(state_.load() == kRunnable || state_.load() == kDone);
  StackCache::global().release(stack_);
}

void Fiber::stack_main(FiberStack* stack) noexcept {
  // Each pass runs one fiber. The switch out at the end of a pass calls
  // cid_sched_swap from this frame directly, so the next pass resumes
  // here with no frame of the finished fiber between (TSan keeps a shadow
  // call stack per fiber, and the next pass runs under another fiber).
  for (;;) {
#if defined(CID_SCHED_ASAN)
    // Complete the switch the dispatching worker started, remembering the
    // worker stack we must return to.
    __sanitizer_finish_switch_fiber(stack->asan_fake_stack,
                                    &stack->caller_bottom,
                                    &stack->caller_size);
#endif
    Fiber* fiber = stack->fiber;
    fiber->entry_();
    fiber->state_.store(kDone, std::memory_order_release);
#if defined(CID_SCHED_ASAN)
    __sanitizer_start_switch_fiber(&stack->asan_fake_stack,
                                   stack->caller_bottom, stack->caller_size);
#endif
#if defined(CID_SCHED_TSAN)
    __tsan_switch_to_fiber(fiber->tsan_return_, 0);
#endif
    cid_sched_swap(&stack->sp, *fiber->return_sp_);
  }
}

void Fiber::suspend() {
  FiberStack* stack = stack_;
#if defined(CID_SCHED_ASAN)
  __sanitizer_start_switch_fiber(&stack->asan_fake_stack,
                                 stack->caller_bottom, stack->caller_size);
#endif
#if defined(CID_SCHED_TSAN)
  __tsan_switch_to_fiber(tsan_return_, 0);
#endif
  cid_sched_swap(&stack->sp, *return_sp_);
  // Resumed, possibly on a different worker thread; dispatch() has already
  // refreshed return_sp_/tsan_return_ for the new host.
#if defined(CID_SCHED_ASAN)
  __sanitizer_finish_switch_fiber(stack->asan_fake_stack,
                                  &stack->caller_bottom, &stack->caller_size);
#endif
}

Scheduler::Scheduler(int workers, std::size_t stack_bytes)
    : stack_bytes_(stack_bytes), worker_count_(workers < 1 ? 1 : workers) {}

Scheduler::~Scheduler() = default;

Fiber& Scheduler::add(std::function<void()> entry) {
  fibers_.push_back(std::unique_ptr<Fiber>(
      new Fiber(*this, std::move(entry), stack_bytes_)));
  return *fibers_.back();
}

void Scheduler::enqueue(Fiber* fiber) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    run_queue_.push_back(fiber);
  }
  queue_cv_.notify_one();
}

void Scheduler::unpark(Fiber* fiber) {
  for (;;) {
    int state = fiber->state_.load(std::memory_order_acquire);
    switch (state) {
      case Fiber::kParked:
        if (fiber->state_.compare_exchange_weak(state, Fiber::kRunnable,
                                                std::memory_order_acq_rel)) {
          enqueue(fiber);
          return;
        }
        break;  // lost a race; re-read
      case Fiber::kParking:
        // The fiber is still switching out; mark it so the hosting worker
        // re-enqueues it instead of leaving it parked.
        if (fiber->state_.compare_exchange_weak(state, Fiber::kNotified,
                                                std::memory_order_acq_rel)) {
          return;
        }
        break;
      default:
        // Runnable / Running / Notified / Done: a wakeup is already
        // pending or meaningless.
        return;
    }
  }
}

void Scheduler::dispatch(Fiber* fiber, void** worker_sp) {
  fiber->return_sp_ = worker_sp;
#if defined(CID_SCHED_TSAN)
  fiber->tsan_return_ = t_worker_tsan_fiber;
#endif
  fiber->state_.store(Fiber::kRunning, std::memory_order_release);
  t_current_fiber = fiber;
  if (fiber->on_switch_in_) fiber->on_switch_in_();
  switches_.fetch_add(1, std::memory_order_relaxed);

#if defined(CID_SCHED_ASAN)
  void* worker_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&worker_fake_stack, fiber->stack_->lo,
                                 fiber->stack_->bytes);
#endif
#if defined(CID_SCHED_TSAN)
  __tsan_switch_to_fiber(fiber->tsan_fiber_, 0);
#endif
  cid_sched_swap(worker_sp, fiber->stack_->sp);
#if defined(CID_SCHED_ASAN)
  __sanitizer_finish_switch_fiber(worker_fake_stack, nullptr, nullptr);
#endif

  if (fiber->on_switch_out_) fiber->on_switch_out_();
  t_current_fiber = nullptr;

  int state = fiber->state_.load(std::memory_order_acquire);
  if (state == Fiber::kDone) {
    bool all_done = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      ++finished_;
      all_done = finished_ == fibers_.size();
    }
    if (all_done) queue_cv_.notify_all();
    return;
  }

  // The fiber parked. Complete Parking -> Parked; if an unpark already
  // intervened (Notified) the wakeup is ours to deliver.
  parks_.fetch_add(1, std::memory_order_relaxed);
  int expected = Fiber::kParking;
  if (!fiber->state_.compare_exchange_strong(expected, Fiber::kParked,
                                             std::memory_order_acq_rel)) {
    assert(expected == Fiber::kNotified);
    fiber->state_.store(Fiber::kRunnable, std::memory_order_release);
    enqueue(fiber);
  }
}

void Scheduler::worker_loop() {
#if defined(CID_SCHED_TSAN)
  t_worker_tsan_fiber = __tsan_get_current_fiber();
#endif
  void* worker_sp = nullptr;
  for (;;) {
    Fiber* fiber = nullptr;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      for (;;) {
        if (!run_queue_.empty() || stopping_ ||
            finished_ == fibers_.size()) {
          break;
        }
        if (idle_hook_ && dispatching_ == 0) {
          // Quiescence: every unfinished fiber is parked. Let the schedule
          // oracle resolve a held decision (which re-enqueues a fiber) or
          // declare a deadlock (which poisons the world and wakes everyone
          // to unwind). Either way something lands in the run queue, so
          // loop rather than sleep.
          lock.unlock();
          idle_hook_();
          lock.lock();
          continue;
        }
        queue_cv_.wait(lock);
      }
      if (run_queue_.empty()) {
        if (stopping_ || finished_ == fibers_.size()) return;
        continue;
      }
      fiber = run_queue_.front();
      run_queue_.pop_front();
      ++dispatching_;
    }
    dispatch(fiber, &worker_sp);
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --dispatching_;
    }
    // Only exploration sessions need the extra wakeup: a sleeping worker
    // must re-check for quiescence when the last dispatch drains. Without a
    // hook the sleep conditions are unchanged, so stay silent (and free).
    if (idle_hook_) queue_cv_.notify_all();
  }
}

void Scheduler::run() {
  if (fibers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (auto& fiber : fibers_) run_queue_.push_back(fiber.get());
  }
  const int workers =
      worker_count_ < static_cast<int>(fibers_.size())
          ? worker_count_
          : static_cast<int>(fibers_.size());
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    pool.emplace_back([this] { worker_loop(); });
  }
  for (auto& thread : pool) thread.join();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
}

SchedStats Scheduler::stats() const noexcept {
  SchedStats s;
  s.switches = switches_.load(std::memory_order_relaxed);
  s.parks = parks_.load(std::memory_order_relaxed);
  s.workers = static_cast<std::uint64_t>(worker_count_);
  s.fibers = static_cast<std::uint64_t>(fibers_.size());
  return s;
}

void yield() {
  Fiber* fiber = Fiber::current();
  if (fiber == nullptr) {
    std::this_thread::yield();
    return;
  }
  // kNotified makes the hosting worker re-enqueue us immediately after the
  // switch-out, exactly like a park that was unparked mid-flight. Nobody
  // else can touch the state: we are not on any waitlist.
  fiber->state_.store(Fiber::kNotified, std::memory_order_release);
  fiber->suspend();
}

void WaitCv::wait(std::unique_lock<std::mutex>& lock) {
  Fiber* fiber = Fiber::current();
  if (fiber == nullptr) {
    cv_.wait(lock);
    return;
  }
  // Publish intent and register while still holding the caller's mutex:
  // any notifier ordered after our predicate check must acquire either
  // that mutex or waiters_mutex_, and will therefore see us.
  fiber->state_.store(Fiber::kParking, std::memory_order_release);
  {
    std::lock_guard<std::mutex> waiters_lock(waiters_mutex_);
    fiber_waiters_.push_back(fiber);
  }
  lock.unlock();
  fiber->suspend();
  lock.lock();
}

bool WaitCv::wait_until(std::unique_lock<std::mutex>& lock,
                        std::chrono::steady_clock::time_point deadline) {
  // Timed waits block the calling thread even on a fiber; see header.
  return cv_.wait_until(lock, deadline) == std::cv_status::no_timeout;
}

void WaitCv::notify_all() {
  std::vector<Fiber*> woken;
  {
    std::lock_guard<std::mutex> waiters_lock(waiters_mutex_);
    woken.swap(fiber_waiters_);
  }
  for (Fiber* fiber : woken) fiber->scheduler_.unpark(fiber);
  cv_.notify_all();
}

Mode resolve_mode(Mode requested) {
  if (requested != Mode::kAuto) return requested;
  if (const char* env = std::getenv("CID_SIM_SCHED")) {
    if (std::strcmp(env, "threads") == 0) return Mode::kThreads;
    if (std::strcmp(env, "pool") == 0) return Mode::kPool;
  }
  return Mode::kPool;
}

int resolve_workers(int requested, int nranks) {
  int workers = requested;
  if (workers <= 0) {
    if (const char* env = std::getenv("CID_SIM_WORKERS")) {
      workers = std::atoi(env);
    }
  }
  if (workers <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    workers = hw == 0 ? 1 : static_cast<int>(hw);
  }
  if (nranks > 0 && workers > nranks) workers = nranks;
  return workers < 1 ? 1 : workers;
}

std::size_t resolve_stack_bytes(std::size_t requested) {
  std::size_t bytes = requested;
  if (bytes == 0) {
    if (const char* env = std::getenv("CID_SIM_STACK_KB")) {
      const long kb = std::atol(env);
      if (kb > 0) bytes = static_cast<std::size_t>(kb) * 1024;
    }
  }
  if (bytes == 0) bytes = 1024 * 1024;  // 1 MiB virtual; pages map lazily
  if (bytes < 64 * 1024) bytes = 64 * 1024;
  return bytes;
}

}  // namespace cid::rt::sched
