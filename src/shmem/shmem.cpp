#include "shmem/shmem.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace cid::shmem {

namespace {

const simnet::PathCosts& path(const rt::RankCtx& ctx) {
  return ctx.model().shmem;
}

/// Inject one put: charge injection overhead, copy the data into the remote
/// block, and record the delivery time. The final 8-byte-aligned word is
/// stored atomically so a flag word written by put_value64 (or the tail of a
/// data put) can be safely observed by wait_until's reader.
void do_put(rt::RankCtx& ctx, void* dest, const void* source,
            std::size_t bytes, int pe) {
  CID_REQUIRE(pe >= 0 && pe < ctx.nranks(), ErrorCode::InvalidArgument,
              "put target PE out of range");
  CID_REQUIRE(bytes > 0, ErrorCode::InvalidArgument, "zero-byte put");
  auto& heap = SymmetricHeap::of_world(ctx);
  std::byte* remote = heap.translate(ctx.rank(), dest, pe, bytes);

  const auto& costs = path(ctx);
  const simnet::Injection sent =
      costs.inject(ctx.clock().now(), bytes, costs.send_overhead);
  ctx.charge_compute(sent.busy);
  const simnet::SimTime delivery =
      std::max(sent.delivery, heap.fence_floor(ctx.rank()));

  std::memcpy(remote, source, bytes);
  std::atomic_thread_fence(std::memory_order_release);

  heap.record_put(ctx.rank(), pe, delivery);
  ctx.world().notify_rank(pe);
  if (obs::enabled()) {
    obs::count("shmem.put.messages", "heap", ctx.rank());
    obs::count("shmem.put.bytes", "heap", ctx.rank(), bytes);
  }
}

bool compare(std::uint64_t observed, Cmp cmp, std::uint64_t value) {
  switch (cmp) {
    case Cmp::Eq: return observed == value;
    case Cmp::Ne: return observed != value;
    case Cmp::Gt: return observed > value;
    case Cmp::Ge: return observed >= value;
    case Cmp::Lt: return observed < value;
    case Cmp::Le: return observed <= value;
  }
  return false;
}

}  // namespace

int my_pe() { return rt::current_ctx().rank(); }
int n_pes() { return rt::current_ctx().nranks(); }

void* malloc_sym(std::size_t bytes) {
  auto& ctx = rt::current_ctx();
  return SymmetricHeap::of_world(ctx).allocate(ctx.rank(), bytes);
}

bool is_symmetric(const void* ptr) {
  auto& ctx = rt::current_ctx();
  return SymmetricHeap::of_world(ctx).contains(ctx.rank(), ptr);
}

std::uint64_t* shared_flags(const std::string& key, std::size_t count) {
  auto& ctx = rt::current_ctx();
  return static_cast<std::uint64_t*>(SymmetricHeap::of_world(ctx)
      .shared_allocate(ctx.rank(), key, count * sizeof(std::uint64_t)));
}

void putmem(void* dest, const void* source, std::size_t bytes, int pe) {
  do_put(rt::current_ctx(), dest, source, bytes, pe);
}

void put8(void* dest, const void* source, std::size_t count, int pe) {
  putmem(dest, source, count, pe);
}
void put16(void* dest, const void* source, std::size_t count, int pe) {
  putmem(dest, source, count * 2, pe);
}
void put32(void* dest, const void* source, std::size_t count, int pe) {
  putmem(dest, source, count * 4, pe);
}
void put64(void* dest, const void* source, std::size_t count, int pe) {
  putmem(dest, source, count * 8, pe);
}

void put_value64(std::uint64_t* dest, std::uint64_t value, int pe) {
  auto& ctx = rt::current_ctx();
  CID_REQUIRE(pe >= 0 && pe < ctx.nranks(), ErrorCode::InvalidArgument,
              "put target PE out of range");
  auto& heap = SymmetricHeap::of_world(ctx);
  std::byte* remote =
      heap.translate(ctx.rank(), dest, pe, sizeof(std::uint64_t));

  const auto& costs = path(ctx);
  ctx.charge_compute(costs.send_overhead + costs.per_message_gap);
  // A flag put ordered behind a fence is delivered no earlier than the data
  // puts it publishes (fence_floor); see fence().
  const simnet::SimTime delivery =
      std::max(costs.delivery_time(ctx.clock().now(), sizeof(std::uint64_t)),
               heap.fence_floor(ctx.rank()));

  // History before the store: once a waiter can observe the value, the
  // write's delivery time must already be recorded for it to consume.
  heap.record_word_write(pe, remote, value, delivery);
  std::atomic_ref<std::uint64_t>(*reinterpret_cast<std::uint64_t*>(remote))
      .store(value, std::memory_order_release);
  heap.record_put(ctx.rank(), pe, delivery);
  ctx.world().notify_rank(pe);
}

void getmem(void* dest, const void* source, std::size_t bytes, int pe) {
  auto& ctx = rt::current_ctx();
  CID_REQUIRE(pe >= 0 && pe < ctx.nranks(), ErrorCode::InvalidArgument,
              "get source PE out of range");
  auto& heap = SymmetricHeap::of_world(ctx);
  const std::byte* remote = heap.translate(ctx.rank(), source, pe, bytes);
  const auto& costs = path(ctx);
  // Blocking get pays a round trip plus streaming.
  ctx.charge_compute(costs.send_overhead + 2.0 * costs.latency +
                     static_cast<simnet::SimTime>(bytes) /
                         costs.bytes_per_second);
  std::atomic_thread_fence(std::memory_order_acquire);
  std::memcpy(dest, remote, bytes);
}

void fence() {
  // Transport delivers puts in order per destination, so fence only charges
  // its (small) call cost — but it does establish ordering: every later put
  // is delivered no earlier than the puts issued before the fence.
  auto& ctx = rt::current_ctx();
  ctx.charge_compute(path(ctx).wait_single);
  SymmetricHeap::of_world(ctx).raise_fence_floor(ctx.rank());
}

void quiet() {
  auto& ctx = rt::current_ctx();
  auto& heap = SymmetricHeap::of_world(ctx);
  ctx.charge_compute(path(ctx).waitall_base);
  ctx.clock().advance_to(heap.outgoing_max(ctx.rank()));
}

void barrier_all() {
  auto& ctx = rt::current_ctx();
  auto& heap = SymmetricHeap::of_world(ctx);
  // Complete my outgoing puts, synchronize, then absorb incoming deliveries.
  ctx.charge_compute(path(ctx).waitall_base);
  ctx.clock().advance_to(heap.outgoing_max(ctx.rank()));
  ctx.barrier();
  ctx.clock().advance_to(heap.incoming_max(ctx.rank()));
  heap.reset_incoming(ctx.rank());
}

void broadcast64(void* dest, const void* source, std::size_t count,
                 int root) {
  auto& ctx = rt::current_ctx();
  const int me = ctx.rank();
  const int npes = ctx.nranks();
  auto* flags = shared_flags("shmem.broadcast64", 1);
  static_cast<void>(flags);
  if (me == root) {
    if (dest != source) std::memcpy(dest, source, count * 8);
    for (int pe = 0; pe < npes; ++pe) {
      if (pe != me) putmem(dest, source, count * 8, pe);
    }
  }
  // Completion: SHMEM collectives synchronize via the barrier-style pSync
  // protocol; model it with the runtime barrier (absorbs the deliveries).
  barrier_all();
}

void fcollect64(void* dest, const void* source, std::size_t count) {
  auto& ctx = rt::current_ctx();
  const int me = ctx.rank();
  const int npes = ctx.nranks();
  auto* out = static_cast<std::byte*>(dest);
  const std::size_t block = count * 8;
  std::memcpy(out + static_cast<std::size_t>(me) * block, source, block);
  for (int pe = 0; pe < npes; ++pe) {
    if (pe == me) continue;
    putmem(out + static_cast<std::size_t>(me) * block, source, block, pe);
  }
  barrier_all();
}

void wait_until(const std::uint64_t* ivar, Cmp cmp, std::uint64_t value) {
  auto& ctx = rt::current_ctx();
  auto& heap = SymmetricHeap::of_world(ctx);
  CID_REQUIRE(heap.contains(ctx.rank(), ivar), ErrorCode::InvalidArgument,
              "wait_until flag must live in the symmetric heap");
  std::atomic_ref<const std::uint64_t> flag(*ivar);
  ctx.world().wait_on_signal(ctx.rank(), [&] {
    return compare(flag.load(std::memory_order_acquire), cmp, value);
  });
  ctx.charge_compute(path(ctx).wait_single);
  // Advance to the delivery time of the specific write that first satisfies
  // the comparison — NOT to the latest delivery observed so far, which
  // depends on how far ahead the writer has raced in host wall time and
  // would make virtual time scheduler-dependent. No recorded write means
  // the wait was satisfied by older (already-charged) state.
  const auto delivery = heap.consume_word_write(
      ctx.rank(), ivar,
      [&](std::uint64_t v) { return compare(v, cmp, value); });
  if (delivery.has_value()) ctx.clock().advance_to(*delivery);
}

bool wait_until_for(const std::uint64_t* ivar, Cmp cmp, std::uint64_t value,
                    simnet::SimTime timeout) {
  auto& ctx = rt::current_ctx();
  auto& heap = SymmetricHeap::of_world(ctx);
  CID_REQUIRE(heap.contains(ctx.rank(), ivar), ErrorCode::InvalidArgument,
              "wait_until_for flag must live in the symmetric heap");
  CID_REQUIRE(timeout >= 0.0, ErrorCode::InvalidArgument,
              "wait_until_for timeout must be non-negative");
  const simnet::SimTime deadline = ctx.clock().now() + timeout;
  std::atomic_ref<const std::uint64_t> flag(*ivar);
  bool satisfied = false;
  // Event-driven deadline: wake on every incoming put; the timer "fires"
  // once some delivery carries virtual time past the deadline while the
  // condition is still false.
  ctx.world().wait_on_signal(ctx.rank(), [&] {
    satisfied = compare(flag.load(std::memory_order_acquire), cmp, value);
    return satisfied || heap.incoming_max(ctx.rank()) > deadline;
  });
  ctx.charge_compute(path(ctx).wait_single);
  if (satisfied) {
    const auto delivery = heap.consume_word_write(
        ctx.rank(), ivar,
        [&](std::uint64_t v) { return compare(v, cmp, value); });
    if (delivery.has_value()) ctx.clock().advance_to(*delivery);
    return true;
  }
  ctx.clock().advance_to(deadline);
  return false;
}

}  // namespace cid::shmem
