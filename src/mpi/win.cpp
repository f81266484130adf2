#include "mpi/win.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "mpi/request.hpp"
#include "rt/runtime.hpp"

namespace cid::mpi {

namespace {
/// Cross-rank state of one window, stashed in the World registry.
struct WinShared {
  std::mutex mutex;
  std::vector<void*> bases;
  std::vector<std::size_t> sizes;
  /// Latest delivery time of a put targeting each member, per epoch parity:
  /// a member still closing epoch k must not absorb (and clear) a put that
  /// a faster member already issued in epoch k + 1.
  std::vector<std::array<simnet::SimTime, 2>> incoming_max;
  int registered = 0;
};
}  // namespace

struct Win::Impl {
  Comm comm;
  std::shared_ptr<WinShared> shared;
  std::size_t epoch = 0;  ///< fences this member has completed
};

Win Win::create(const Comm& comm, void* base, std::size_t bytes) {
  CID_REQUIRE(comm.valid(), ErrorCode::InvalidArgument,
              "Win::create on invalid communicator");
  CID_REQUIRE(base != nullptr || bytes == 0, ErrorCode::InvalidArgument,
              "Win::create with null base and nonzero size");
  auto& ctx = rt::current_ctx();
  auto& world = ctx.world();
  // One-sided access loads/stores the target's buffer through a shared
  // pointer table; that only exists inside one process.
  world.require_single_process("MPI windows");

  // All members call create in the same collective order, so a per-rank
  // sequence number names the same window on every member.
  const int window_id = Engine::mine().next_window_id();
  const std::string key = "mpi.win." + std::to_string(comm.context()) + "." +
                          std::to_string(window_id);

  auto shared = world.shared_object<WinShared>(key);
  const int members = comm.size();
  const int my_rank = comm.rank();
  {
    std::unique_lock<std::mutex> lock(world.global_mutex());
    {
      std::lock_guard<std::mutex> state_lock(shared->mutex);
      if (shared->bases.empty()) {
        shared->bases.resize(members, nullptr);
        shared->sizes.resize(members, 0);
        shared->incoming_max.resize(members, {0.0, 0.0});
      }
      shared->bases[my_rank] = base;
      shared->sizes[my_rank] = bytes;
      ++shared->registered;
    }
    world.notify_global();
    world.wait_global(lock, [&] {
      std::lock_guard<std::mutex> state_lock(shared->mutex);
      return shared->registered >= members;
    });
  }
  comm.barrier();  // creation is synchronizing, like MPI_Win_create

  auto impl = std::make_shared<Impl>();
  impl->comm = comm;
  impl->shared = std::move(shared);
  return Win(std::move(impl));
}

void Win::put(const void* origin, std::size_t count, const Datatype& dtype,
              int target_rank, std::size_t target_disp) {
  CID_REQUIRE(valid(), ErrorCode::InvalidArgument, "put() on invalid Win");
  CID_REQUIRE(origin != nullptr, ErrorCode::InvalidArgument,
              "put() origin buffer is null");
  CID_REQUIRE(target_rank >= 0 && target_rank < impl_->comm.size(),
              ErrorCode::InvalidArgument, "put() target rank out of range");
  auto& ctx = rt::current_ctx();
  const auto& costs = ctx.model().mpi_one_sided;

  ctx.charge_compute(ctx.model().host.layout_walk_time(
      dtype.payload_size() * count, dtype.is_contiguous()));
  const ByteBuffer wire = dtype.gather(origin, count);
  const simnet::Injection sent =
      costs.inject(ctx.clock().now(), wire.size(), costs.send_overhead);
  ctx.charge_compute(sent.busy);

  std::lock_guard<std::mutex> lock(impl_->shared->mutex);
  const std::size_t target_bytes = dtype.extent() * count;
  CID_REQUIRE(target_disp + target_bytes <= impl_->shared->sizes[target_rank],
              ErrorCode::InvalidArgument,
              "put() writes past the end of the target window");
  // The target datatype mirrors the origin datatype (as the directive
  // lowering generates), so the gathered wire bytes are scattered back into
  // the same layout at the target.
  std::byte* target_base =
      static_cast<std::byte*>(impl_->shared->bases[target_rank]) + target_disp;
  const Status status =
      dtype.scatter(ByteSpan(wire.data(), wire.size()), target_base, count);
  CID_REQUIRE(status.is_ok(), ErrorCode::RuntimeFault, status.to_string());
  simnet::SimTime& incoming =
      impl_->shared->incoming_max[target_rank][impl_->epoch % 2];
  incoming = std::max(incoming, sent.delivery);
}

void Win::fence() {
  CID_REQUIRE(valid(), ErrorCode::InvalidArgument, "fence() on invalid Win");
  auto& ctx = rt::current_ctx();
  const auto& costs = ctx.model().mpi_one_sided;
  ctx.charge_compute(costs.waitall_base);
  impl_->comm.barrier();
  // The epoch closes only when every incoming put has landed.
  const int my_rank = impl_->comm.rank();
  std::lock_guard<std::mutex> lock(impl_->shared->mutex);
  simnet::SimTime& incoming =
      impl_->shared->incoming_max[my_rank][impl_->epoch++ % 2];
  ctx.clock().advance_to(incoming);
  incoming = 0.0;
}

}  // namespace cid::mpi
