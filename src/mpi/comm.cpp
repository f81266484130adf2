#include "mpi/comm.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <tuple>

#include "common/error.hpp"
#include "net/transport.hpp"

namespace cid::mpi {

/// Immutable once built: the world group is constructed under the World
/// registry lock and split groups under the global mutex, and every rank then
/// reads them without locking.
struct Comm::Group {
  Group(int context, std::vector<int> members)
      : context(context), members(std::move(members)) {
    if (this->members.empty()) return;
    const auto [lo, hi] =
        std::minmax_element(this->members.begin(), this->members.end());
    base = *lo;
    rank_of.assign(static_cast<std::size_t>(*hi - *lo + 1), -1);
    for (std::size_t i = 0; i < this->members.size(); ++i) {
      rank_of[static_cast<std::size_t>(this->members[i] - base)] =
          static_cast<int>(i);
    }
  }
  /// The world communicator: context 0, identity rank mapping.
  explicit Group(int nranks) : Group(0, identity(nranks)) {}

  static std::vector<int> identity(int nranks) {
    std::vector<int> ranks(static_cast<std::size_t>(nranks));
    std::iota(ranks.begin(), ranks.end(), 0);
    return ranks;
  }

  int context = 0;
  std::vector<int> members;  ///< members[comm_rank] = world rank
  /// rank_of[world_rank - base] = comm rank, or -1 for a non-member; spans
  /// only [min member, max member], so a compact sub-group stays small.
  int base = 0;
  std::vector<int> rank_of;
};

namespace {

/// Collective bookkeeping shared by every communicator in one World.
struct CommRegistry {
  int next_context = 1;

  struct SplitOp {
    struct Entry {
      int color;
      int key;
      int parent_rank;
      int world_rank;
    };
    std::vector<Entry> entries;
    bool done = false;
    int fetched = 0;
    std::map<int, std::shared_ptr<const Comm::Group>> result_by_world_rank;
  };
  // Keyed by (parent context, per-parent split call index).
  std::map<std::pair<int, std::uint64_t>, SplitOp> splits;
  // Per (parent context, world rank): how many splits this rank started.
  std::map<std::pair<int, int>, std::uint64_t> split_calls;

  struct GroupBarrier {
    int arrived = 0;
    std::uint64_t generation = 0;
    simnet::SimTime max_clock = 0.0;
  };
  std::map<int, GroupBarrier> barriers;  // keyed by context
};
// Note: all registry state is protected by World::global_mutex() so waits can
// use World::wait_global() and be woken by poison().

std::shared_ptr<CommRegistry> registry(rt::World& world) {
  return world.shared_object<CommRegistry>("mpi.comm.registry");
}

}  // namespace

Comm Comm::world() {
  // The group is built once per World (shared_object constructs it only on
  // the first call); each rank then keeps the Comm in a rank-local slot, so
  // the per-call cost is one slot lookup, not a registry lock and a
  // string-keyed search.
  static const char kSlot = 0;
  auto& ctx = rt::current_ctx();
  auto& slot = ctx.local_slot(&kSlot);
  if (!slot) {
    slot = std::make_shared<Comm>(Comm(ctx.world().shared_object<const Group>(
        "mpi.comm.world", ctx.nranks())));
  }
  return *static_cast<const Comm*>(slot.get());
}

int Comm::rank() const {
  CID_REQUIRE(valid(), ErrorCode::InvalidArgument, "rank() on invalid Comm");
  const int me = rt::current_ctx().rank();
  const int comm_rank = comm_rank_of_world(me);
  CID_REQUIRE(comm_rank >= 0, ErrorCode::RuntimeFault,
              "calling rank is not a member of this communicator");
  return comm_rank;
}

int Comm::size() const noexcept {
  return group_ ? static_cast<int>(group_->members.size()) : 0;
}

int Comm::context() const noexcept { return group_ ? group_->context : -1; }

int Comm::world_rank(int comm_rank) const {
  CID_REQUIRE(valid(), ErrorCode::InvalidArgument,
              "world_rank() on invalid Comm");
  CID_REQUIRE(comm_rank >= 0 && comm_rank < size(), ErrorCode::InvalidArgument,
              "comm rank out of range");
  return group_->members[comm_rank];
}

int Comm::comm_rank_of_world(int world_rank) const noexcept {
  if (!group_) return -1;
  const long long index = static_cast<long long>(world_rank) - group_->base;
  if (index < 0 || index >= static_cast<long long>(group_->rank_of.size())) {
    return -1;
  }
  return group_->rank_of[static_cast<std::size_t>(index)];
}

Comm Comm::split(int color, int key) const {
  CID_REQUIRE(valid(), ErrorCode::InvalidArgument, "split() on invalid Comm");
  auto& ctx = rt::current_ctx();
  auto& world = ctx.world();
  // The split negotiation lives in the in-process registry; members hosted
  // by another process could never contribute their (color, key).
  world.require_single_process("Comm::split");
  auto reg = registry(world);

  const int me = ctx.rank();
  const int my_parent_rank = rank();
  const int members = size();

  std::unique_lock<std::mutex> lock(world.global_mutex());
  const std::uint64_t call_index =
      reg->split_calls[{group_->context, me}]++;
  const auto op_key = std::make_pair(group_->context, call_index);
  auto& op = reg->splits[op_key];
  op.entries.push_back({color, key, my_parent_rank, me});

  if (static_cast<int>(op.entries.size()) == members) {
    // Last arrival resolves the split for everyone, deterministically.
    std::sort(op.entries.begin(), op.entries.end(),
              [](const auto& a, const auto& b) {
                return std::tuple(a.color, a.key, a.parent_rank) <
                       std::tuple(b.color, b.key, b.parent_rank);
              });
    for (std::size_t i = 0; i < op.entries.size();) {
      const int current_color = op.entries[i].color;
      std::size_t j = i;
      while (j < op.entries.size() && op.entries[j].color == current_color) {
        ++j;
      }
      if (current_color >= 0) {
        std::vector<int> members;
        for (std::size_t k = i; k < j; ++k) {
          members.push_back(op.entries[k].world_rank);
        }
        auto group = std::make_shared<const Group>(reg->next_context++,
                                                   std::move(members));
        for (std::size_t k = i; k < j; ++k) {
          op.result_by_world_rank[op.entries[k].world_rank] = group;
        }
      } else {
        for (std::size_t k = i; k < j; ++k) {
          op.result_by_world_rank[op.entries[k].world_rank] = nullptr;
        }
      }
      i = j;
    }
    op.done = true;
    world.notify_global();
  } else {
    world.wait_global(lock, [&] { return op.done; });
  }

  auto result = op.result_by_world_rank.at(me);
  if (++op.fetched == members) reg->splits.erase(op_key);
  lock.unlock();
  return Comm(std::move(result));
}

void Comm::barrier() const {
  CID_REQUIRE(valid(), ErrorCode::InvalidArgument, "barrier() on invalid Comm");
  auto& ctx = rt::current_ctx();
  auto& world = ctx.world();
  const int members = size();
  const int me = ctx.rank();
  CID_REQUIRE(is_member(me), ErrorCode::RuntimeFault,
              "barrier() caller is not a member");
  const simnet::SimTime cost = world.model().barrier_cost(members);

  if (world.transport().cross_process()) {
    if (members == world.nranks()) {
      // Full-world barrier: same max-reduce + cost arithmetic, and the
      // world barrier knows how to synchronize across processes.
      world.barrier(me, cost);
      return;
    }
    for (int member : group_->members) {
      CID_REQUIRE(world.rank_is_local(member), ErrorCode::UnsupportedTarget,
                  "sub-communicator barrier spans processes; only "
                  "process-local sub-groups are supported on the tcp "
                  "transport");
    }
  }

  auto reg = registry(world);
  std::unique_lock<std::mutex> lock(world.global_mutex());
  auto& bar = reg->barriers[group_->context];
  bar.max_clock = std::max(bar.max_clock, ctx.clock().now());
  if (++bar.arrived == members) {
    const simnet::SimTime release = bar.max_clock + cost;
    for (int member : group_->members) world.clock(member).reset(release);
    bar.arrived = 0;
    bar.max_clock = 0.0;
    ++bar.generation;
    world.notify_global();
    return;
  }
  const std::uint64_t my_generation = bar.generation;
  world.wait_global(lock, [&] { return bar.generation != my_generation; });
}

}  // namespace cid::mpi
