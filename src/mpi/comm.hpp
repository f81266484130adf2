// miniMPI communicators: an ordered group of world ranks plus a context id
// that isolates its point-to-point traffic (the `comm.comm` objects that
// WL-LSMS passes around).
#pragma once

#include <memory>
#include <vector>

#include "rt/runtime.hpp"

namespace cid::mpi {

/// Wildcards for irecv/recv matching.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

class Comm {
 public:
  /// An invalid communicator (MPI_COMM_NULL); returned by split() for
  /// MPI_UNDEFINED colors.
  Comm() = default;

  /// The world communicator of the surrounding SPMD region (context 0,
  /// identity rank mapping).
  static Comm world();

  /// My rank within this communicator.
  int rank() const;
  /// Number of members.
  int size() const noexcept;
  /// Context id (unique per communicator within a World).
  int context() const noexcept;

  /// World rank of a member. Throws on out-of-range.
  int world_rank(int comm_rank) const;
  /// Comm rank of a world rank, or -1 when not a member (or out of range).
  /// One table lookup: each group keeps a world-to-comm rank table.
  int comm_rank_of_world(int world_rank) const noexcept;
  bool is_member(int world_rank) const noexcept {
    return comm_rank_of_world(world_rank) >= 0;
  }

  /// MPI_Comm_split: collective over *all members*. Members with the same
  /// color land in the same sub-communicator, ordered by (key, parent rank).
  /// color < 0 (MPI_UNDEFINED) yields an invalid Comm for that caller.
  Comm split(int color, int key) const;

  /// Collective barrier over the members (max-reduces their virtual clocks
  /// and charges the machine barrier cost for the group size).
  void barrier() const;

  bool valid() const noexcept { return group_ != nullptr; }

  friend bool operator==(const Comm& a, const Comm& b) noexcept {
    return a.group_ == b.group_;
  }

  /// Implementation detail (defined in comm.cpp); public only so the
  /// collective split machinery can name it.
  struct Group;

 private:
  explicit Comm(std::shared_ptr<const Group> group)
      : group_(std::move(group)) {}

  std::shared_ptr<const Group> group_;
};

}  // namespace cid::mpi
