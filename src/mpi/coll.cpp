#include "mpi/coll.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "mpi/p2p.hpp"
#include "obs/obs.hpp"
#include "rt/runtime.hpp"
#include "tune/tune.hpp"

namespace cid::mpi::coll {

namespace {

constexpr int kCollectiveTag = 3000;
/// Outstanding isend/irecv pairs per waitall batch in the pairwise
/// alltoall — bounds request-table growth at 10k ranks.
constexpr int kPairwiseWindow = 16;

/// Rank relative to the root (so trees can always be rooted at 0).
int relative(int rank, int root, int size) {
  return (rank - root + size) % size;
}
int absolute(int rel, int root, int size) { return (rel + root) % size; }

bool pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

/// First element of chunk `r` when `count` elements split across `size`
/// ranks. Floor boundaries: every rank computes identical values, so both
/// sides of a transfer agree on each chunk's length (including zero).
std::size_t chunk_begin(int r, std::size_t count, int size) {
  return static_cast<std::size_t>(r) * count / static_cast<std::size_t>(size);
}

template <typename T>
void apply_op(ReduceOp op, const T* in, T* inout, std::size_t count) {
  switch (op) {
    case ReduceOp::Sum:
      for (std::size_t i = 0; i < count; ++i) inout[i] += in[i];
      return;
    case ReduceOp::Min:
      for (std::size_t i = 0; i < count; ++i) {
        if (in[i] < inout[i]) inout[i] = in[i];
      }
      return;
    case ReduceOp::Max:
      for (std::size_t i = 0; i < count; ++i) {
        if (in[i] > inout[i]) inout[i] = in[i];
      }
      return;
    case ReduceOp::Prod:
      for (std::size_t i = 0; i < count; ++i) inout[i] *= in[i];
      return;
  }
}

/// Names the algorithm in the trace: one "coll" span "<op>[<algo>]" over the
/// call's virtual-time extent, from which obs derives a "cid.coll.calls"
/// counter keyed by the same label. Reads clocks only — recording cannot
/// perturb virtual time.
class CollSpan {
 public:
  CollSpan(CollOp op, CollAlgo algo, std::uint64_t bytes)
      : enabled_(obs::enabled()), op_(op), algo_(algo), bytes_(bytes) {
    if (enabled_) begin_ = rt::current_ctx().clock().now();
  }
  CollSpan(const CollSpan&) = delete;
  CollSpan& operator=(const CollSpan&) = delete;
  ~CollSpan() {
    if (!enabled_) return;
    auto& ctx = rt::current_ctx();
    static const obs::Name kCat("coll");
    static const obs::SpanMetrics kMetrics{obs::Name("cid.coll.calls"), {},
                                           {}, {}};
    const obs::Name name(std::string(tune::coll_op_name(op_)) + "[" +
                         std::string(tune::coll_algo_name(algo_)) + "]");
    obs::span(ctx.rank(), kCat, name, begin_, ctx.clock().now(), bytes_, 0,
              &kMetrics);
  }

 private:
  bool enabled_;
  CollOp op_;
  CollAlgo algo_;
  std::uint64_t bytes_;
  double begin_ = 0.0;
};

// ---------------------------------------------------------------------------
// bcast
// ---------------------------------------------------------------------------

void bcast_binomial(const Comm& comm, void* buffer, std::size_t count,
                    const Datatype& dtype, int root) {
  const int size = comm.size();
  const int rel = relative(comm.rank(), root, size);

  // Climb masks to my receive bit, take the payload from the parent, then
  // forward to children at all lower masks.
  int mask = 1;
  while (mask < size) {
    if ((rel & mask) != 0) {
      mpi::recv(comm, buffer, count, dtype, absolute(rel - mask, root, size),
                kCollectiveTag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < size) {
      mpi::send(comm, buffer, count, dtype, absolute(rel + mask, root, size),
                kCollectiveTag);
    }
    mask >>= 1;
  }
}

void bcast_vandegeijn(const Comm& comm, void* buffer, std::size_t count,
                      const Datatype& dtype, int root) {
  const int size = comm.size();
  const int rel = relative(comm.rank(), root, size);
  const std::size_t extent = dtype.extent();
  auto* base = static_cast<std::byte*>(buffer);
  // Chunk range [lo, hi) of the vector, as (pointer, element count).
  auto range = [&](int lo, int hi) {
    const std::size_t b = chunk_begin(lo, count, size);
    const std::size_t e = chunk_begin(hi, count, size);
    return std::pair<std::byte*, std::size_t>(base + b * extent, e - b);
  };

  // Phase 1 — binomial scatter: a node holding chunks [rel, rel+2*mask)
  // forwards the upper half [rel+mask, rel+2*mask) to its child; relative
  // rank r ends up holding exactly chunk r.
  int mask = 1;
  while (mask < size) {
    if ((rel & mask) != 0) {
      auto [ptr, n] = range(rel, std::min(rel + mask, size));
      if (n > 0) {
        mpi::recv(comm, ptr, n, dtype, absolute(rel - mask, root, size),
                  kCollectiveTag);
      }
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < size) {
      auto [ptr, n] = range(rel + mask, std::min(rel + 2 * mask, size));
      if (n > 0) {
        mpi::send(comm, ptr, n, dtype, absolute(rel + mask, root, size),
                  kCollectiveTag);
      }
    }
    mask >>= 1;
  }

  // Phase 2 — ring allgather of the chunks around the relative ring.
  const int right = absolute((rel + 1) % size, root, size);
  const int left = absolute((rel - 1 + size) % size, root, size);
  int have = rel;
  for (int step = 0; step < size - 1; ++step) {
    const int incoming = (have - 1 + size) % size;
    auto [rptr, rn] = range(incoming, incoming + 1);
    auto [sptr, sn] = range(have, have + 1);
    Request recv_req, send_req;
    if (rn > 0) recv_req = irecv(comm, rptr, rn, dtype, left, kCollectiveTag);
    if (sn > 0) send_req = isend(comm, sptr, sn, dtype, right, kCollectiveTag);
    if (rn > 0) wait(recv_req);
    if (sn > 0) wait(send_req);
    have = incoming;
  }
}

// ---------------------------------------------------------------------------
// gather / scatter
// ---------------------------------------------------------------------------

void gather_flat(const Comm& comm, const void* send, std::size_t count,
                 const Datatype& dtype, void* recv, int root) {
  const int size = comm.size();
  const int me = comm.rank();
  const std::size_t block = count * dtype.extent();
  if (me == root) {
    auto* out = static_cast<std::byte*>(recv);
    std::memcpy(out + static_cast<std::size_t>(me) * block, send, block);
    std::vector<Request> requests;
    requests.reserve(static_cast<std::size_t>(size - 1));
    for (int r = 0; r < size; ++r) {
      if (r == me) continue;
      requests.push_back(irecv(comm,
                               out + static_cast<std::size_t>(r) * block,
                               count, dtype, r, kCollectiveTag));
    }
    waitall(requests);
  } else {
    mpi::send(comm, send, count, dtype, root, kCollectiveTag);
  }
}

void gather_binomial(const Comm& comm, const void* send, std::size_t count,
                     const Datatype& dtype, void* recv, int root) {
  const int size = comm.size();
  const int rel = relative(comm.rank(), root, size);
  const std::size_t block = count * dtype.extent();

  // In relative order every subtree is a contiguous block range: the node at
  // `rel` with receive bit m owns [rel, min(rel+m, size)). Children report
  // in ascending mask order, then the whole range relays upward in one send.
  int my_bit = 0;  // 0: relative root (no receive bit inside the group)
  for (int m = 1; m < size; m <<= 1) {
    if ((rel & m) != 0) {
      my_bit = m;
      break;
    }
  }
  const int span = my_bit == 0 ? size : std::min(my_bit, size - rel);
  std::vector<std::byte> temp(static_cast<std::size_t>(span) * block);
  std::memcpy(temp.data(), send, block);

  for (int mask = 1; mask < size; mask <<= 1) {
    if ((rel & mask) != 0) {
      mpi::send(comm, temp.data(), static_cast<std::size_t>(span) * count,
                dtype, absolute(rel - mask, root, size), kCollectiveTag);
      return;
    }
    if (rel + mask < size) {
      const int child = rel + mask;
      const int clen = std::min(mask, size - child);
      mpi::recv(comm, temp.data() + static_cast<std::size_t>(mask) * block,
                static_cast<std::size_t>(clen) * count, dtype,
                absolute(child, root, size), kCollectiveTag);
    }
  }
  // Relative root: unrotate the relative-ordered blocks into rank order.
  auto* out = static_cast<std::byte*>(recv);
  for (int j = 0; j < size; ++j) {
    std::memcpy(
        out + static_cast<std::size_t>(absolute(j, root, size)) * block,
        temp.data() + static_cast<std::size_t>(j) * block, block);
  }
}

void scatter_flat(const Comm& comm, const void* send, std::size_t count,
                  const Datatype& dtype, void* recv, int root) {
  const int size = comm.size();
  const int me = comm.rank();
  const std::size_t block = count * dtype.extent();
  if (me == root) {
    const auto* in = static_cast<const std::byte*>(send);
    std::vector<Request> requests;
    for (int r = 0; r < size; ++r) {
      if (r == me) {
        std::memcpy(recv, in + static_cast<std::size_t>(r) * block, block);
        continue;
      }
      requests.push_back(isend(comm,
                               in + static_cast<std::size_t>(r) * block,
                               count, dtype, r, kCollectiveTag));
    }
    waitall(requests);
  } else {
    mpi::recv(comm, recv, count, dtype, root, kCollectiveTag);
  }
}

void scatter_binomial(const Comm& comm, const void* send, std::size_t count,
                      const Datatype& dtype, void* recv, int root) {
  const int size = comm.size();
  const int rel = relative(comm.rank(), root, size);
  const std::size_t block = count * dtype.extent();

  // Mirror of gather_binomial: receive my subtree's relative-ordered range
  // from the parent, forward each child its sub-range, keep block 0.
  std::vector<std::byte> temp;
  int mask = 1;
  if (rel == 0) {
    temp.resize(static_cast<std::size_t>(size) * block);
    const auto* in = static_cast<const std::byte*>(send);
    for (int j = 0; j < size; ++j) {
      std::memcpy(
          temp.data() + static_cast<std::size_t>(j) * block,
          in + static_cast<std::size_t>(absolute(j, root, size)) * block,
          block);
    }
    while (mask < size) mask <<= 1;
  } else {
    while ((rel & mask) == 0) mask <<= 1;
    const int span = std::min(mask, size - rel);
    temp.resize(static_cast<std::size_t>(span) * block);
    mpi::recv(comm, temp.data(), static_cast<std::size_t>(span) * count,
              dtype, absolute(rel - mask, root, size), kCollectiveTag);
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < size) {
      const int child = rel + mask;
      const int clen = std::min(mask, size - child);
      mpi::send(comm, temp.data() + static_cast<std::size_t>(mask) * block,
                static_cast<std::size_t>(clen) * count, dtype,
                absolute(child, root, size), kCollectiveTag);
    }
    mask >>= 1;
  }
  std::memcpy(recv, temp.data(), block);
}

// ---------------------------------------------------------------------------
// allgather
// ---------------------------------------------------------------------------

void allgather_ring(const Comm& comm, const void* send, std::size_t count,
                    const Datatype& dtype, void* recv) {
  const int size = comm.size();
  const int me = comm.rank();
  const std::size_t block = count * dtype.extent();
  auto* out = static_cast<std::byte*>(recv);
  std::memcpy(out + static_cast<std::size_t>(me) * block, send, block);

  // In step s, pass the block received in step s-1 to the right neighbour
  // and take a new one from the left.
  const int right = (me + 1) % size;
  const int left = (me - 1 + size) % size;
  int have = me;
  for (int step = 0; step < size - 1; ++step) {
    const int incoming = (have - 1 + size) % size;
    auto recv_req =
        irecv(comm, out + static_cast<std::size_t>(incoming) * block, count,
              dtype, left, kCollectiveTag);
    auto send_req = isend(comm, out + static_cast<std::size_t>(have) * block,
                          count, dtype, right, kCollectiveTag);
    wait(recv_req);
    wait(send_req);
    have = incoming;
  }
}

void allgather_rd(const Comm& comm, const void* send, std::size_t count,
                  const Datatype& dtype, void* recv) {
  const int size = comm.size();  // power of two (checked by the dispatcher)
  const int me = comm.rank();
  const std::size_t block = count * dtype.extent();
  auto* out = static_cast<std::byte*>(recv);
  std::memcpy(out + static_cast<std::size_t>(me) * block, send, block);

  // At step `mask` I hold the blocks of my 2^k-aligned group
  // [me & ~(mask-1), +mask); swap whole groups with the partner across the
  // bit. Both ranges are contiguous, so no staging buffer is needed.
  for (int mask = 1; mask < size; mask <<= 1) {
    const int partner = me ^ mask;
    const int my_lo = me & ~(mask - 1);
    const int peer_lo = partner & ~(mask - 1);
    sendrecv(comm, out + static_cast<std::size_t>(my_lo) * block,
             static_cast<std::size_t>(mask) * count, dtype, partner,
             kCollectiveTag, out + static_cast<std::size_t>(peer_lo) * block,
             static_cast<std::size_t>(mask) * count, dtype, partner,
             kCollectiveTag);
  }
}

// ---------------------------------------------------------------------------
// alltoall
// ---------------------------------------------------------------------------

void alltoall_flat(const Comm& comm, const void* send, std::size_t count,
                   const Datatype& dtype, void* recv) {
  const int size = comm.size();
  const int me = comm.rank();
  const std::size_t block = count * dtype.extent();
  const auto* in = static_cast<const std::byte*>(send);
  auto* out = static_cast<std::byte*>(recv);

  std::memcpy(out + static_cast<std::size_t>(me) * block,
              in + static_cast<std::size_t>(me) * block, block);
  std::vector<Request> requests;
  requests.reserve(2 * static_cast<std::size_t>(size - 1));
  for (int offset = 1; offset < size; ++offset) {
    const int peer = (me + offset) % size;
    requests.push_back(irecv(comm,
                             out + static_cast<std::size_t>(peer) * block,
                             count, dtype, peer, kCollectiveTag));
  }
  for (int offset = 1; offset < size; ++offset) {
    const int peer = (me + offset) % size;
    requests.push_back(isend(comm,
                             in + static_cast<std::size_t>(peer) * block,
                             count, dtype, peer, kCollectiveTag));
  }
  waitall(requests);
}

void alltoall_bruck(const Comm& comm, const void* send, std::size_t count,
                    const Datatype& dtype, void* recv) {
  const int size = comm.size();
  const int me = comm.rank();
  const std::size_t block = count * dtype.extent();
  const auto* in = static_cast<const std::byte*>(send);
  auto* out = static_cast<std::byte*>(recv);

  // Rotate so position i holds my block for rank (me + i): block i then
  // needs to travel exactly i hops, which the rounds decompose in binary.
  std::vector<std::byte> tmp(static_cast<std::size_t>(size) * block);
  for (int i = 0; i < size; ++i) {
    std::memcpy(tmp.data() + static_cast<std::size_t>(i) * block,
                in + static_cast<std::size_t>((me + i) % size) * block,
                block);
  }

  std::vector<std::byte> staging_out;
  std::vector<std::byte> staging_in;
  std::vector<int> indices;
  for (int pof = 1; pof < size; pof <<= 1) {
    indices.clear();
    for (int i = pof; i < size; ++i) {
      if ((i & pof) != 0) indices.push_back(i);
    }
    staging_out.resize(indices.size() * block);
    staging_in.resize(indices.size() * block);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      std::memcpy(
          staging_out.data() + k * block,
          tmp.data() + static_cast<std::size_t>(indices[k]) * block, block);
    }
    // Every block with bit `pof` still set moves pof ranks forward, packed
    // into ONE message — ceil(log2 P) messages total instead of P-1.
    const int dest = (me + pof) % size;
    const int src = (me - pof + size) % size;
    sendrecv(comm, staging_out.data(), indices.size() * count, dtype, dest,
             kCollectiveTag, staging_in.data(), indices.size() * count, dtype,
             src, kCollectiveTag);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      std::memcpy(tmp.data() + static_cast<std::size_t>(indices[k]) * block,
                  staging_in.data() + k * block, block);
    }
  }

  // Block i travelled i hops, so at me it came from rank (me - i).
  for (int i = 0; i < size; ++i) {
    std::memcpy(out + static_cast<std::size_t>((me - i + size) % size) * block,
                tmp.data() + static_cast<std::size_t>(i) * block, block);
  }
}

void alltoall_pairwise(const Comm& comm, const void* send, std::size_t count,
                       const Datatype& dtype, void* recv) {
  const int size = comm.size();
  const int me = comm.rank();
  const std::size_t block = count * dtype.extent();
  const auto* in = static_cast<const std::byte*>(send);
  auto* out = static_cast<std::byte*>(recv);

  std::memcpy(out + static_cast<std::size_t>(me) * block,
              in + static_cast<std::size_t>(me) * block, block);
  // Offsets pair up globally: my send to (me+o) meets that rank's receive
  // from ((me+o)-o). Batching offsets into windows bounds the outstanding
  // requests at 2*kPairwiseWindow instead of 2*(P-1).
  std::vector<Request> requests;
  requests.reserve(2 * static_cast<std::size_t>(kPairwiseWindow));
  for (int base = 1; base < size; base += kPairwiseWindow) {
    const int limit = std::min(size, base + kPairwiseWindow);
    requests.clear();
    for (int offset = base; offset < limit; ++offset) {
      const int from = (me - offset + size) % size;
      requests.push_back(irecv(comm,
                               out + static_cast<std::size_t>(from) * block,
                               count, dtype, from, kCollectiveTag));
    }
    for (int offset = base; offset < limit; ++offset) {
      const int to = (me + offset) % size;
      requests.push_back(isend(comm,
                               in + static_cast<std::size_t>(to) * block,
                               count, dtype, to, kCollectiveTag));
    }
    waitall(requests);
  }
}

// ---------------------------------------------------------------------------
// reduce / allreduce
// ---------------------------------------------------------------------------

/// Binomial-tree reduce: in round k, relative ranks with bit k set send
/// their partial result to (rel - 2^k) and leave.
template <typename T>
void reduce_binomial(const Comm& comm, const T* send, T* recv,
                     std::size_t count, ReduceOp op, int root) {
  const int size = comm.size();
  const int me = comm.rank();
  const int rel = relative(me, root, size);

  std::vector<T> accumulator(send, send + count);
  std::vector<T> incoming(count);
  for (int mask = 1; mask < size; mask <<= 1) {
    if ((rel & mask) != 0) {
      mpi::send(comm, accumulator.data(), count, datatype_of<T>(),
                absolute(rel - mask, root, size), kCollectiveTag);
      return;  // non-root recv buffers are left untouched
    }
    if (rel + mask < size) {
      mpi::recv(comm, incoming.data(), count, datatype_of<T>(),
                absolute(rel + mask, root, size), kCollectiveTag);
      apply_op(op, incoming.data(), accumulator.data(), count);
    }
  }
  CID_REQUIRE(me == root, ErrorCode::RuntimeFault,
              "reduce tree terminated on a non-root rank");
  std::memcpy(recv, accumulator.data(), count * sizeof(T));
}

/// Ring reduce-scatter whose schedule is shifted so relative rank r ends up
/// owning chunk r: partial sums for chunk c start at relative rank c+1 and
/// travel the ring rightward, each rank folding in its contribution. Shared
/// by Rabenseifner reduce and ring allreduce. `acc` starts as the caller's
/// full input vector; on return acc[chunk rel] is fully reduced.
template <typename T>
void ring_reduce_scatter(const Comm& comm, T* acc, std::size_t count,
                         ReduceOp op, int root) {
  const int size = comm.size();
  const int rel = relative(comm.rank(), root, size);
  const int right = absolute((rel + 1) % size, root, size);
  const int left = absolute((rel - 1 + size) % size, root, size);
  std::vector<T> incoming(count / static_cast<std::size_t>(size) + 1);
  for (int s = 0; s < size - 1; ++s) {
    const int cs = (rel - s - 1 + size) % size;  // chunk I pass rightward
    const int cr = (rel - s - 2 + 2 * size) % size;  // chunk I fold into
    const std::size_t sb = chunk_begin(cs, count, size);
    const std::size_t se = chunk_begin(cs + 1, count, size);
    const std::size_t rb = chunk_begin(cr, count, size);
    const std::size_t re = chunk_begin(cr + 1, count, size);
    Request recv_req, send_req;
    if (re > rb) {
      recv_req = irecv(comm, incoming.data(), re - rb, datatype_of<T>(), left,
                       kCollectiveTag);
    }
    if (se > sb) {
      send_req = isend(comm, acc + sb, se - sb, datatype_of<T>(), right,
                       kCollectiveTag);
    }
    if (re > rb) {
      wait(recv_req);
      apply_op(op, incoming.data(), acc + rb, re - rb);
    }
    if (se > sb) wait(send_req);
  }
}

/// Rabenseifner reduce: ring reduce-scatter, then a binomial gather of the
/// owned chunks — subtree [rel, rel+span) maps to the contiguous element
/// range [chunk_begin(rel), chunk_begin(rel+span)), so the root assembles
/// the vector with no rotation.
template <typename T>
void reduce_rabenseifner(const Comm& comm, const T* send, T* recv,
                         std::size_t count, ReduceOp op, int root) {
  const int size = comm.size();
  const int rel = relative(comm.rank(), root, size);
  std::vector<T> acc(send, send + count);
  ring_reduce_scatter(comm, acc.data(), count, op, root);

  for (int mask = 1; mask < size; mask <<= 1) {
    if ((rel & mask) != 0) {
      const std::size_t b = chunk_begin(rel, count, size);
      const std::size_t e = chunk_begin(std::min(rel + mask, size), count,
                                        size);
      if (e > b) {
        mpi::send(comm, acc.data() + b, e - b, datatype_of<T>(),
                  absolute(rel - mask, root, size), kCollectiveTag);
      }
      return;
    }
    if (rel + mask < size) {
      const int child = rel + mask;
      const std::size_t b = chunk_begin(child, count, size);
      const std::size_t e = chunk_begin(std::min(child + mask, size), count,
                                        size);
      if (e > b) {
        mpi::recv(comm, acc.data() + b, e - b, datatype_of<T>(),
                  absolute(child, root, size), kCollectiveTag);
      }
    }
  }
  std::memcpy(recv, acc.data(), count * sizeof(T));
}

/// Recursive-doubling allreduce with the MPICH non-power-of-two fold: the
/// first 2*rem ranks pair up (odd folds into even and idles), the surviving
/// pof2 ranks run log2 doubling exchanges, then the idle ranks get the
/// result back from their partners.
template <typename T>
void allreduce_rd(const Comm& comm, const T* send, T* recv, std::size_t count,
                  ReduceOp op) {
  const int size = comm.size();
  const int me = comm.rank();
  if (recv != send) std::memcpy(recv, send, count * sizeof(T));
  std::vector<T> incoming(count);

  const int pof2 = static_cast<int>(
      std::bit_floor(static_cast<unsigned>(size)));
  const int rem = size - pof2;
  int newrank;
  if (me < 2 * rem) {
    if ((me % 2) != 0) {
      mpi::send(comm, recv, count, datatype_of<T>(), me - 1, kCollectiveTag);
      newrank = -1;
    } else {
      mpi::recv(comm, incoming.data(), count, datatype_of<T>(), me + 1,
                kCollectiveTag);
      apply_op(op, incoming.data(), recv, count);
      newrank = me / 2;
    }
  } else {
    newrank = me - rem;
  }

  if (newrank >= 0) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int peer_new = newrank ^ mask;
      const int peer = peer_new < rem ? peer_new * 2 : peer_new + rem;
      sendrecv(comm, recv, count, datatype_of<T>(), peer, kCollectiveTag,
               incoming.data(), count, datatype_of<T>(), peer,
               kCollectiveTag);
      apply_op(op, incoming.data(), recv, count);
    }
  }

  if (me < 2 * rem) {
    if ((me % 2) == 0) {
      mpi::send(comm, recv, count, datatype_of<T>(), me + 1, kCollectiveTag);
    } else {
      mpi::recv(comm, recv, count, datatype_of<T>(), me - 1, kCollectiveTag);
    }
  }
}

/// Ring allreduce: reduce-scatter (each rank ends owning chunk `me`), then
/// a ring allgather of the reduced chunks. 2*(P-1) nearest-neighbour steps,
/// each carrying ~count/P elements — bandwidth-optimal.
template <typename T>
void allreduce_ring(const Comm& comm, const T* send, T* recv,
                    std::size_t count, ReduceOp op) {
  const int size = comm.size();
  const int me = comm.rank();
  if (recv != send) std::memcpy(recv, send, count * sizeof(T));
  ring_reduce_scatter(comm, recv, count, op, /*root=*/0);

  const int right = (me + 1) % size;
  const int left = (me - 1 + size) % size;
  int have = me;
  for (int s = 0; s < size - 1; ++s) {
    const int incoming = (have - 1 + size) % size;
    const std::size_t sb = chunk_begin(have, count, size);
    const std::size_t se = chunk_begin(have + 1, count, size);
    const std::size_t rb = chunk_begin(incoming, count, size);
    const std::size_t re = chunk_begin(incoming + 1, count, size);
    Request recv_req, send_req;
    if (re > rb) {
      recv_req = irecv(comm, recv + rb, re - rb, datatype_of<T>(), left,
                       kCollectiveTag);
    }
    if (se > sb) {
      send_req = isend(comm, recv + sb, se - sb, datatype_of<T>(), right,
                       kCollectiveTag);
    }
    if (re > rb) wait(recv_req);
    if (se > sb) wait(send_req);
    have = incoming;
  }
}

// ---------------------------------------------------------------------------
// dispatch
// ---------------------------------------------------------------------------

template <typename T>
void reduce_entry(const Comm& comm, const T* send, T* recv, std::size_t count,
                  ReduceOp op, int root, std::optional<CollAlgo> hint) {
  CID_REQUIRE(comm.valid(), ErrorCode::InvalidArgument,
              "reduce on invalid communicator");
  CID_REQUIRE(root >= 0 && root < comm.size(), ErrorCode::InvalidArgument,
              "reduce root out of range");
  if (comm.rank() == root) {
    CID_REQUIRE(recv != nullptr, ErrorCode::InvalidArgument,
                "reduce root requires a receive buffer");
  }
  if (count == 0) return;
  const int size = comm.size();
  if (size == 1) {
    if (recv != send) std::memcpy(recv, send, count * sizeof(T));
    return;
  }
  const std::size_t bytes = count * sizeof(T);
  const CollAlgo algo = resolve(CollOp::Reduce, bytes, bytes, size, hint);
  CollSpan span(CollOp::Reduce, algo, bytes);
  if (algo == CollAlgo::Rabenseifner) {
    reduce_rabenseifner(comm, send, recv, count, op, root);
  } else {
    reduce_binomial(comm, send, recv, count, op, root);
  }
}

template <typename T>
void allreduce_entry(const Comm& comm, const T* send, T* recv,
                     std::size_t count, ReduceOp op,
                     std::optional<CollAlgo> hint) {
  CID_REQUIRE(comm.valid(), ErrorCode::InvalidArgument,
              "allreduce on invalid communicator");
  CID_REQUIRE(recv != nullptr, ErrorCode::InvalidArgument,
              "allreduce requires a receive buffer");
  if (count == 0) return;
  const int size = comm.size();
  if (size == 1) {
    if (recv != send) std::memcpy(recv, send, count * sizeof(T));
    return;
  }
  const std::size_t bytes = count * sizeof(T);
  const CollAlgo algo = resolve(CollOp::Allreduce, bytes, bytes, size, hint);
  CollSpan span(CollOp::Allreduce, algo, bytes);
  switch (algo) {
    case CollAlgo::Ring:
      allreduce_ring(comm, send, recv, count, op);
      return;
    case CollAlgo::ReduceBcast:
      // The pre-engine reference path: binomial reduce, then binomial bcast.
      reduce_binomial(comm, send, recv, count, op, /*root=*/0);
      bcast_binomial(comm, recv, count, datatype_of<T>(), /*root=*/0);
      return;
    default:
      allreduce_rd(comm, send, recv, count, op);
      return;
  }
}

}  // namespace

CollAlgo resolve(CollOp op, std::size_t block_bytes, std::size_t total_bytes,
                 int nprocs, std::optional<CollAlgo> hint) {
  if (auto override = tune::Tuner::global().coll_override(op);
      override.has_value() && tune::coll_algo_valid(op, *override, nprocs)) {
    return *override;
  }
  if (hint.has_value() && tune::coll_algo_valid(op, *hint, nprocs)) {
    return *hint;
  }
  const tune::CollShape shape{block_bytes, total_bytes, nprocs};
  return tune::choose_collective(op, shape, rt::current_ctx().model()).algo;
}

void bcast(const Comm& comm, void* buffer, std::size_t count,
           const Datatype& dtype, int root, std::optional<CollAlgo> hint) {
  CID_REQUIRE(comm.valid(), ErrorCode::InvalidArgument,
              "bcast on invalid communicator");
  CID_REQUIRE(root >= 0 && root < comm.size(), ErrorCode::InvalidArgument,
              "bcast root out of range");
  const int size = comm.size();
  if (size == 1 || count == 0) return;
  const std::size_t bytes = count * dtype.extent();
  const CollAlgo algo = resolve(CollOp::Bcast, bytes, bytes, size, hint);
  CollSpan span(CollOp::Bcast, algo, bytes);
  if (algo == CollAlgo::VanDeGeijn) {
    bcast_vandegeijn(comm, buffer, count, dtype, root);
  } else {
    bcast_binomial(comm, buffer, count, dtype, root);
  }
}

void gather(const Comm& comm, const void* send, std::size_t count,
            const Datatype& dtype, void* recv, int root,
            std::optional<CollAlgo> hint) {
  CID_REQUIRE(comm.valid(), ErrorCode::InvalidArgument,
              "gather on invalid communicator");
  CID_REQUIRE(root >= 0 && root < comm.size(), ErrorCode::InvalidArgument,
              "gather root out of range");
  if (comm.rank() == root) {
    CID_REQUIRE(recv != nullptr, ErrorCode::InvalidArgument,
                "gather root requires a receive buffer");
  }
  if (count == 0) return;
  const int size = comm.size();
  const std::size_t block = count * dtype.extent();
  if (size == 1) {
    std::memcpy(recv, send, block);
    return;
  }
  const CollAlgo algo = resolve(CollOp::Gather, block,
                                block * static_cast<std::size_t>(size), size,
                                hint);
  CollSpan span(CollOp::Gather, algo,
                block * static_cast<std::size_t>(size));
  if (algo == CollAlgo::Binomial) {
    gather_binomial(comm, send, count, dtype, recv, root);
  } else {
    gather_flat(comm, send, count, dtype, recv, root);
  }
}

void scatter(const Comm& comm, const void* send, std::size_t count,
             const Datatype& dtype, void* recv, int root,
             std::optional<CollAlgo> hint) {
  CID_REQUIRE(comm.valid(), ErrorCode::InvalidArgument,
              "scatter on invalid communicator");
  CID_REQUIRE(root >= 0 && root < comm.size(), ErrorCode::InvalidArgument,
              "scatter root out of range");
  if (comm.rank() == root) {
    CID_REQUIRE(send != nullptr, ErrorCode::InvalidArgument,
                "scatter root requires a send buffer");
  }
  if (count == 0) return;
  const int size = comm.size();
  const std::size_t block = count * dtype.extent();
  if (size == 1) {
    std::memcpy(recv, send, block);
    return;
  }
  const CollAlgo algo = resolve(CollOp::Scatter, block,
                                block * static_cast<std::size_t>(size), size,
                                hint);
  CollSpan span(CollOp::Scatter, algo,
                block * static_cast<std::size_t>(size));
  if (algo == CollAlgo::Binomial) {
    scatter_binomial(comm, send, count, dtype, recv, root);
  } else {
    scatter_flat(comm, send, count, dtype, recv, root);
  }
}

void allgather(const Comm& comm, const void* send, std::size_t count,
               const Datatype& dtype, void* recv,
               std::optional<CollAlgo> hint) {
  CID_REQUIRE(comm.valid(), ErrorCode::InvalidArgument,
              "allgather on invalid communicator");
  CID_REQUIRE(recv != nullptr, ErrorCode::InvalidArgument,
              "allgather requires a receive buffer");
  if (count == 0) return;
  const int size = comm.size();
  const std::size_t block = count * dtype.extent();
  if (size == 1) {
    std::memcpy(recv, send, block);
    return;
  }
  const CollAlgo algo = resolve(CollOp::Allgather, block,
                                block * static_cast<std::size_t>(size), size,
                                hint);
  CollSpan span(CollOp::Allgather, algo,
                block * static_cast<std::size_t>(size));
  if (algo == CollAlgo::RecursiveDoubling && pow2(size)) {
    allgather_rd(comm, send, count, dtype, recv);
  } else {
    allgather_ring(comm, send, count, dtype, recv);
  }
}

void alltoall(const Comm& comm, const void* send, std::size_t count,
              const Datatype& dtype, void* recv,
              std::optional<CollAlgo> hint) {
  CID_REQUIRE(comm.valid(), ErrorCode::InvalidArgument,
              "alltoall on invalid communicator");
  CID_REQUIRE(recv != nullptr, ErrorCode::InvalidArgument,
              "alltoall requires a receive buffer");
  if (count == 0) return;
  const int size = comm.size();
  const std::size_t block = count * dtype.extent();
  if (size == 1) {
    std::memcpy(recv, send, block);
    return;
  }
  const CollAlgo algo = resolve(CollOp::Alltoall, block,
                                block * static_cast<std::size_t>(size), size,
                                hint);
  CollSpan span(CollOp::Alltoall, algo,
                block * static_cast<std::size_t>(size));
  switch (algo) {
    case CollAlgo::Bruck:
      alltoall_bruck(comm, send, count, dtype, recv);
      return;
    case CollAlgo::PairwiseWindow:
      alltoall_pairwise(comm, send, count, dtype, recv);
      return;
    default:
      alltoall_flat(comm, send, count, dtype, recv);
      return;
  }
}

void reduce(const Comm& comm, const double* send, double* recv,
            std::size_t count, ReduceOp op, int root,
            std::optional<CollAlgo> hint) {
  reduce_entry(comm, send, recv, count, op, root, hint);
}
void reduce(const Comm& comm, const int* send, int* recv, std::size_t count,
            ReduceOp op, int root, std::optional<CollAlgo> hint) {
  reduce_entry(comm, send, recv, count, op, root, hint);
}

void allreduce(const Comm& comm, const double* send, double* recv,
               std::size_t count, ReduceOp op, std::optional<CollAlgo> hint) {
  allreduce_entry(comm, send, recv, count, op, hint);
}
void allreduce(const Comm& comm, const int* send, int* recv,
               std::size_t count, ReduceOp op, std::optional<CollAlgo> hint) {
  allreduce_entry(comm, send, recv, count, op, hint);
}

}  // namespace cid::mpi::coll
