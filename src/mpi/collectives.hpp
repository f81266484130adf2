// miniMPI collectives, run by the cid::mpi::coll engine (mpi/coll.hpp) on
// the point-to-point layer, so their virtual-time cost reflects real
// implementations. The engine chooses among several algorithms per call
// (trees, ring, recursive doubling, Bruck, Rabenseifner; mpi/coll.hpp lists
// them): a CID_COLL override, then a caller's hint, then the cost model.
// Called as declared here, they pass no hint. They are the lowering targets of the collective directive
// extension (the paper's Section V future work).
#pragma once

#include "mpi/coll.hpp"
#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"

namespace cid::mpi {

/// MPI_Bcast from `root`.
using coll::bcast;

/// MPI_Gather: every rank contributes `count` elements; root receives
/// size*count into `recv` (rank i's block at offset i*count). `recv` may be
/// null on non-root ranks.
using coll::gather;

/// MPI_Scatter: root holds size*count elements in `send` (block i to rank
/// i); every rank receives `count` into `recv`. `send` may be null on
/// non-root ranks.
using coll::scatter;

/// MPI_Allgather: `recv` holds size*count elements.
using coll::allgather;

/// MPI_Alltoall: `send`/`recv` hold size*count elements (block j of `send`
/// goes to rank j).
using coll::alltoall;

/// MPI_Reduce over doubles or ints. `recv` may alias `send` on the root; may
/// be null elsewhere.
using coll::reduce;

/// MPI_Allreduce over doubles or ints.
using coll::allreduce;

// Typed conveniences for basic element types.
template <typename T>
void bcast(const Comm& comm, T* buffer, std::size_t count, int root) {
  bcast(comm, buffer, count, datatype_of<T>(), root);
}
template <typename T>
void gather(const Comm& comm, const T* send, std::size_t count, T* recv,
            int root) {
  gather(comm, send, count, datatype_of<T>(), recv, root);
}
template <typename T>
void scatter(const Comm& comm, const T* send, std::size_t count, T* recv,
             int root) {
  scatter(comm, send, count, datatype_of<T>(), recv, root);
}
template <typename T>
void allgather(const Comm& comm, const T* send, std::size_t count, T* recv) {
  allgather(comm, send, count, datatype_of<T>(), recv);
}
template <typename T>
void alltoall(const Comm& comm, const T* send, std::size_t count, T* recv) {
  alltoall(comm, send, count, datatype_of<T>(), recv);
}

}  // namespace cid::mpi
