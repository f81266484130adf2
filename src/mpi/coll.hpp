// cid::mpi::coll — the multi-algorithm collective engine.
//
// The public collectives of mpi/collectives.hpp are these entries; the
// engine picks an algorithm per call and runs it on the p2p layer. Selection
// precedence (resolved per call, all layers deterministic):
//
//   1. CID_COLL=<collective>:<algo>[,...] operator override (parsed once per
//      rt::run by tune::Tuner::prepare(); see tune/coll.hpp for names);
//   2. the caller's `hint` — the collective-directive lowering passes one
//      under CID_TUNE=on, computed from the site's recorded profile;
//   3. the cost model: tune::choose_collective() over (block bytes, total
//      bytes, nprocs, machine model).
//
// An override or hint that does not apply to the current shape (e.g.
// recursive-doubling allgather on a non-power-of-two group) falls through
// to the next layer. Algorithms (tune/coll.hpp tabulates the op -> algo
// map):
//
//   bcast      binomial tree | van de Geijn (binomial scatter + ring
//              allgather)
//   gather     flat fan-in | binomial tree (subtree blocks relayed upward)
//   scatter    flat fan-out | binomial tree
//   allgather  ring | recursive doubling (power-of-two groups)
//   alltoall   flat request storm | Bruck (ceil(log2 P) combined messages)
//              | pairwise exchange under a bounded request window
//   reduce     binomial tree | Rabenseifner (ring reduce-scatter + binomial
//              gather)
//   allreduce  reduce+bcast | recursive doubling | ring (reduce-scatter +
//              allgather)
//
// Every algorithm is element-equal to the flat/binomial reference paths
// (tests/collectives_test.cpp cross-checks each one), and when cid::obs is
// recording, each call emits a "coll" span named "<op>[<algo>]" plus a
// "cid.coll.calls" counter so traces name the algorithm that ran.
#pragma once

#include <optional>

#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"
#include "tune/coll.hpp"

namespace cid::mpi {

/// Reduction operators for reduce/allreduce.
enum class ReduceOp { Sum, Min, Max, Prod };

}  // namespace cid::mpi

namespace cid::mpi::coll {

using tune::CollAlgo;
using tune::CollOp;

/// Resolve the algorithm for one collective call: CID_COLL override, then
/// `hint`, then the cost model (each skipped when inapplicable to the
/// shape). Pure given the Tuner state parsed at rt::run start, so every
/// member of the group resolves identically.
CollAlgo resolve(CollOp op, std::size_t block_bytes, std::size_t total_bytes,
                 int nprocs, std::optional<CollAlgo> hint = std::nullopt);

// Engine entry points, exported as the cid::mpi collectives (documented in
// mpi/collectives.hpp), plus the optional algorithm hint. Root-rooted
// entries validate the root range; all entries early-out on empty payloads
// and single-member groups.

void bcast(const Comm& comm, void* buffer, std::size_t count,
           const Datatype& dtype, int root,
           std::optional<CollAlgo> hint = std::nullopt);

void gather(const Comm& comm, const void* send, std::size_t count,
            const Datatype& dtype, void* recv, int root,
            std::optional<CollAlgo> hint = std::nullopt);

void scatter(const Comm& comm, const void* send, std::size_t count,
             const Datatype& dtype, void* recv, int root,
             std::optional<CollAlgo> hint = std::nullopt);

void allgather(const Comm& comm, const void* send, std::size_t count,
               const Datatype& dtype, void* recv,
               std::optional<CollAlgo> hint = std::nullopt);

void alltoall(const Comm& comm, const void* send, std::size_t count,
              const Datatype& dtype, void* recv,
              std::optional<CollAlgo> hint = std::nullopt);

void reduce(const Comm& comm, const double* send, double* recv,
            std::size_t count, ReduceOp op, int root,
            std::optional<CollAlgo> hint = std::nullopt);
void reduce(const Comm& comm, const int* send, int* recv, std::size_t count,
            ReduceOp op, int root,
            std::optional<CollAlgo> hint = std::nullopt);

void allreduce(const Comm& comm, const double* send, double* recv,
               std::size_t count, ReduceOp op,
               std::optional<CollAlgo> hint = std::nullopt);
void allreduce(const Comm& comm, const int* send, int* recv,
               std::size_t count, ReduceOp op,
               std::optional<CollAlgo> hint = std::nullopt);

}  // namespace cid::mpi::coll
