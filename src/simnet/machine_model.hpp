// LogGP-style cost model substituting for the paper's Cray XK7 + Gemini
// testbed.
//
// Every communication operation in miniMPI / miniSHMEM charges *virtual time*
// according to these tables instead of measuring wall-clock time, which makes
// all experiment outputs deterministic and independent of host scheduling.
//
// Calibration: the absolute values are in the ballpark of published Gemini
// numbers (microsecond-scale latencies, ~5 GB/s per-direction link bandwidth);
// the *ratios* are calibrated so the structural effects the paper measures are
// reproduced:
//   - per-call MPI_Wait overhead vs one consolidated MPI_Waitall (the paper's
//     2.6x validation experiment, Section IV-B),
//   - compiler-generated (directive) call sequences with hoisted argument
//     marshalling vs hand-written per-iteration request management (the
//     remaining ~1.4x for the MPI target),
//   - the small-message (8-256 B) latency gap between SHMEM puts and MPI
//     two-sided messaging that the paper cites from [13],[14] to explain the
//     ~38x SHMEM speedup in setEvec.
#pragma once

#include <algorithm>
#include <cstddef>

namespace cid::simnet {

/// Seconds of virtual time.
using SimTime = double;

/// One envelope's injection, as PathCosts::inject prices it.
struct Injection {
  SimTime busy = 0.0;            ///< sender CPU time spent injecting
  SimTime delivery = 0.0;        ///< payload complete in the destination
  SimTime local_complete = 0.0;  ///< send buffer reusable
};

/// Cost table for one communication path (a library + transfer style).
struct PathCosts {
  /// CPU time the sender spends inside the send/put call (o_s in LogGP).
  SimTime send_overhead = 0.0;
  /// CPU time the receiver spends completing one message (o_r).
  SimTime recv_overhead = 0.0;
  /// Wire latency, first byte out to first byte in (L).
  SimTime latency = 0.0;
  /// Streaming bandwidth for the payload (1/G).
  double bytes_per_second = 1.0;
  /// Minimum spacing between consecutive message injections (g).
  SimTime per_message_gap = 0.0;
  /// Sender-side injection occupancy: the NIC interface drains payload at
  /// this rate, so consecutive large sends serialize at the sender (LogGP's
  /// per-byte gap G applied at the injection point). Effectively infinite
  /// by default.
  double injection_bytes_per_second = 1.0e30;

  /// Cost of one single-request completion call (MPI_Wait).
  SimTime wait_single = 0.0;
  /// Fixed cost of an aggregate completion call (MPI_Waitall, shmem_quiet).
  SimTime waitall_base = 0.0;
  /// Incremental cost per request retired inside the aggregate call.
  SimTime waitall_per_request = 0.0;
  /// Payloads larger than this use the rendezvous protocol.
  std::size_t eager_threshold_bytes = 1u << 30;
  /// Extra one-way latency paid by rendezvous transfers (handshake).
  SimTime rendezvous_extra_latency = 0.0;
  /// One-time cost of building a persistent request (MPI_Send_init /
  /// MPI_Recv_init). Amortized over the region's iterations by the directive
  /// lowering.
  SimTime persistent_setup = 0.0;
  /// Injection/post cost of MPI_Start on a persistent send/recv request;
  /// lower than the full Isend/Irecv path because argument marshalling,
  /// request allocation and matching setup were hoisted.
  SimTime persistent_send_overhead = 0.0;
  SimTime persistent_recv_overhead = 0.0;

  /// Time at which a payload injected at `send_complete_time` is fully
  /// available in the destination's memory.
  SimTime delivery_time(SimTime send_complete_time,
                        std::size_t bytes) const noexcept {
    SimTime t = send_complete_time + latency +
                static_cast<SimTime>(bytes) / bytes_per_second;
    if (bytes > eager_threshold_bytes) t += rendezvous_extra_latency;
    return t;
  }

  /// The LogGP send rule, for every path and every envelope. A sender that
  /// starts injecting `bytes` at `start` is busy for
  /// `overhead + gaps * g + bytes / injection bandwidth`; `gaps` counts the
  /// messages the envelope carries (an aggregate carries several). The
  /// payload streams down the wire from `start` but is never delivered
  /// before the last byte left the sender plus one latency. An eager send
  /// completes locally when the sender is free, a rendezvous send when its
  /// payload is delivered.
  Injection inject(SimTime start, std::size_t bytes, SimTime overhead,
                   std::size_t gaps = 1) const noexcept {
    const SimTime busy =
        overhead + static_cast<SimTime>(gaps) * per_message_gap +
        static_cast<SimTime>(bytes) / injection_bytes_per_second;
    const SimTime end = start + busy;
    const SimTime delivery =
        std::max(delivery_time(start, bytes), end + latency);
    return {busy, delivery, bytes > eager_threshold_bytes ? delivery : end};
  }

  /// CPU time of one aggregate completion call retiring `requests` requests
  /// (MPI_Waitall, the reliable protocol's consolidated completion).
  SimTime completion_time(std::size_t requests) const noexcept {
    return waitall_base +
           waitall_per_request * static_cast<SimTime>(requests);
  }

  /// CPU time of one completion poll (MPI_Test, MPI_Iprobe).
  SimTime poll_time() const noexcept { return waitall_per_request; }
};

/// Cost table for host-side operations the directive translation changes.
struct HostCosts {
  /// MPI_Pack / MPI_Unpack per-call fixed cost (argument checking, position
  /// bookkeeping) and streaming copy rate.
  SimTime pack_call_overhead = 0.0;
  double pack_bytes_per_second = 1.0;
  /// Derived-datatype construction: MPI_Type_create_struct + commit.
  SimTime type_create_base = 0.0;
  SimTime type_create_per_field = 0.0;
  /// Gather/scatter penalty rate when sending via a non-contiguous derived
  /// type (engine walks the layout instead of a flat memcpy).
  double datatype_pack_bytes_per_second = 1.0;

  /// CPU time to gather or scatter `bytes` of payload through a datatype's
  /// layout. A contiguous layout is one flat copy and costs nothing extra.
  SimTime layout_walk_time(std::size_t bytes, bool contiguous) const noexcept {
    return contiguous ? 0.0
                      : static_cast<SimTime>(bytes) /
                            datatype_pack_bytes_per_second;
  }
};

/// The whole machine: one cost table per path plus collective parameters.
struct MachineModel {
  PathCosts mpi_two_sided;
  PathCosts mpi_one_sided;  ///< MPI_Put; waitall_base models MPI_Win_fence
  PathCosts shmem;          ///< puts; waitall_base models shmem_quiet
  HostCosts host;

  /// Barrier cost: base + log2(nranks) * per_stage (dissemination barrier).
  SimTime barrier_base = 0.0;
  SimTime barrier_per_stage = 0.0;

  SimTime barrier_cost(int nranks) const noexcept;

  /// Calibrated preset reproducing the paper's observed behaviour (see file
  /// header). This is the model every bench and example uses.
  static MachineModel cray_xk7_gemini();

  /// A null model (everything free). Used by unit tests that check data
  /// movement semantics without caring about time.
  static MachineModel zero();
};

}  // namespace cid::simnet
