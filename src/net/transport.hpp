// cid::net::Transport — the seam between the runtime's intent ("this
// envelope must reach that rank's mailbox, and the world must synchronize")
// and the machinery that carries it. rt::World routes every delivery and
// world barrier through the installed Transport instead of assuming the
// virtual-time simulator, so the same directive program can run on:
//
//   SimTransport     the virtual-time simulator, ranks as fibers on the
//                    pooled scheduler (deterministic; byte-identical to the
//                    pre-seam runtime)
//   ThreadTransport  ranks on real cores with per-rank inboxes drained by a
//                    messenger thread; wall-clock timing flows into cid::obs
//   TcpTransport     ranks sharded over OS processes, framed messages over
//                    connection-cached sockets (LAIK minimpi style)
//
// Lifecycle: rt::run resolves a Transport (RunOptions::transport or
// CID_BACKEND), constructs the World, calls attach(world) before any rank
// thread starts, and detach() after every rank thread has joined. detach()
// is the deterministic shutdown point: when it returns, every envelope
// handed to deliver() has reached its destination mailbox (or, for tcp,
// its destination process) and all transport threads are joined.
#pragma once

#include <memory>

#include "net/backend.hpp"
#include "simnet/machine_model.hpp"

namespace cid::rt {
class World;
struct Envelope;
}  // namespace cid::rt

namespace cid::net {

class Transport {
 public:
  virtual ~Transport();

  virtual Backend kind() const noexcept = 0;

  /// Timing regime: false = deterministic virtual time (bench results read
  /// from virtual clocks); true = clocks are bookkeeping and the numbers
  /// that matter are wall-clock (rt::run records wall spans into cid::obs).
  virtual bool wall_time() const noexcept { return false; }

  /// True when a fault-layer drop destroys the envelope outright instead of
  /// delivering a payload-less tombstone. Reliability protocols must then
  /// detect loss with wall-clock timers (see core/reliability.cpp).
  virtual bool real_loss() const noexcept { return false; }

  /// True when the world's ranks are split across OS processes. In-process
  /// facilities (shmem symmetric heap, MPI windows, communicator split)
  /// refuse to start on cross-process transports.
  virtual bool cross_process() const noexcept { return false; }

  /// World ranks hosted by this process: [local_rank_begin,
  /// local_rank_begin + local_rank_count). In-process transports host all.
  virtual int local_rank_begin(int nranks) const noexcept {
    (void)nranks;
    return 0;
  }
  virtual int local_rank_count(int nranks) const noexcept { return nranks; }

  /// Bind to `world` for one SPMD run: allocate inboxes, start messenger
  /// threads, perform the cross-process rendezvous. Called by rt::run
  /// before any rank thread starts.
  virtual void attach(rt::World& world) = 0;

  /// Route one envelope to `dest`'s mailbox (possibly in another process).
  /// Called on the sending rank's thread, after the World's fault-
  /// interceptor seam has run.
  virtual void deliver(int dest, rt::Envelope envelope) = 0;

  /// Cross-process reduction step of the world barrier: called once per
  /// barrier by the last locally-arriving rank with the local clock
  /// maximum; returns the global maximum. In-process transports return the
  /// input unchanged (the local maximum IS the global one).
  virtual simnet::SimTime barrier_sync(simnet::SimTime local_max) {
    return local_max;
  }

  /// Called from World::poison() (noexcept path): wake any thread blocked
  /// inside barrier_sync() so a failing world unwinds instead of hanging.
  /// In-process transports never block there, so the default is a no-op.
  virtual void interrupt() noexcept {}

  /// Deterministic shutdown: drain every in-flight delivery, join
  /// transport threads, release sockets. Called by rt::run after all rank
  /// threads joined; the World outlives the call.
  virtual void detach() = 0;
};

/// Construct a transport for `backend`. Tcp reads its peer table from
/// CID_NET_PEERS / CID_NET_PROC (see docs/TRANSPORTS.md) and throws
/// CidError(InvalidArgument) when they are missing or malformed.
std::shared_ptr<Transport> make_transport(Backend backend);

/// make_transport(backend_from_env()).
std::shared_ptr<Transport> make_transport_from_env();

}  // namespace cid::net
