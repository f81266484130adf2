// Transport backend selection: which machinery carries envelopes between
// ranks and what "time" means while it does.
//
//   sim     virtual-time simulator, ranks as fibers on the pooled
//           scheduler (the default); deterministic, golden-fingerprint pinned
//   thread  ranks on real cores, wall-clock timing, in-process inboxes
//   tcp     ranks sharded over OS processes, framed messages over sockets
//
// Selected by CID_BACKEND=sim|thread|tcp or programmatically via
// rt::RunOptions::transport. See docs/TRANSPORTS.md.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace cid::net {

enum class Backend {
  Sim = 0,
  Thread,
  Tcp,
};

std::string_view backend_name(Backend backend) noexcept;

/// Parse a backend name ("sim" / "thread" / "tcp"); nullopt when unknown.
std::optional<Backend> parse_backend(std::string_view name) noexcept;

/// Resolve CID_BACKEND (default Sim when unset/empty). Throws
/// CidError(InvalidArgument) on an unknown value — a typo must not silently
/// fall back to the simulator.
Backend backend_from_env();

/// Monotonic wall-clock seconds since an arbitrary (per-process) origin.
/// The wall-time backends feed this into obs spans and reliability timers.
double wall_seconds() noexcept;

/// Scale factor from virtual timeout seconds to wall-clock seconds used by
/// reliability deadlines on real-loss transports (CID_NET_TIMEOUT_SCALE,
/// default 1000: a 20 us virtual timeout becomes a 20 ms wall deadline).
double timeout_scale_from_env();

}  // namespace cid::net
