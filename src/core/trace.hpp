// Directive events — what every rank's directives did (posts, transfers,
// synchronization waits, collectives, fault-layer interference), on the
// virtual-time axis.
//
// The directive executors and the fault layer build one TraceEvent per
// phase and hand it to record_trace_event(), which publishes it to cid::obs
// as one span on the rank's track. The span carries its kind's
// obs::SpanMetrics row, from which obs derives the per-site counters and
// virtual-time histograms when they are read. cid::obs is the only
// recorder; read events back with obs::spans() or export them with
// obs::write_chrome_json() / CID_TRACE_OUT (docs/OBSERVABILITY.md). Because
// timing is virtual and deterministic, two runs of the same program record
// identical events.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/name.hpp"
#include "simnet/machine_model.hpp"

namespace cid::core {

enum class TraceEventKind : std::uint8_t {
  P2PDirective,        ///< one comm_p2p execution (span)
  RegionDirective,     ///< one comm_parameters region (span)
  CollectiveDirective, ///< one comm_collective execution (span)
  Synchronization,     ///< a flush: waitall / shmem waits / fences (span)
  Overlap,             ///< the user's overlapped computation block (span)
  FaultInjected,       ///< the fault layer dropped/delayed/duplicated/stalled
  Retransmit,          ///< reliability layer re-sent a transfer attempt
  Timeout,             ///< a virtual-time retransmission/receive timer fired
};

/// The obs span category of `kind` ("comm_p2p", "sync", "fault", ...).
std::string_view trace_event_kind_name(TraceEventKind kind) noexcept;

struct TraceEvent {
  TraceEventKind kind;
  int rank;
  simnet::SimTime begin;  ///< virtual seconds
  simnet::SimTime end;
  obs::Name site;         ///< directive site (file:line) or event label
  std::uint64_t bytes;    ///< payload injected during the span (senders)
  std::uint64_t messages; ///< messages injected during the span
};

namespace detail {
/// Publish an event to cid::obs: one span, tagged with the metrics its kind
/// implies. Emit sites build the event only when obs::enabled().
void record_trace_event(const TraceEvent& event);
}  // namespace detail

}  // namespace cid::core
