#include "core/trace.hpp"

#include <array>

#include "obs/obs.hpp"

namespace cid::core {

std::string_view trace_event_kind_name(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::P2PDirective: return "comm_p2p";
    case TraceEventKind::RegionDirective: return "comm_parameters";
    case TraceEventKind::CollectiveDirective: return "comm_collective";
    case TraceEventKind::Synchronization: return "sync";
    case TraceEventKind::Overlap: return "overlap";
    case TraceEventKind::FaultInjected: return "fault";
    case TraceEventKind::Retransmit: return "retransmit";
    case TraceEventKind::Timeout: return "timeout";
  }
  return "event";
}

namespace detail {

namespace {

/// A kind's span category and the per-(metric, site, rank) counters and
/// virtual-time latency histogram its spans imply. Latencies are the virtual
/// span duration in seconds; the faults/reliability kinds are point events,
/// so only their occurrence counters matter.
struct KindRow {
  obs::Name cat;
  obs::SpanMetrics metrics;
};

const KindRow& row_of(TraceEventKind kind) {
  using K = TraceEventKind;
  static const auto rows = [] {
    std::array<KindRow, static_cast<std::size_t>(K::Timeout) + 1> out;
    const auto set = [&](K k, std::string_view executions,
                         std::string_view bytes, std::string_view messages,
                         std::string_view seconds) {
      out[static_cast<std::size_t>(k)] = {
          obs::Name(trace_event_kind_name(k)),
          {obs::Name(executions), obs::Name(bytes), obs::Name(messages),
           obs::Name(seconds)}};
    };
    set(K::P2PDirective, "", "cid.p2p.bytes_sent", "cid.p2p.messages",
        "cid.p2p.virtual_seconds");
    set(K::RegionDirective, "cid.region.executions", "cid.region.bytes_sent",
        "", "cid.region.virtual_seconds");
    set(K::CollectiveDirective, "cid.collective.executions",
        "cid.collective.bytes_sent", "", "cid.collective.virtual_seconds");
    set(K::Synchronization, "cid.sync.flushes", "", "",
        "cid.sync.virtual_seconds");
    set(K::Overlap, "", "", "", "cid.overlap.virtual_seconds");
    set(K::FaultInjected, "cid.faults.injected", "", "", "");
    set(K::Retransmit, "cid.reliability.retransmits",
        "cid.reliability.retransmit_bytes", "", "");
    set(K::Timeout, "cid.reliability.timeouts", "", "", "");
    return out;
  }();
  return rows[static_cast<std::size_t>(kind)];
}

}  // namespace

void record_trace_event(const TraceEvent& event) {
  const KindRow& row = row_of(event.kind);
  obs::span(event.rank, row.cat, event.site, event.begin, event.end,
            event.bytes, event.messages, &row.metrics);
}

}  // namespace detail

}  // namespace cid::core
