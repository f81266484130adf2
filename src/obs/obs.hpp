// cid::obs — the unified observability layer.
//
// A process-global instrumentation substrate that every subsystem above
// simnet can feed without knowing who exports the data:
//
//   span(...)     a virtual-time phase on one rank's track (region, sync,
//                 overlap, retransmit, ...) — becomes one Chrome trace-event
//                 "X" slice in the Perfetto export. A span may carry a
//                 SpanMetrics row: the counters and the histogram it implies,
//                 which readers derive from the span stream when they read;
//   count(...)    a per-(metric, site, rank) counter increment;
//   observe(...)  a per-(metric, site, rank) histogram sample.
//
// Everything is gated on enabled(): one relaxed atomic load when off, so
// instrumented hot paths cost nothing in normal runs. When on, each rank
// records into its own buffers without a lock (obs/recorder.hpp); readers
// merge them in rank order. Names are interned once per process
// (obs/name.hpp), so a recording holds pointers, not copies. Recording never
// touches a virtual clock — enabling export cannot perturb virtual-time
// results (pinned by the golden fingerprints in tests/property_test.cpp).
//
// Layering: obs depends only on cid_common + cid_simnet, so cid_rt, cid_mpi,
// cid_shmem, cid_core and cid_faults may all call it directly. obs is the one
// recorder of directive events: the executors and the fault layer publish
// them through core::detail::record_trace_event (core/trace.cpp), one span
// each, which is how region/sync/overlap spans and their cid.* metrics reach
// the exporter.
//
// Exporting:
//   write_chrome_json(out)   Perfetto-loadable trace-event JSON (one thread
//                            track per rank, metrics embedded as
//                            "cidMetrics") — see docs/OBSERVABILITY.md;
//   CID_TRACE_OUT=<path>     environment switch (see obs/autotrace.hpp):
//                            every rt::run records and writes <path> with
//                            zero code changes in the program.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/name.hpp"

namespace cid::obs {

/// Global gate. Off by default; autotrace (CID_TRACE_OUT) or tests turn it
/// on. Instrumentation sites must check this before building event payloads.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// One virtual-time phase on one rank's track.
struct Span {
  int rank = 0;
  std::string cat;   ///< phase kind: "comm_p2p", "sync", "retransmit", ...
  std::string name;  ///< directive site or event label
  double begin = 0.0;  ///< virtual seconds
  double end = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;

  bool operator==(const Span&) const = default;
};

/// The metrics every span of one kind implies, each keyed by (metric, span
/// name, span rank). Empty names are skipped. Rows are static: a span holds
/// a pointer to its row.
struct SpanMetrics {
  Name executions;  ///< counter: one per span
  Name bytes;       ///< counter: the span's bytes
  Name messages;    ///< counter: the span's messages
  Name seconds;     ///< histogram: the span's duration, end - begin
};

/// Record a span (no-op when disabled): one append to the rank's recording.
/// The rows `metrics` names are folded from the spans, in recording order,
/// when a reader asks for counters or histograms, so they equal what count()
/// and observe() calls made beside the span would have recorded.
void span(int rank, Name cat, Name name, double begin, double end,
          std::uint64_t bytes = 0, std::uint64_t messages = 0,
          const SpanMetrics* metrics = nullptr);
void span(int rank, std::string_view cat, std::string_view name, double begin,
          double end, std::uint64_t bytes = 0, std::uint64_t messages = 0);
void span(const Span& s);

/// Counter / histogram probes (no-ops when disabled). `site` may be a
/// directive site ("file:line") or a subsystem label; rank -1 means the
/// value is not rank-attributed. A metric is either probed or derived from
/// spans, never both.
/// The string overloads intern both texts on each call; hot paths keep
/// their Names (a SiteId's name, a function-local static) and pass those.
void count(Name metric, Name site, int rank, std::uint64_t delta = 1);
void observe(Name metric, Name site, int rank, double value);
void count(std::string_view metric, std::string_view site, int rank,
           std::uint64_t delta = 1);
void observe(std::string_view metric, std::string_view site, int rank,
             double value);

/// All recorded spans, sorted by (rank, begin, end, cat, name, bytes,
/// messages) — a total order over every serialized field, so a deterministic
/// run exports byte-identical JSON regardless of thread interleaving, worker
/// count or scheduler.
std::vector<Span> spans();

/// Drop all recorded spans and metrics (the recorders keep their capacity).
/// Like the readers, call it between runs, not while ranks record.
void clear();

/// Chrome trace-event JSON (object form): {"traceEvents": [...],
/// "cidMetrics": {...}}. One metadata-named thread track per rank; span
/// timestamps are virtual microseconds. Loadable by Perfetto / about:tracing.
void write_chrome_json(std::ostream& out);

}  // namespace cid::obs
