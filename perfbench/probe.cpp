#include "probe.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* call_name(Call call) {
  switch (call) {
    case Call::kStep: return "step";
    case Call::kOverlap: return "overlap";
    case Call::kCommParameters: return "comm_parameters";
    case Call::kCommP2p: return "comm_p2p";
    case Call::kCommCollective: return "comm_collective";
    case Call::kMpiIsend: return "isend";
    case Call::kMpiIrecv: return "irecv";
    case Call::kMpiWaitall: return "waitall";
    case Call::kShmemMalloc: return "malloc";
    case Call::kRtRun: return "run";
    case Call::kRtBarrier: return "barrier";
    case Call::kWllsmsDriver: return "driver";
    case Call::kWllsmsSetEvec: return "set_evec";
    case Call::kWllsmsTransferAtom: return "transfer_atom";
    case Call::kObsExport: return "write_chrome_json";
    case Call::kObsRead: return "read_trace_file";
    case Call::kCount: break;
  }
  return "?";
}

const char* layer_of(Call call) {
  switch (call) {
    case Call::kStep:
    case Call::kOverlap: return "bench";
    case Call::kCommParameters:
    case Call::kCommP2p:
    case Call::kCommCollective: return "core";
    case Call::kMpiIsend:
    case Call::kMpiIrecv:
    case Call::kMpiWaitall: return "mpi";
    case Call::kShmemMalloc: return "shmem";
    case Call::kRtRun:
    case Call::kRtBarrier: return "rt";
    case Call::kWllsmsDriver:
    case Call::kWllsmsSetEvec:
    case Call::kWllsmsTransferAtom: return "wllsms";
    case Call::kObsExport:
    case Call::kObsRead: return "obs";
    case Call::kCount: break;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Tracer

void Tracer::begin_rep(int ranks, std::uint32_t rep) {
  rep_ = rep;
  if (tracks_.size() < static_cast<std::size_t>(ranks) + 1) {
    tracks_.resize(static_cast<std::size_t>(ranks) + 1);
  }
  for (Track& track : tracks_) {
    track.spans.clear();
    track.stack.clear();
  }
}

namespace {
/// The last span event on this thread. Worker threads live for one rt::run,
/// so every run starts with no previous event.
struct LastEvent {
  int track = -1;
  std::int64_t ns = 0;
};
thread_local LastEvent t_last;
}  // namespace

void Tracer::attribute(Track& track, int track_index, std::int64_t now) {
  if (track_index == kHostTrack) return;  // the host only waits in rt::run
  if (t_last.track == track_index) {
    // Two events of one rank in a row on this worker: the rank ran all
    // along, inside its innermost open span.
    if (!track.stack.empty()) track.stack.back().busy_ns += now - t_last.ns;
  } else if (t_last.track >= 0) {
    track.switch_ns += now - t_last.ns;
  }
  t_last = {track_index, now};
}

void Tracer::open(int track_index, Call call, std::uint32_t step) {
  Track& track = tracks_[static_cast<std::size_t>(track_index)];
  const std::int64_t now = now_ns();
  attribute(track, track_index, now);
  std::int64_t parent = -1;
  if (!track.stack.empty()) {
    parent = span_id(track_index, track.stack.back().index);
  } else if (track_index != kHostTrack && !tracks_[0].stack.empty()) {
    // The host is blocked inside the rt::run that launched this rank, so
    // its stack is stable while ranks read it.
    parent = span_id(kHostTrack, tracks_[0].stack.back().index);
  }
  track.stack.push_back({track.spans.size(), 0, 0});
  track.spans.push_back({call, step, now, 0, parent});
}

void Tracer::close(int track_index) {
  Track& track = tracks_[static_cast<std::size_t>(track_index)];
  const std::int64_t now = now_ns();
  attribute(track, track_index, now);
  const Frame frame = track.stack.back();
  track.stack.pop_back();
  Span& span = track.spans[frame.index];
  span.end_ns = now;
  const std::int64_t duration = span.end_ns - span.begin_ns;
  CallTotals& totals = track.totals[static_cast<std::size_t>(span.call)];
  ++totals.calls;
  totals.inclusive_ns += duration;
  totals.self_ns += duration - frame.child_ns;
  totals.busy_ns += frame.busy_ns;
  if (!track.stack.empty()) track.stack.back().child_ns += duration;
}

std::array<CallTotals, kCallCount> Tracer::totals() const {
  std::array<CallTotals, kCallCount> sum{};
  for (const Track& track : tracks_) {
    for (int c = 0; c < kCallCount; ++c) {
      sum[c].calls += track.totals[c].calls;
      sum[c].inclusive_ns += track.totals[c].inclusive_ns;
      sum[c].self_ns += track.totals[c].self_ns;
      sum[c].busy_ns += track.totals[c].busy_ns;
    }
  }
  return sum;
}

std::int64_t Tracer::switch_ns() const {
  std::int64_t sum = 0;
  for (const Track& track : tracks_) sum += track.switch_ns;
  return sum;
}

bool Tracer::write_spans(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "rep\tstep\ttrack\tlayer\tcall\tbegin_ns\tend_ns\tid\tparent\n");
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    const auto& spans = tracks_[t].spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out, "%u\t%u\t%zu\t%s\t%s\t%lld\t%lld\t%lld\t%lld\n", rep_,
                   s.step, t, layer_of(s.call), call_name(s.call),
                   static_cast<long long>(s.begin_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(span_id(static_cast<int>(t), i)),
                   static_cast<long long>(s.parent));
    }
  }
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------
// WireCounter

WireCounter::WireCounter(int nranks)
    : slots_(static_cast<std::size_t>(nranks) + 1) {}

cid::rt::DeliveryVerdict WireCounter::on_deliver(
    const cid::rt::Envelope& envelope, int /*dest_rank*/) {
  const bool attributed =
      envelope.src >= 0 && static_cast<std::size_t>(envelope.src) + 1 < slots_.size();
  Slot& slot = slots_[attributed ? static_cast<std::size_t>(envelope.src) + 1 : 0];
  const std::uint64_t bytes = envelope.payload.size();
  slot.envelopes.fetch_add(1, std::memory_order_relaxed);
  slot.bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (envelope.channel == cid::rt::Channel::MpiPointToPoint ||
      envelope.channel == cid::rt::Channel::MpiOneSided) {
    slot.mpi_envelopes.fetch_add(1, std::memory_order_relaxed);
    slot.mpi_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  return {};
}

WireTotals WireCounter::totals() const {
  WireTotals sum;
  for (const Slot& slot : slots_) {
    sum.envelopes += slot.envelopes.load(std::memory_order_relaxed);
    sum.bytes += slot.bytes.load(std::memory_order_relaxed);
    sum.mpi_envelopes += slot.mpi_envelopes.load(std::memory_order_relaxed);
    sum.mpi_bytes += slot.mpi_bytes.load(std::memory_order_relaxed);
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Phase timing

StepLog::StepLog(int nranks, int steps)
    : nranks_(nranks),
      steps_(steps),
      released_(static_cast<std::size_t>(nranks), 0),
      begun_(static_cast<std::size_t>(nranks), 0),
      ends_(static_cast<std::size_t>(nranks) * static_cast<std::size_t>(steps),
            0) {}

PhaseTiming StepLog::timing(std::int64_t entry_ns,
                            std::int64_t return_ns) const {
  PhaseTiming timing;
  const std::int64_t release =
      *std::min_element(released_.begin(), released_.end());
  timing.setup_s = static_cast<double>(release - entry_ns) * 1e-9;
  timing.wall_s = static_cast<double>(return_ns - release) * 1e-9;
  std::vector<std::int64_t> previous(released_);
  for (int r = 0; r < nranks_; ++r) {
    if (begun_[r] > 0) previous[r] = begun_[r];
  }
  std::vector<std::int64_t> durations(static_cast<std::size_t>(nranks_));
  for (int s = 0; s < steps_; ++s) {
    const std::int64_t* end = &ends_[static_cast<std::size_t>(s) * nranks_];
    for (int r = 0; r < nranks_; ++r) {
      durations[r] = end[r] - previous[r];
      previous[r] = end[r];
    }
    const auto middle = durations.begin() + nranks_ / 2;
    std::nth_element(durations.begin(), middle, durations.end());
    timing.step_ms.push_back(static_cast<double>(*middle) * 1e-6);
  }
  return timing;
}

PhaseOutcome run_phase(int nranks, int steps,
                       const cid::simnet::MachineModel& model, Tracer& tracer,
                       const PhaseBody& body) {
  StepLog log(nranks, steps);
  auto wire = std::make_shared<WireCounter>(nranks);
  cid::rt::RunOptions options;
  options.interceptor = wire;

  PhaseOutcome outcome;
  const std::int64_t entry = now_ns();
  {
    Scope run_span(tracer, Tracer::kHostTrack, Call::kRtRun);
    outcome.run = cid::rt::run(
        nranks, model,
        [&](cid::rt::RankCtx& ctx) {
          const int track = Tracer::rank_track(ctx.rank());
          {
            Scope barrier_span(tracer, track, Call::kRtBarrier);
            ctx.barrier();
          }
          log.released(ctx.rank());
          body(ctx, log);
        },
        options);
  }
  outcome.timing = log.timing(entry, now_ns());
  outcome.wire = wire->totals();
  return outcome;
}

void record_run(const PhaseOutcome& outcome, RepResult& result) {
  result.setup_s += outcome.timing.setup_s;
  result.wall_s += outcome.timing.wall_s;
  result.step_ms.insert(result.step_ms.end(), outcome.timing.step_ms.begin(),
                        outcome.timing.step_ms.end());
  result.exact["wire_messages"] += static_cast<double>(outcome.wire.envelopes);
  result.exact["wire_bytes"] += static_cast<double>(outcome.wire.bytes);
  result.exact["mpi.messages"] += static_cast<double>(outcome.wire.mpi_envelopes);
  result.exact["mpi.bytes"] += static_cast<double>(outcome.wire.mpi_bytes);
  const auto& clocks = outcome.run.final_clocks;
  const auto [lo, hi] = std::minmax_element(clocks.begin(), clocks.end());
  result.exact["vt.makespan_us"] += outcome.run.makespan() * 1e6;
  result.exact["vt.clock_skew_us"] += (*hi - *lo) * 1e6;
  result.layer["rt.sched.switches"] +=
      static_cast<double>(outcome.run.sched_stats.switches);
  result.layer["rt.sched.parks"] +=
      static_cast<double>(outcome.run.sched_stats.parks);
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

std::string exact_str(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace perfbench
