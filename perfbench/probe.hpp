// Measurement plumbing of the benchmark, kept outside the program under test:
// wall-clock spans around the layer calls the benchmark's own files make, a
// delivery-seam counter for wire traffic, and the harness that times one
// rt::run from its entry through the opening barrier to its return.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rt/runtime.hpp"

namespace perfbench {

std::int64_t now_ns();

/// The layer entry points the benchmark times. layer_of() names the layer
/// (the src/ module) each one belongs to.
enum class Call : std::uint8_t {
  kStep,          ///< bench: one program step on one rank
  kOverlap,       ///< bench: a directive's overlap block
  kCommParameters,
  kCommP2p,
  kCommCollective,
  kMpiIsend,
  kMpiIrecv,
  kMpiWaitall,
  kShmemMalloc,
  kRtRun,
  kRtBarrier,
  kWllsmsDriver,
  kWllsmsSetEvec,
  kWllsmsTransferAtom,
  kObsExport,
  kObsRead,
  kCount,
};
inline constexpr int kCallCount = static_cast<int>(Call::kCount);

const char* call_name(Call call);
const char* layer_of(Call call);

/// Calls of one kind, summed: inclusive time; self time (inclusive minus the
/// time covered by child spans on the same track); and busy time, the part
/// of self time during which the rank held its worker thread. Self time
/// minus busy time is time the rank spent parked while other ranks ran.
struct CallTotals {
  std::uint64_t calls = 0;
  std::int64_t inclusive_ns = 0;
  std::int64_t self_ns = 0;
  std::int64_t busy_ns = 0;
};

/// In-memory span recorder. Track 0 is the host thread; rank r records on
/// track r + 1, and only that rank's fiber ever touches it, so recording
/// takes no lock. A rank's outermost span takes the host span open at the
/// time (the rt::run that launched it) as its parent.
///
/// Busy time comes from the order of events on each worker thread: the time
/// between two consecutive events of the same rank belongs to that rank's
/// innermost open span; the time between events of two different ranks is
/// a switch (scheduler, park/unpark, and code outside any span).
class Tracer {
 public:
  static int rank_track(int rank) { return rank + 1; }
  static constexpr int kHostTrack = 0;

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Start a repetition over `ranks` rank tracks. Only the latest
  /// repetition's spans are kept; totals accumulate over the run.
  void begin_rep(int ranks, std::uint32_t rep);

  void open(int track, Call call, std::uint32_t step);
  void close(int track);

  std::array<CallTotals, kCallCount> totals() const;
  /// Time between events of different ranks on one worker, summed.
  std::int64_t switch_ns() const;

  /// Write the latest repetition's spans as tab-separated lines:
  /// rep step track layer call begin_ns end_ns id parent.
  bool write_spans(const std::string& path) const;

 private:
  struct Span {
    Call call;
    std::uint32_t step;
    std::int64_t begin_ns;
    std::int64_t end_ns;
    std::int64_t parent;
  };
  struct Frame {
    std::size_t index;
    std::int64_t child_ns;
    std::int64_t busy_ns;
  };
  struct Track {
    std::vector<Span> spans;
    std::vector<Frame> stack;
    std::array<CallTotals, kCallCount> totals{};
    std::int64_t switch_ns = 0;
  };

  void attribute(Track& track, int track_index, std::int64_t now);

  static std::int64_t span_id(int track, std::size_t index) {
    return (static_cast<std::int64_t>(track) << 32) |
           static_cast<std::int64_t>(index);
  }

  bool enabled_ = false;
  std::uint32_t rep_ = 0;
  std::vector<Track> tracks_;
};

/// RAII span; inert when the tracer is off.
class Scope {
 public:
  Scope(Tracer& tracer, int track, Call call, std::uint32_t step = 0)
      : tracer_(tracer), track_(track), on_(tracer.enabled()) {
    if (on_) tracer_.open(track_, call, step);
  }
  ~Scope() {
    if (on_) tracer_.close(track_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int track_;
  bool on_;
};

/// Wire traffic as seen at World::deliver, the seam every envelope crosses.
/// Counts only; it never alters an envelope, so virtual time is unaffected.
struct WireTotals {
  std::uint64_t envelopes = 0;
  std::uint64_t bytes = 0;
  std::uint64_t mpi_envelopes = 0;  ///< MPI point-to-point and one-sided
  std::uint64_t mpi_bytes = 0;
};

class WireCounter final : public cid::rt::DeliveryInterceptor {
 public:
  explicit WireCounter(int nranks);
  cid::rt::DeliveryVerdict on_deliver(const cid::rt::Envelope& envelope,
                                      int dest_rank) override;
  WireTotals totals() const;

 private:
  // One slot per sending rank (plus one for unattributed senders): the
  // sender's fiber is the only writer, so the atomics never contend.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> envelopes{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> mpi_envelopes{0};
    std::atomic<std::uint64_t> mpi_bytes{0};
  };
  std::vector<Slot> slots_;
};

/// Host timing of one rt::run. Set-up runs from rt::run entry until the
/// first rank leaves the opening barrier; wall time from there to return.
/// A step's time is the median over ranks of each rank's own step: from
/// its end of the previous step (for step 0, its barrier release, or its
/// steps_begin() call when the program does set-up work of its own first)
/// to its end of this step. Ranks share the workers, so a rank's step spans
/// the whole world's progress through that step, and the median over
/// thousands of ranks is steady where the slowest rank is not.
struct PhaseTiming {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> step_ms;
};

class StepLog {
 public:
  StepLog(int nranks, int steps);
  void released(int rank) { released_[rank] = now_ns(); }
  void steps_begin(int rank) { begun_[rank] = now_ns(); }
  void step_done(int rank, int step) {
    ends_[static_cast<std::size_t>(step) * nranks_ + rank] = now_ns();
  }
  PhaseTiming timing(std::int64_t entry_ns, std::int64_t return_ns) const;

 private:
  int nranks_;
  int steps_;
  std::vector<std::int64_t> released_;
  std::vector<std::int64_t> begun_;
  std::vector<std::int64_t> ends_;
};

struct PhaseOutcome {
  PhaseTiming timing;
  cid::rt::RunResult run;
  WireTotals wire;
};

using PhaseBody = std::function<void(cid::rt::RankCtx&, StepLog&)>;

/// Run `body` on `nranks` ranks after an opening barrier, with wire counting
/// and the rt::run / barrier spans recorded on `tracer`.
PhaseOutcome run_phase(int nranks, int steps,
                       const cid::simnet::MachineModel& model, Tracer& tracer,
                       const PhaseBody& body);

/// Output checks: every expectation counts as attempted, a false one as
/// failed with its description kept for the report.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what);
};

/// What one repetition of a workload measured.
struct RepResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> step_ms;
  /// Deterministic counts; every repetition must reproduce them exactly.
  std::map<std::string, double> exact;
  /// Schedule-dependent layer readings (scheduler, arena).
  std::map<std::string, double> layer;
};

struct Options {
  std::uint64_t seed = 0;
  std::string trace_out;  ///< halo3d_recorded: where the runtime exports
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int nranks() const = 0;
  virtual RepResult rep(Tracer& tracer, std::uint32_t rep, Checks& checks) = 0;
  /// Once per run, after the repetitions: checks and layer values that
  /// need the whole run (driver cross-checks, trace-file validation).
  virtual void finish(Tracer& /*tracer*/, Checks& /*checks*/,
                      std::map<std::string, double>& /*layer*/) {}
};

std::unique_ptr<Workload> make_halo3d(const Options& options, bool recorded);
std::unique_ptr<Workload> make_shuffle(const Options& options);
std::unique_ptr<Workload> make_wllsms(const Options& options);

/// Layer readings of one finished rt::run shared by every workload: wire
/// counts, scheduler counters and virtual clocks.
void record_run(const PhaseOutcome& outcome, RepResult& result);

/// Exact double formatting for messages and pinned-value reports.
std::string exact_str(double value);

}  // namespace perfbench
