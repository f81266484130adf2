// halo3d_directive / halo3d_recorded: the embedded-directive 3-D halo of
// examples/halo3d — one comm_parameters region per step holding six
// comm_p2p with string clause expressions, let() bindings, max_comm_iter
// and an overlap block — at 1024 ranks for 10 steps. Host time here is the
// directive executor's per-call cost; matching uses exact keys only.
//
// The recorded variant is the same program with CID_TRACE_OUT set, so the
// runtime's own recorder runs and exports after every rt::run.
#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <source_location>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "core/core.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace_read.hpp"
#include "probe.hpp"

namespace perfbench {
namespace {

using namespace cid::core;

constexpr int kRanks = 1024;
constexpr int kSteps = 10;
constexpr int kSide = 6;
constexpr int kCells = kSide * kSide * kSide;
constexpr int kFace = kSide * kSide;

/// Virtual makespan of the 1024-rank, 10-step program on the Cray XK7 model
/// (seconds). Data values do not enter virtual time, so it holds for every
/// seed, worker count and recording setting.
constexpr double kPinnedMakespan = 0.00083995599999999956;

struct Dims {
  int px = 1, py = 1, pz = 1;
};

/// Near-cubic factorization, as in examples/halo3d.
Dims choose_dims(int nranks) {
  auto largest_divisor_at_most = [](int n, int cap) {
    for (int p = cap; p >= 1; --p) {
      if (n % p == 0) return p;
    }
    return 1;
  };
  Dims d;
  int cube = 1;
  while ((cube + 1) * (cube + 1) * (cube + 1) <= nranks) ++cube;
  d.px = largest_divisor_at_most(nranks, cube);
  const int rest = nranks / d.px;
  int square = 1;
  while ((square + 1) * (square + 1) <= rest) ++square;
  d.py = largest_divisor_at_most(rest, square);
  d.pz = rest / d.py;
  return d;
}

std::vector<double> initial_brick(std::uint64_t seed, int rank) {
  cid::Rng rng = cid::Rng::for_rank(seed, rank);
  std::vector<double> brick(kCells);
  for (double& v : brick) v = 1.0 + rank + rng.next_double();
  return brick;
}

void pack_faces(const std::vector<double>& brick,
                std::vector<double> (&out)[6]) {
  for (int face = 0; face < 6; ++face) {
    for (int i = 0; i < kFace; ++i) {
      out[face][i] = brick[(face * 37 + i) % kCells];
    }
  }
}

void relax(std::vector<double>& brick) {
  for (double& v : brick) v = 0.5 * v + 0.5;
}

/// Faces that have a neighbour, in the order +x -x +y -y +z -z.
std::array<bool, 6> neighbours(const Dims& d, int rank) {
  const int x = rank % d.px, y = (rank / d.px) % d.py, z = rank / (d.px * d.py);
  return {x < d.px - 1, x > 0, y < d.py - 1, y > 0, z < d.pz - 1, z > 0};
}

void fold(std::vector<double>& brick, const std::vector<double> (&in)[6],
          const std::array<bool, 6>& has) {
  for (int face = 0; face < 6; ++face) {
    if (!has[face]) continue;
    for (int i = 0; i < kFace; ++i) {
      brick[(face * 53 + i) % kCells] += 0.25 * in[face][i];
    }
  }
}

double brick_sum(const std::vector<double>& brick) {
  double sum = 0.0;
  for (double v : brick) sum += v;
  return sum;
}

/// The same computation on one thread with the exchange done by copying:
/// in[f] of a rank is out[f ^ 1] of its neighbour across face f.
std::vector<double> reference_sums(const Dims& d, std::uint64_t seed) {
  const int n = d.px * d.py * d.pz;
  const int offset[6] = {1, -1, d.px, -d.px, d.px * d.py, -d.px * d.py};
  std::vector<std::vector<double>> bricks(n);
  for (int r = 0; r < n; ++r) bricks[r] = initial_brick(seed, r);
  std::vector<std::vector<double>> outs(static_cast<std::size_t>(n) * 6,
                                        std::vector<double>(kFace));
  std::vector<double> in[6];
  for (auto& f : in) f.assign(kFace, 0.0);
  for (int it = 0; it < kSteps; ++it) {
    for (int r = 0; r < n; ++r) {
      std::vector<double> out[6];
      for (auto& f : out) f.resize(kFace);
      pack_faces(bricks[r], out);
      for (int f = 0; f < 6; ++f) outs[r * 6 + f] = std::move(out[f]);
      relax(bricks[r]);
    }
    for (int r = 0; r < n; ++r) {
      const auto has = neighbours(d, r);
      for (int f = 0; f < 6; ++f) {
        if (has[f]) in[f] = outs[(r + offset[f]) * 6 + (f ^ 1)];
      }
      fold(bricks[r], in, has);
    }
  }
  std::vector<double> sums(n);
  for (int r = 0; r < n; ++r) sums[r] = brick_sum(bricks[r]);
  return sums;
}

/// region.p2p with a span; `site` keeps each caller's own directive site.
void timed_p2p(Region& region, const Clauses& clauses, Tracer& tracer,
               int track, std::uint32_t step,
               const std::function<void()>& overlap = {},
               std::source_location site = std::source_location::current()) {
  Scope span(tracer, track, Call::kCommP2p, step);
  if (overlap) {
    region.p2p(clauses, overlap, site);
  } else {
    region.p2p(clauses, site);
  }
}

/// One step's exchange, exactly the region of examples/halo3d: six faces,
/// receiver() is whom a rank sends to and sender() whom it receives from;
/// the coordinate guards exclude the grid boundary.
void exchange(const Dims& dims, std::vector<double> (&out)[6],
              std::vector<double> (&in)[6], Tracer& tracer, int track,
              std::uint32_t step, const std::function<void()>& overlap) {
  Scope span(tracer, track, Call::kCommParameters, step);
  comm_parameters(
      Clauses()
          .count(kFace)
          .max_comm_iter(6)
          .let("px", dims.px)
          .let("py", dims.py)
          .let("pz", dims.pz)
          .let("pxy", dims.px * dims.py),
      [&](Region& region) {
        timed_p2p(region,
                  Clauses()
                      .receiver("rank+1")
                      .sendwhen("rank%px < px-1")
                      .sender("rank-1")
                      .receivewhen("rank%px > 0")
                      .sbuf(buf_n(out[0].data(), kFace, "xp_out"))
                      .rbuf(buf_n(in[1].data(), kFace, "xm_in")),
                  tracer, track, step);
        timed_p2p(region,
                  Clauses()
                      .receiver("rank-1")
                      .sendwhen("rank%px > 0")
                      .sender("rank+1")
                      .receivewhen("rank%px < px-1")
                      .sbuf(buf_n(out[1].data(), kFace, "xm_out"))
                      .rbuf(buf_n(in[0].data(), kFace, "xp_in")),
                  tracer, track, step);
        timed_p2p(region,
                  Clauses()
                      .receiver("rank+px")
                      .sendwhen("(rank/px)%py < py-1")
                      .sender("rank-px")
                      .receivewhen("(rank/px)%py > 0")
                      .sbuf(buf_n(out[2].data(), kFace, "yp_out"))
                      .rbuf(buf_n(in[3].data(), kFace, "ym_in")),
                  tracer, track, step);
        timed_p2p(region,
                  Clauses()
                      .receiver("rank-px")
                      .sendwhen("(rank/px)%py > 0")
                      .sender("rank+px")
                      .receivewhen("(rank/px)%py < py-1")
                      .sbuf(buf_n(out[3].data(), kFace, "ym_out"))
                      .rbuf(buf_n(in[2].data(), kFace, "yp_in")),
                  tracer, track, step);
        timed_p2p(region,
                  Clauses()
                      .receiver("rank+pxy")
                      .sendwhen("rank/pxy < pz-1")
                      .sender("rank-pxy")
                      .receivewhen("rank/pxy > 0")
                      .sbuf(buf_n(out[4].data(), kFace, "zp_out"))
                      .rbuf(buf_n(in[5].data(), kFace, "zm_in")),
                  tracer, track, step);
        // Overlap: relax the interior while the faces fly.
        timed_p2p(region,
                  Clauses()
                      .receiver("rank-pxy")
                      .sendwhen("rank/pxy > 0")
                      .sender("rank+pxy")
                      .receivewhen("rank/pxy < pz-1")
                      .sbuf(buf_n(out[5].data(), kFace, "zm_out"))
                      .rbuf(buf_n(in[4].data(), kFace, "zp_in")),
                  tracer, track, step, overlap);
      });
}

class Halo3d final : public Workload {
 public:
  Halo3d(const Options& options, bool recorded)
      : options_(options),
        recorded_(recorded),
        dims_(choose_dims(kRanks)),
        reference_(reference_sums(dims_, options.seed)) {}

  int nranks() const override { return kRanks; }

  RepResult rep(Tracer& tracer, std::uint32_t rep, Checks& checks) override {
    if (recorded_) cid::obs::clear();  // export only this repetition
    std::vector<double> sums(kRanks, 0.0);
    std::vector<CommStats> stats(kRanks);
    const Dims dims = dims_;
    const std::uint64_t seed = options_.seed;

    const PhaseOutcome outcome = run_phase(
        kRanks, kSteps, cid::simnet::MachineModel::cray_xk7_gemini(), tracer,
        [&](cid::rt::RankCtx& ctx, StepLog& log) {
          const int me = ctx.rank();
          const int track = Tracer::rank_track(me);
          const auto has = neighbours(dims, me);
          std::vector<double> brick = initial_brick(seed, me);
          std::vector<double> out[6], in[6];
          for (auto& f : out) f.assign(kFace, 0.0);
          for (auto& f : in) f.assign(kFace, 0.0);

          for (int it = 0; it < kSteps; ++it) {
            const auto step = static_cast<std::uint32_t>(it);
            Scope step_span(tracer, track, Call::kStep, step);
            pack_faces(brick, out);
            ctx.charge_compute(1e-7 * 6 * kFace);
            exchange(dims, out, in, tracer, track, step, [&] {
              Scope overlap_span(tracer, track, Call::kOverlap, step);
              relax(brick);
              ctx.charge_compute(1e-7 * kCells);
            });
            fold(brick, in, has);
            ctx.charge_compute(1e-7 * 6 * kFace);
            log.step_done(me, it);
          }
          sums[me] = brick_sum(brick);
          stats[me] = comm_stats();
        });

    RepResult result;
    record_run(outcome, result);
    CommStats total;
    for (const CommStats& s : stats) {
      total.p2p_directives += s.p2p_directives;
      total.collective_directives += s.collective_directives;
      total.regions += s.regions;
      total.waitalls += s.waitalls;
      total.requests_retired += s.requests_retired;
      total.datatypes_created += s.datatypes_created;
      total.datatype_cache_hits += s.datatype_cache_hits;
    }
    result.exact["core.directives"] = static_cast<double>(
        total.p2p_directives + total.collective_directives);
    result.exact["core.regions"] = static_cast<double>(total.regions);
    result.exact["core.waitalls"] = static_cast<double>(total.waitalls);
    result.exact["core.requests_retired"] =
        static_cast<double>(total.requests_retired);
    result.exact["core.datatype_hits"] =
        static_cast<double>(total.datatype_cache_hits);
    result.exact["core.datatypes_created"] =
        static_cast<double>(total.datatypes_created);

    bool data_ok = true;
    for (int r = 0; r < kRanks; ++r) data_ok = data_ok && sums[r] == reference_[r];
    checks.expect(data_ok, "halo3d rep " + std::to_string(rep) +
                               ": brick sums differ from the serial reference");
    const double makespan = outcome.run.makespan();
    checks.expect(makespan == kPinnedMakespan,
                  "halo3d rep " + std::to_string(rep) + ": virtual makespan " +
                      exact_str(makespan) + " != pinned " +
                      exact_str(kPinnedMakespan));
    last_envelopes_ = outcome.wire.envelopes;

    if (recorded_ && tracer.enabled()) {
      result.exact["obs.spans"] =
          static_cast<double>(cid::obs::spans().size());
      std::ostringstream json;
      {
        Scope span(tracer, Tracer::kHostTrack, Call::kObsExport);
        cid::obs::write_chrome_json(json);
      }
      result.layer["obs.trace_bytes"] = static_cast<double>(json.tellp());
    }
    return result;
  }

  void finish(Tracer& tracer, Checks& checks,
              std::map<std::string, double>& /*layer*/) override {
    if (!recorded_) return;
    // The runtime rewrote the export at the end of the last repetition.
    cid::Result<cid::obs::TraceFile> trace = [&] {
      Scope span(tracer, Tracer::kHostTrack, Call::kObsRead);
      return cid::obs::read_trace_file(options_.trace_out);
    }();
    checks.expect(trace.is_ok(), "halo3d_recorded: exported trace '" +
                                  options_.trace_out + "' does not parse");
    if (trace.is_ok()) {
      std::set<int> ranks;
      for (const auto& span : trace.value().spans) ranks.insert(span.rank);
      checks.expect(ranks.size() == static_cast<std::size_t>(kRanks) &&
                        *ranks.begin() == 0 && *ranks.rbegin() == kRanks - 1,
                    "halo3d_recorded: trace has " +
                        std::to_string(ranks.size()) + " rank tracks, not " +
                        std::to_string(kRanks));
    }
    // The registry's delivery counters must agree with the seam count.
    std::uint64_t delivered = 0;
    for (const auto& row : cid::obs::MetricsRegistry::global().counters()) {
      if (row.key.metric == "rt.deliver.messages") delivered += row.value;
    }
    checks.expect(delivered == last_envelopes_,
                  "halo3d_recorded: registry counts " +
                      std::to_string(delivered) + " deliveries, the seam " +
                      std::to_string(last_envelopes_));
  }

 private:
  Options options_;
  bool recorded_;
  Dims dims_;
  std::vector<double> reference_;
  std::uint64_t last_envelopes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_halo3d(const Options& options, bool recorded) {
  return std::make_unique<Halo3d>(options, recorded);
}

}  // namespace perfbench
