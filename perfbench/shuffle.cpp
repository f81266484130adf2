// shuffle_wildcard: the capped-fan-out all-to-all of examples/shuffle in raw
// miniMPI, repeated for several rounds. Every receive is posted with
// kAnySource, the form translator output lowers to, so host time goes to
// the wildcard matching residual; the directive layer is never entered.
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "mpi/mpi.hpp"
#include "probe.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 256;
constexpr int kRounds = 8;
constexpr int kFanout = 64;
constexpr int kRecords = 4;

/// Peer k of `rank` in a round: a fixed arithmetic spread over the ring,
/// shifted by the round's seeded offset. For fixed (k, offset) it is a
/// bijection of `rank`, so exactly one wildcard receive per tag is exact.
int peer_of(int rank, int k, int offset) {
  const int stride = kRanks / (kFanout + 1);
  return (rank + (k + 1) * stride + k + offset) % kRanks;
}

int sender_of(int rank, int k, int offset) {
  const int stride = kRanks / (kFanout + 1);
  const long long back = static_cast<long long>(k + 1) * stride + k + offset;
  return static_cast<int>(((rank - back) % kRanks + kRanks) % kRanks);
}

/// The value rank `sender` writes into record i of its message with tag k.
double record_value(int sender, int k, int i, int round) {
  return static_cast<double>(
      ((static_cast<long long>(sender) * kFanout + k) * kRecords + i) *
          kRounds +
      round);
}

class Shuffle final : public Workload {
 public:
  explicit Shuffle(const Options& options) {
    cid::Rng rng(options.seed);
    for (int r = 0; r < kRounds; ++r) {
      offsets_.push_back(static_cast<int>(rng.next_below(kRanks)));
    }
  }

  int nranks() const override { return kRanks; }

  RepResult rep(Tracer& tracer, std::uint32_t rep, Checks& checks) override {
    namespace mpi = cid::mpi;
    std::vector<std::uint64_t> bad(kRanks, 0);
    const std::vector<int>& offsets = offsets_;

    const PhaseOutcome outcome = run_phase(
        kRanks, kRounds, cid::simnet::MachineModel::cray_xk7_gemini(), tracer,
        [&](cid::rt::RankCtx& ctx, StepLog& log) {
          const int me = ctx.rank();
          const int track = Tracer::rank_track(me);
          auto world = mpi::Comm::world();
          std::vector<double> outbox(kFanout * kRecords);
          std::vector<double> inbox(outbox.size());
          std::vector<mpi::Request> reqs;
          reqs.reserve(2 * kFanout);

          for (int round = 0; round < kRounds; ++round) {
            const auto step = static_cast<std::uint32_t>(round);
            Scope step_span(tracer, track, Call::kStep, step);
            for (int k = 0; k < kFanout; ++k) {
              for (int i = 0; i < kRecords; ++i) {
                outbox[k * kRecords + i] = record_value(me, k, i, round);
              }
            }
            // Tags are unique per round: a rank may run a round ahead of
            // a peer, and a wildcard receive must not take that message.
            reqs.clear();
            for (int k = 0; k < kFanout; ++k) {
              Scope span(tracer, track, Call::kMpiIrecv, step);
              reqs.push_back(mpi::irecv(world, &inbox[k * kRecords], kRecords,
                                        mpi::kAnySource,
                                        round * kFanout + k));
            }
            for (int k = 0; k < kFanout; ++k) {
              Scope span(tracer, track, Call::kMpiIsend, step);
              reqs.push_back(mpi::isend(world, &outbox[k * kRecords], kRecords,
                                        peer_of(me, k, offsets[round]),
                                        round * kFanout + k));
            }
            {
              Scope span(tracer, track, Call::kMpiWaitall, step);
              mpi::waitall(reqs);
            }
            ctx.charge_compute(2e-8 * inbox.size());
            for (int k = 0; k < kFanout; ++k) {
              const int sender = sender_of(me, k, offsets[round]);
              for (int i = 0; i < kRecords; ++i) {
                if (inbox[k * kRecords + i] !=
                    record_value(sender, k, i, round)) {
                  ++bad[me];
                }
              }
            }
            log.step_done(me, round);
          }
        });

    RepResult result;
    record_run(outcome, result);
    std::uint64_t bad_slots = 0;
    for (std::uint64_t b : bad) bad_slots += b;
    checks.expect(bad_slots == 0,
                  "shuffle rep " + std::to_string(rep) + ": " +
                      std::to_string(bad_slots) +
                      " inbox slots hold a value their sender did not write");
    return result;
  }

 private:
  std::vector<int> offsets_;
};

}  // namespace

std::unique_ptr<Workload> make_shuffle(const Options& options) {
  return std::make_unique<Shuffle>(options);
}

}  // namespace perfbench
