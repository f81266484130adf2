// wllsms_paper: the paper's application at its largest process count, 337
// ranks (one Wang-Landau rank + 16 LSMS instances of 21), on the calibrated
// Cray XK7/Gemini model. One repetition runs five SPMD programs:
//   - the Figure-3 single-atom distribution on hand-written MPI, on
//     TARGET_COMM_MPI_2SIDE and on TARGET_COMM_SHMEM;
//   - the Wang-Landau round trip (comm_p2p scatter, setEvec with overlap,
//     two MANY_TO_ONE comm_collectives per step) on both directive targets.
// The programs follow src/wllsms/driver.cpp line for line, written out here
// so the benchmark can time the layer calls inside them and keep the
// received data for checking. Once per run the drivers themselves run on the
// same inputs, and their virtual times must equal these programs' exactly.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <source_location>
#include <vector>

#include "common/rng.hpp"
#include "core/core.hpp"
#include "mpi/mpi.hpp"
#include "probe.hpp"
#include "shmem/shmem.hpp"
#include "wllsms/comm_directive.hpp"
#include "wllsms/comm_original.hpp"
#include "wllsms/driver.hpp"

namespace perfbench {
namespace {

using namespace cid::core;
using cid::wllsms::Variant;

constexpr int kRanks = 337;
constexpr std::size_t kHeapBytes = std::size_t{128} << 10;

/// Final Wang-Landau energy of the round trip. The core-state kernel does
/// not read the spins, so the value holds for every seed and target.
constexpr double kPinnedEnergy = 1785.9262281260167;

const cid::wllsms::ExperimentConfig kBase;
const cid::wllsms::Topology kTopo{kRanks, kBase.num_lsms};

/// driver.cpp's make_spins: the spin set of one WL step.
std::vector<double> make_spins(int natoms, std::uint64_t seed, int step) {
  cid::Rng rng(seed ^ (0xabcdULL + static_cast<std::uint64_t>(step) * 77));
  std::vector<double> ev(3 * static_cast<std::size_t>(natoms));
  for (double& v : ev) v = rng.next_double() * 2.0 - 1.0;
  return ev;
}

const char* short_name(Variant variant) {
  switch (variant) {
    case Variant::Original: return "original";
    case Variant::DirectiveMpi: return "mpi2side";
    case Variant::DirectiveShmem: return "shmem";
    default: return "?";
  }
}

Target target_of(Variant variant) {
  return variant == Variant::DirectiveShmem ? Target::Shmem : Target::Mpi2Side;
}

void timed_p2p(const Clauses& clauses, Tracer& tracer, int track,
               std::uint32_t step,
               std::source_location site = std::source_location::current()) {
  Scope span(tracer, track, Call::kCommP2p, step);
  comm_p2p(clauses, site);
}

void timed_collective(
    const Clauses& clauses, Tracer& tracer, int track, std::uint32_t step,
    std::source_location site = std::source_location::current()) {
  Scope span(tracer, track, Call::kCommCollective, step);
  comm_collective(clauses, site);
}

template <typename T>
T* timed_malloc(std::size_t count, Tracer& tracer, int track) {
  Scope span(tracer, track, Call::kShmemMalloc);
  return cid::shmem::malloc_of<T>(count);
}

/// A received atom, kept for checking after the run.
struct Received {
  int atom_id = 0;
  cid::wllsms::AtomData atom;
};

/// Byte equality of the payload window: Listing 4's receiver keeps any
/// larger allocation it already had, so only the sent rows are compared.
template <typename T>
bool window_equal(const cid::Matrix<T>& got, const cid::Matrix<T>& want) {
  if (got.n_row() < want.n_row()) return false;
  for (std::size_t c = 0; c < 2; ++c) {
    if (std::memcmp(&got(0, c), &want(0, c), want.n_row() * sizeof(T)) != 0) {
      return false;
    }
  }
  return true;
}

bool atom_equal(const cid::wllsms::AtomData& got,
                const cid::wllsms::AtomData& want) {
  return got.scalars == want.scalars &&
         window_equal(got.vr, want.vr) && window_equal(got.rhotot, want.rhotot) &&
         window_equal(got.ec, want.ec) && window_equal(got.nc, want.nc) &&
         window_equal(got.lc, want.lc) && window_equal(got.kc, want.kc);
}

/// Sum of the rank-local directive counters over every rank of one run.
void add_stats(const std::vector<CommStats>& stats, RepResult& result) {
  CommStats t;
  for (const CommStats& s : stats) {
    t.p2p_directives += s.p2p_directives;
    t.collective_directives += s.collective_directives;
    t.regions += s.regions;
    t.waitalls += s.waitalls;
    t.requests_retired += s.requests_retired;
    t.datatypes_created += s.datatypes_created;
    t.datatype_cache_hits += s.datatype_cache_hits;
    t.shmem_puts += s.shmem_puts;
    t.shmem_bytes += s.shmem_bytes;
    t.shmem_quiets += s.shmem_quiets;
  }
  auto& e = result.exact;
  e["core.directives"] += static_cast<double>(t.p2p_directives +
                                              t.collective_directives);
  e["core.regions"] += static_cast<double>(t.regions);
  e["core.waitalls"] += static_cast<double>(t.waitalls);
  e["core.requests_retired"] += static_cast<double>(t.requests_retired);
  e["core.datatypes_created"] += static_cast<double>(t.datatypes_created);
  e["core.datatype_hits"] += static_cast<double>(t.datatype_cache_hits);
  e["shmem.puts"] += static_cast<double>(t.shmem_puts);
  e["shmem.bytes"] += static_cast<double>(t.shmem_bytes);
  e["shmem.quiets"] += static_cast<double>(t.shmem_quiets);
  // Puts bypass the delivery seam; they are wire traffic all the same.
  e["wire_messages"] += static_cast<double>(t.shmem_puts);
  e["wire_bytes"] += static_cast<double>(t.shmem_bytes);
}

class Wllsms final : public Workload {
 public:
  explicit Wllsms(const Options& options) : seed_(options.seed) {
    // Sized to the programs' needs (a staged atom is about 36 KiB), as a
    // SHMEM job sizes its symmetric heap. The default MiB per PE would
    // make zero-filling 337 MiB per program the noisiest part of the run.
    cid::shmem::SymmetricHeap::set_default_capacity(kHeapBytes);
  }

  int nranks() const override { return kRanks; }

  RepResult rep(Tracer& tracer, std::uint32_t rep, Checks& checks) override {
    RepResult result;
    const std::string tag = "wllsms rep " + std::to_string(rep) + ": ";
    double fig3_wall[3] = {0.0, 0.0, 0.0};
    int index = 0;
    for (Variant variant :
         {Variant::Original, Variant::DirectiveMpi, Variant::DirectiveShmem}) {
      std::vector<std::vector<Received>> received(kRanks);
      const PhaseOutcome outcome = fig3(variant, tracer, received, result);
      std::size_t atoms = 0;
      bool equal = true;
      for (const auto& per_rank : received) {
        for (const Received& r : per_rank) {
          ++atoms;
          equal = equal &&
                  atom_equal(r.atom, cid::wllsms::make_atom(r.atom_id, seed_));
        }
      }
      checks.expect(equal && atoms == expected_atoms(),
                    tag + "Figure-3 " + short_name(variant) + " delivered " +
                        std::to_string(atoms) +
                        " atoms, not all equal to make_atom");
      fig3_vt_[index] = outcome.run.makespan() -
                        kBase.model.barrier_cost(kRanks);
      fig3_wall[index++] = outcome.timing.wall_s;
    }
    result.layer["core.host_ratio_vs_original"] = fig3_wall[1] / fig3_wall[0];

    index = 0;
    for (Target target : {Target::Mpi2Side, Target::Shmem}) {
      double energy = 0.0;
      const PhaseOutcome outcome = roundtrip(target, tracer, energy, result);
      roundtrip_vt_[index] =
          outcome.run.makespan() - kBase.model.barrier_cost(kRanks);
      energy_[index++] = energy;
    }
    checks.expect(energy_[0] == energy_[1] && energy_[0] == kPinnedEnergy,
                  tag + "WL energy " + exact_str(energy_[0]) + " (mpi2side), " +
                      exact_str(energy_[1]) + " (shmem), pinned " +
                      exact_str(kPinnedEnergy));
    return result;
  }

  void finish(Tracer& tracer, Checks& checks,
              std::map<std::string, double>& layer) override {
    cid::wllsms::ExperimentConfig config;
    config.nprocs = kRanks;
    config.seed = seed_;
    int index = 0;
    for (Variant variant :
         {Variant::Original, Variant::DirectiveMpi, Variant::DirectiveShmem}) {
      double vt = 0.0;
      {
        Scope span(tracer, Tracer::kHostTrack, Call::kWllsmsDriver);
        vt = cid::wllsms::run_single_atom_distribution(config, variant);
      }
      layer[std::string("vt.fig3_") + short_name(variant) + "_us"] = vt * 1e6;
      checks.expect(vt == fig3_vt_[index],
                    std::string("wllsms: run_single_atom_distribution(") +
                        short_name(variant) + ") = " + exact_str(vt) +
                        ", benchmark phase " + exact_str(fig3_vt_[index]));
      ++index;
    }
    index = 0;
    for (Target target : {Target::Mpi2Side, Target::Shmem}) {
      const char* name = target == Target::Shmem ? "shmem" : "mpi2side";
      double energy = 0.0;
      double vt = 0.0;
      {
        Scope span(tracer, Tracer::kHostTrack, Call::kWllsmsDriver);
        vt = cid::wllsms::run_wl_roundtrip(config, target, &energy);
      }
      layer[std::string("vt.roundtrip_") + name + "_us"] = vt * 1e6;
      checks.expect(vt == roundtrip_vt_[index] && energy == energy_[index],
                    std::string("wllsms: run_wl_roundtrip(") + name + ") = " +
                        exact_str(vt) + " / energy " + exact_str(energy) +
                        ", benchmark phase " + exact_str(roundtrip_vt_[index]) +
                        " / " + exact_str(energy_[index]));
      ++index;
    }
  }

 private:
  static std::size_t expected_atoms() {
    const int k = kTopo.ranks_per_lsms();
    std::size_t per_liz = 0;
    for (int a = 0; a < kBase.natoms; ++a) per_liz += a % k != 0 ? 1 : 0;
    return per_liz * static_cast<std::size_t>(kBase.num_lsms);
  }

  /// driver.cpp's run_single_atom_distribution, keeping what each owner
  /// receives.
  PhaseOutcome fig3(Variant variant, Tracer& tracer,
                    std::vector<std::vector<Received>>& received,
                    RepResult& result) {
    std::size_t max_pot = 0;
    std::size_t max_core = 0;
    for (int a = 0; a < kBase.natoms; ++a) {
      max_pot = std::max(max_pot, 2 * cid::wllsms::atom_potential_rows(a));
      max_core = std::max(max_core, 2 * cid::wllsms::atom_core_rows(a));
    }
    std::vector<CommStats> stats(kRanks);
    const std::uint64_t seed = seed_;

    const PhaseOutcome outcome = run_phase(
        kRanks, 0, kBase.model, tracer,
        [&](cid::rt::RankCtx& ctx, StepLog&) {
          const int me = ctx.rank();
          const int track = Tracer::rank_track(me);
          const int inst = kTopo.lsms_of(me);
          const int k = kTopo.ranks_per_lsms();
          Scope step_span(tracer, track, Call::kStep);

          if (variant == Variant::Original) {
            if (inst >= 0) {
              auto world = cid::mpi::Comm::world();
              const auto members = kTopo.lsms_members(inst);
              for (int a = 0; a < kBase.natoms; ++a) {
                const int owner_index = a % k;
                if (owner_index == 0) continue;
                const int from = members[0];
                const int to = members[static_cast<std::size_t>(owner_index)];
                if (me == from) {
                  cid::wllsms::AtomData atom = cid::wllsms::make_atom(a, seed);
                  Scope span(tracer, track, Call::kWllsmsTransferAtom);
                  cid::wllsms::transfer_atom_original(world, from, to, atom);
                } else if (me == to) {
                  cid::wllsms::AtomData atom;
                  atom.resize_potential(64);
                  atom.resize_core(4);
                  {
                    Scope span(tracer, track, Call::kWllsmsTransferAtom);
                    cid::wllsms::transfer_atom_original(world, from, to, atom);
                  }
                  received[me].push_back({a, std::move(atom)});
                }
              }
            }
          } else {
            cid::wllsms::AtomStage stage =
                cid::wllsms::make_symmetric_stage(max_pot, max_core);
            if (inst >= 0) {
              const auto members = kTopo.lsms_members(inst);
              for (int a = 0; a < kBase.natoms; ++a) {
                const int owner_index = a % k;
                if (owner_index == 0) continue;
                const int from = members[0];
                const int to = members[static_cast<std::size_t>(owner_index)];
                if (me == from) {
                  cid::wllsms::load_stage(cid::wllsms::make_atom(a, seed),
                                          stage);
                } else {
                  stage.potential_count =
                      2 * cid::wllsms::atom_potential_rows(a);
                  stage.core_count = 2 * cid::wllsms::atom_core_rows(a);
                }
                {
                  Scope span(tracer, track, Call::kWllsmsTransferAtom);
                  cid::wllsms::transfer_atom_directive(from, to, stage,
                                                       target_of(variant));
                }
                if (me == to) {
                  cid::wllsms::AtomData atom;
                  cid::wllsms::unload_stage(stage, atom);
                  received[me].push_back({a, std::move(atom)});
                }
              }
            }
          }
          stats[me] = comm_stats();
        });
    record_run(outcome, result);
    add_stats(stats, result);
    return outcome;
  }

  /// driver.cpp's run_wl_roundtrip; one program step is one WL step.
  PhaseOutcome roundtrip(Target target, Tracer& tracer, double& energy_out,
                         RepResult& result) {
    const int k = kTopo.ranks_per_lsms();
    const int natoms = kBase.natoms;
    const int num_lsms = kBase.num_lsms;
    const std::uint64_t seed = seed_;
    std::vector<CommStats> stats(kRanks);
    double wl_energy = 0.0;

    const PhaseOutcome outcome = run_phase(
        kRanks, kBase.wl_steps, kBase.model, tracer,
        [&](cid::rt::RankCtx& ctx, StepLog& log) {
          const int me = ctx.rank();
          const int track = Tracer::rank_track(me);
          const int inst = kTopo.lsms_of(me);
          const std::size_t spin_elems = 3 * static_cast<std::size_t>(natoms);

          double* spin_stage = timed_malloc<double>(spin_elems, tracer, track);
          double* local_evec = timed_malloc<double>(spin_elems, tracer, track);
          double* member_energies =
              timed_malloc<double>(static_cast<std::size_t>(k), tracer, track);
          double* wl_slots = timed_malloc<double>(
              static_cast<std::size_t>(num_lsms) + 1, tracer, track);
          double my_energy[1] = {0.0};
          double liz_total[1] = {0.0};
          {
            Scope span(tracer, track, Call::kRtBarrier);
            ctx.barrier();
          }
          log.steps_begin(me);

          double accumulated = 0.0;
          for (int s = 0; s < kBase.wl_steps; ++s) {
            const auto step = static_cast<std::uint32_t>(s);
            Scope step_span(tracer, track, Call::kStep, step);
            std::vector<double> ev;
            if (me == 0) ev = make_spins(natoms, seed, s);
            const double* ev_base = me == 0 ? ev.data() : spin_stage;
            for (int i = 0; i < num_lsms; ++i) {
              const int priv = kTopo.lsms_members(i)[0];
              timed_p2p(
                  Clauses()
                      .sender(0)
                      .receiver(priv)
                      .sendwhen([me]() -> ExprValue { return me == 0; })
                      .receivewhen(
                          [me, priv]() -> ExprValue { return me == priv; })
                      .count(static_cast<ExprValue>(spin_elems))
                      .target(target)
                      .sbuf(buf_n(const_cast<double*>(ev_base), spin_elems,
                                  "ev"))
                      .rbuf(buf_n(spin_stage, spin_elems, "spin_stage")),
                  tracer, track, step);
            }

            my_energy[0] = 0.0;
            if (inst >= 0) {
              const auto members = kTopo.lsms_members(inst);
              std::vector<double> liz_ev;
              if (me == members[0]) {
                liz_ev.assign(spin_stage, spin_stage + spin_elems);
              }
              Scope span(tracer, track, Call::kWllsmsSetEvec, step);
              cid::wllsms::set_evec_directive(
                  members, liz_ev, natoms, local_evec, target, [&](int type) {
                    Scope overlap(tracer, track, Call::kOverlap, step);
                    my_energy[0] += cid::wllsms::calculate_core_states(
                        ctx, kBase.compute, type);
                  });
            }

            timed_collective(
                Clauses()
                    .pattern(Pattern::ManyToOne)
                    .root(0)
                    .group([inst]() -> ExprValue { return inst; })
                    .count(1)
                    .target(target)
                    .sbuf(buf(my_energy))
                    .rbuf(buf_n(member_energies, static_cast<std::size_t>(k))),
                tracer, track, step);
            liz_total[0] = 0.0;
            if (inst >= 0 && me == kTopo.lsms_members(inst)[0]) {
              for (int m = 0; m < k; ++m) liz_total[0] += member_energies[m];
            }

            timed_collective(
                Clauses()
                    .pattern(Pattern::ManyToOne)
                    .root(0)
                    .group([&]() -> ExprValue {
                      if (me == 0) return 0;
                      return inst >= 0 && me == kTopo.lsms_members(inst)[0]
                                 ? 0
                                 : -1;
                    })
                    .count(1)
                    .target(target)
                    .sbuf(buf(liz_total))
                    .rbuf(buf_n(wl_slots,
                                static_cast<std::size_t>(num_lsms) + 1)),
                tracer, track, step);
            if (me == 0) {
              for (int i = 1; i <= num_lsms; ++i) accumulated += wl_slots[i];
            }
            log.step_done(me, s);
          }
          if (me == 0) wl_energy = accumulated;
          stats[me] = comm_stats();
        });
    record_run(outcome, result);
    add_stats(stats, result);
    energy_out = wl_energy;
    return outcome;
  }

  std::uint64_t seed_;
  double fig3_vt_[3] = {0.0, 0.0, 0.0};
  double roundtrip_vt_[2] = {0.0, 0.0};
  double energy_[2] = {0.0, 0.0};
};

}  // namespace

std::unique_ptr<Workload> make_wllsms(const Options& options) {
  return std::make_unique<Wllsms>(options);
}

}  // namespace perfbench
