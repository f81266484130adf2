#include "core/exec_state.hpp"

#include <cstring>
#include <iterator>

#include "core/intern.hpp"
#include "core/reliability.hpp"
#include "core/trace.hpp"
#include "obs/obs.hpp"
#include "rt/agg.hpp"
#include "shmem/shmem.hpp"

namespace cid::core::detail {

SiteId SiteId::of(const std::source_location& location) {
  // Never destroyed: ids are shared by every rank and thread for the life
  // of the process, and their names outlive any run that records them.
  static auto& sites = *new InternTable<Entry>(SIZE_MAX);
  // Keyed on the file name's content, not its pointer: one header's sites
  // seen from two translation units are one site.
  const std::string_view file = location.file_name();
  const std::uint_least32_t line = location.line();
  const std::size_t hash = hash_of(file, line);
  return SiteId(sites.intern(
      hash,
      [&](const Entry& entry) {
        return entry.line == line && entry.file == file;
      },
      [&] {
        return Entry{hash, std::string(file), line,
                     std::string(file) + ":" + std::to_string(line)};
      }));
}

std::string_view SiteId::name() const noexcept {
  return entry_ != nullptr ? std::string_view(entry_->name)
                           : std::string_view();
}

Env make_env(const ClauseView& clauses) {
  Env env;
  auto& ctx = rt::current_ctx();
  env.bind("rank", ctx.rank());
  env.bind("nprocs", ctx.nranks());
  clauses.bind_lets(env);
  return env;
}

ExprValue eval_clause(const ClauseExpr& clause, const Env& env,
                      const char* what) {
  auto value = clause.eval(env);
  CID_REQUIRE(value.is_ok(), ErrorCode::InvalidClause,
              std::string(what) + " clause: " + value.status().to_string());
  return value.value();
}

std::size_t eval_count(const ClauseExpr& count, const Env& env) {
  const ExprValue value = eval_clause(count, env, "count");
  CID_REQUIRE(value > 0, ErrorCode::InvalidClause,
              "count clause must evaluate to a positive value, got " +
                  std::to_string(value));
  return static_cast<std::size_t>(value);
}

void PendingOps::merge_from(PendingOps&& other) {
  mpi_requests.insert(mpi_requests.end(), other.mpi_requests.begin(),
                      other.mpi_requests.end());
  reliable_sends.insert(reliable_sends.end(),
                        std::make_move_iterator(other.reliable_sends.begin()),
                        std::make_move_iterator(other.reliable_sends.end()));
  reliable_recvs.insert(reliable_recvs.end(),
                        std::make_move_iterator(other.reliable_recvs.begin()),
                        std::make_move_iterator(other.reliable_recvs.end()));
  shmem_expects.insert(shmem_expects.end(), other.shmem_expects.begin(),
                       other.shmem_expects.end());
  shmem_flag_updates.insert(shmem_flag_updates.end(),
                            other.shmem_flag_updates.begin(),
                            other.shmem_flag_updates.end());
  shmem_quiet_needed = shmem_quiet_needed || other.shmem_quiet_needed;
  windows_to_fence.insert(windows_to_fence.end(),
                          other.windows_to_fence.begin(),
                          other.windows_to_fence.end());
  ranges.insert(ranges.end(), other.ranges.begin(), other.ranges.end());
  for (auto& [dest, wire] : other.agg_buffers) {
    rt::agg::merge(agg_buffers[dest], wire);
  }
  flat_scatters.insert(flat_scatters.end(),
                       std::make_move_iterator(other.flat_scatters.begin()),
                       std::make_move_iterator(other.flat_scatters.end()));
  other = PendingOps{};
}

namespace {

/// One combined envelope for `dest`: injection is charged once for the whole
/// batch (one send overhead, one per-message gap per sub-message, the wire
/// bytes through the injection pipe) — the consolidation aggregation buys.
void inject_one_aggregate(rt::RankCtx& ctx, int dest,
                          std::vector<std::byte>&& wire) {
  const auto& costs = ctx.model().mpi_two_sided;
  const simnet::Injection sent =
      costs.inject(ctx.clock().now(), wire.size(), costs.send_overhead,
                   rt::agg::count(wire));
  ctx.charge_compute(sent.busy);
  rt::Envelope envelope;
  envelope.src = ctx.rank();
  envelope.tag = 0;
  envelope.channel = rt::Channel::Internal;
  envelope.context = rt::agg::kContext;
  envelope.available_at = sent.delivery;
  envelope.payload = rt::Payload(std::move(wire));
  ctx.world().deliver(dest, std::move(envelope));
}

}  // namespace

void inject_aggregates(PendingOps& ops) {
  if (ops.agg_buffers.empty()) return;
  auto& ctx = rt::current_ctx();
  for (auto& [dest, wire] : ops.agg_buffers) {
    inject_one_aggregate(ctx, dest, std::move(wire));
  }
  ops.agg_buffers.clear();
}

void inject_aggregate_for(PendingOps& ops, int dest) {
  auto it = ops.agg_buffers.find(dest);
  if (it == ops.agg_buffers.end()) return;
  inject_one_aggregate(rt::current_ctx(), dest, std::move(it->second));
  ops.agg_buffers.erase(it);
}

void apply_flat_scatters(PendingOps& ops) {
  if (ops.flat_scatters.empty()) return;
  auto& ctx = rt::current_ctx();
  for (const FlatScatter& fs : ops.flat_scatters) {
    const std::size_t extent = fs.dtype.extent();
    const auto* src = fs.staging.data();
    auto* dst = static_cast<std::byte*>(fs.rbuf);
    for (std::size_t e = 0; e < fs.count; ++e) {
      for (const mpi::PackRun& run : fs.dtype.pack_plan()) {
        std::memcpy(dst + e * extent + run.offset,
                    src + e * extent + run.offset, run.bytes);
      }
    }
    // Same layout-walk charge the engine's scatter would have applied.
    ctx.charge_compute(ctx.model().host.layout_walk_time(
        fs.dtype.payload_size() * fs.count, fs.dtype.is_contiguous()));
  }
  ops.flat_scatters.clear();
}

ExecState& ExecState::mine() {
  // Rank-local, not thread-local: under the pooled scheduler many ranks
  // share (and migrate between) worker threads, so the executor state lives
  // in the RankCtx and dies with the run.
  static constexpr char kKey = 0;
  auto& ctx = rt::current_ctx();
  auto& slot = ctx.local_slot(&kKey);
  auto* state = static_cast<ExecState*>(slot.get());
  if (state == nullptr) {
    auto fresh = std::make_shared<ExecState>();
    fresh->world_ = &ctx.world();
    state = fresh.get();
    slot = std::move(fresh);
  }
  return *state;
}

mpi::Datatype ExecState::datatype_for(const BufferRef& buffer) {
  if (!buffer.is_composite()) return mpi::Datatype::basic(buffer.basic);
  const TypeLayout& layout = *buffer.layout;
  auto it = datatype_cache.find(&layout);
  if (it != datatype_cache.end()) {
    ++stats.datatype_cache_hits;
    return it->second;
  }
  ++stats.datatypes_created;

  auto& ctx = rt::current_ctx();
  const auto& host = ctx.model().host;
  ctx.charge_compute(host.type_create_base +
                     host.type_create_per_field *
                         static_cast<simnet::SimTime>(layout.fields.size()));
  auto datatype = layout.to_datatype();
  CID_REQUIRE(datatype.is_ok(), ErrorCode::TypeError,
              datatype.status().to_string());
  auto [inserted, _] =
      datatype_cache.emplace(&layout, std::move(datatype).take());
  return inserted->second;
}

void ExecState::flush(PendingOps& ops) {
  const bool trace = obs::enabled() && !ops.empty();
  simnet::SimTime trace_begin = 0.0;
  if (trace) trace_begin = rt::current_ctx().clock().now();
  complete_local(ops);
  for (auto& window : ops.windows_to_fence) {
    ++stats.window_fences;
    window.fence();
  }
  ops.windows_to_fence.clear();
  if (trace) {
    auto& ctx = rt::current_ctx();
    record_trace_event({TraceEventKind::Synchronization, ctx.rank(),
                        trace_begin, ctx.clock().now(), "flush", 0, 0});
  }
}

void ExecState::complete_local(PendingOps& ops) {
  // Batched sends go out before anything waits: the waitall below may block
  // on receives whose messages ride in these aggregates.
  inject_aggregates(ops);
  if (!ops.reliable_sends.empty() || !ops.reliable_recvs.empty()) {
    run_reliable_epoch(*this, ops);
  }
  if (!ops.mpi_requests.empty()) {
    ++stats.waitalls;
    stats.requests_retired += ops.mpi_requests.size();
    mpi::waitall(ops.mpi_requests);
    ops.mpi_requests.clear();
    // Flushed persistent slots are complete and restartable.
    ++slot_epoch;
  }
  apply_flat_scatters(ops);
  if (!ops.shmem_flag_updates.empty()) {
    // One fence orders every data put of the epoch before the flag
    // updates; one flag put per (site, destination) carries the cumulative
    // message count — the consolidated synchronization of Section III-A.
    shmem::fence();
    const int self = rt::current_ctx().rank();
    for (const auto& update : ops.shmem_flag_updates) {
      shmem::put_value64(&update.site->flags[self],
                         update.site->sent_to.at(update.dest), update.dest);
    }
    ops.shmem_flag_updates.clear();
  }
  for (const auto& expect : ops.shmem_expects) {
    shmem::wait_until(expect.flag, shmem::Cmp::Ge, expect.expected);
  }
  ops.shmem_expects.clear();
  if (ops.shmem_quiet_needed) {
    ++stats.shmem_quiets;
    shmem::quiet();
    ops.shmem_quiet_needed = false;
  }
  ops.ranges.clear();
}

}  // namespace cid::core::detail
