// The one synchronization-placement model (paper Section III-A, place_sync).
// Three consumers drive a SyncPlan, so they agree on where every transfer's
// sync lands: the directive executor (Batch = PendingOps; translated code
// runs it), the analyzer (the buffers in flight) and the schedule-space
// explorer (one plan per explored rank). Batches:
//   open           posted since the last landing, at any nesting depth;
//   at_next_begin  deferred by BEGIN_NEXT_PARAM_REGION;
//   at_series_end  deferred by END_ADJ_PARAM_REGIONS.
// A region's begin lands at_next_begin. Its end follows its OWN place_sync
// (never inherited; END_PARAM_REGION when absent): END_PARAM_REGION lands
// at_series_end then open, the other two move open into their batch.
// Landing hands a non-empty batch to a callback that must leave it empty.
// Before a transfer posts, land_touching lands each in-flight batch it
// touches. Consumers land the open batch after a standalone transfer and
// before a comm_collective; the static ones walk via translate/walk.hpp.
#pragma once

#include <iterator>
#include <utility>

#include "core/clauses.hpp"

namespace cid::core {

/// Batch: empty() and merge_from(Batch&&), or a container of entries.
template <typename Batch>
class SyncPlan {
 public:
  /// The batch new transfers join.
  Batch& open() noexcept { return open_; }

  template <typename Land>
  void begin_region(Land&& land) {
    land_if_any(at_next_begin_, land);
  }

  template <typename Land>
  void end_region(SyncPlacement placement, Land&& land) {
    switch (placement) {
      case SyncPlacement::EndParamRegion:
        land_if_any(at_series_end_, land);
        land_if_any(open_, land);
        return;
      case SyncPlacement::BeginNextParamRegion:
        defer_into(at_next_begin_);
        return;
      case SyncPlacement::EndAdjParamRegions:
        defer_into(at_series_end_);
        return;
    }
  }

  /// The adjacency rule (Section III-A): before a transfer posts, land each
  /// in-flight batch it touches, empty or not. Here `land` may keep what
  /// only the batch's own landing completes (the executor's window fences).
  template <typename Touches, typename Land>
  void land_touching(Touches&& touches, Land&& land) {
    for_each_in_flight([&](Batch& batch) {
      if (touches(batch)) land(batch);
    });
  }

  /// comm_flush: land everything.
  template <typename Land>
  void flush_all(Land&& land) {
    land_if_any(at_next_begin_, land);
    land_if_any(at_series_end_, land);
    land_if_any(open_, land);
  }

  template <typename Visit>
  void for_each_in_flight(Visit&& visit) {
    visit(open_);
    for_each_deferred(visit);
  }

  /// The batches a place_sync moved past their region.
  template <typename Visit>
  void for_each_deferred(Visit&& visit) {
    visit(at_next_begin_);
    visit(at_series_end_);
  }

 private:
  template <typename Land>
  static void land_if_any(Batch& batch, Land& land) {
    if (!batch.empty()) land(batch);
  }

  void defer_into(Batch& batch) {
    if (open_.empty()) return;
    if constexpr (requires { batch.merge_from(std::move(open_)); }) {
      batch.merge_from(std::move(open_));
    } else {
      batch.insert(batch.end(), std::make_move_iterator(open_.begin()),
                   std::make_move_iterator(open_.end()));
      open_.clear();
    }
  }

  Batch open_;
  Batch at_next_begin_;
  Batch at_series_end_;
};

}  // namespace cid::core
