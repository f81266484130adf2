// The one static walk of the directive tree, run by the analyzer and the
// explorer: one core::SyncPlan landed where the executor lands it, and a
// directive nested in a transfer's body run after that transfer posts, as
// in the executor's overlap lambda. Effects see each node with its merged
// clauses: Batch; region(node, merged, enclosing merged, later siblings);
// between(previous, next, deferred batch); prepare(node, merged) ->
// std::optional<Posting>; touches(batch, posting); post(posting, open);
// land(batch), which empties it; collective(node, merged).
#pragma once

#include <span>
#include <vector>

#include "core/pragma.hpp"
#include "core/sync_plan.hpp"
#include "translate/scan.hpp"

namespace cid::translate {

namespace detail {

template <typename Effects>
struct Walk {
  using Batch = typename Effects::Batch;
  Effects& effects;
  core::SyncPlan<Batch> plan;

  auto lander() {
    return [this](Batch& batch) { effects.land(batch); };
  }

  void land_open() {
    if (!plan.open().empty()) effects.land(plan.open());
  }

  void sequence(const std::vector<DirectiveNode>& nodes,
                const core::ParsedDirective* enclosing) {
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const DirectiveNode& node = nodes[k];
      if (k > 0) {
        plan.for_each_deferred([&](Batch& batch) {
          effects.between(nodes[k - 1], node, batch);
        });
      }
      const core::ParsedDirective merged =
          merge_directives(enclosing, node.directive);
      switch (node.directive.kind) {
        case core::DirectiveKind::CommParameters: {
          effects.region(node, merged, enclosing,
                         std::span(nodes).subspan(k + 1));
          plan.begin_region(lander());
          sequence(node.children, &merged);
          // An invalid keyword is the analyzer's CID-S032.
          const auto placement = core::place_sync_of(node.directive);
          plan.end_region(placement.is_ok()
                              ? placement.value()
                              : core::SyncPlacement::EndParamRegion,
                          lander());
          break;
        }
        case core::DirectiveKind::CommP2P:
          if (auto posting = effects.prepare(node, merged)) {
            plan.land_touching(
                [&](Batch& batch) { return effects.touches(batch, *posting); },
                lander());
            effects.post(*posting, plan.open());
          }
          sequence(node.children, enclosing);
          if (enclosing == nullptr) land_open();
          break;
        case core::DirectiveKind::CommCollective:
          land_open();
          effects.collective(node, merged);
          sequence(node.children, enclosing);
          break;
      }
    }
  }
};

}  // namespace detail

template <typename Effects>
void walk(const std::vector<DirectiveNode>& roots, Effects& effects) {
  detail::Walk<Effects> walk{effects, {}};
  walk.sequence(roots, nullptr);
  walk.plan.flush_all(walk.lander());
}

}  // namespace cid::translate
