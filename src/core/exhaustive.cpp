#include "core/exhaustive.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace qres {

PlanResult ExhaustivePlanner::plan(const Qrg& qrg, Rng& /*rng*/) const {
  const ServiceDefinition& service = qrg.service();
  const std::size_t n = service.component_count();

  std::size_t total = 1;
  for (ComponentIndex c = 0; c < n; ++c) {
    total *= service.component(c).out_level_count();
    QRES_REQUIRE(total <= max_assignments_,
                 "ExhaustivePlanner: assignment space too large");
  }

  // Best assignment per sink level: smallest Psi_G.
  const std::size_t sink_levels = service.component(service.sink()).out_level_count();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> best_psi(sink_levels, kInf);
  std::vector<std::vector<LevelIndex>> best_assignment(sink_levels);

  std::vector<LevelIndex> assignment(n, 0);
  for (std::size_t iter = 0; iter < total; ++iter) {
    // Decode iter into an assignment (mixed radix, component order).
    std::size_t rem = iter;
    for (ComponentIndex c = 0; c < n; ++c) {
      const std::size_t base = service.component(c).out_level_count();
      assignment[c] = static_cast<LevelIndex>(rem % base);
      rem /= base;
    }
    // Feasibility: the induced translation edge of every component must
    // exist in the QRG.
    double psi_g = 0.0;
    bool feasible = true;
    for (ComponentIndex c : service.topological_order()) {
      const auto& preds = service.predecessors(c);
      std::vector<LevelIndex> combo(preds.size());
      for (std::size_t j = 0; j < preds.size(); ++j)
        combo[j] = assignment[preds[j]];
      const LevelIndex flat =
          preds.empty() ? 0 : service.flatten_in_level(c, combo);
      const std::uint32_t e = qrg.translation_edge(c, flat, assignment[c]);
      if (e == QrgEdge::kNone) {
        feasible = false;
        break;
      }
      psi_g = std::max(psi_g, qrg.edge(e).psi);
    }
    if (!feasible) continue;
    const LevelIndex sink_level = assignment[service.sink()];
    if (psi_g < best_psi[sink_level]) {
      best_psi[sink_level] = psi_g;
      best_assignment[sink_level] = assignment;
    }
  }

  // Sink diagnostics in rank order (psi = optimal bottleneck per sink).
  PlanResult result;
  result.sinks.reserve(sink_levels);
  std::size_t rank = 0;
  std::size_t best_rank = sink_levels;
  for (LevelIndex level : service.end_to_end_ranking()) {
    SinkInfo info;
    info.level = level;
    info.rank = rank;
    info.reachable = best_psi[level] < kInf;
    info.psi = info.reachable ? best_psi[level] : 0.0;
    if (info.reachable && best_rank == sink_levels) best_rank = rank;
    result.sinks.push_back(info);
    ++rank;
  }
  if (best_rank == sink_levels) return result;

  // Materialize the winning assignment as a plan.
  const LevelIndex target = service.end_to_end_ranking()[best_rank];
  const auto& winner = best_assignment[target];
  ReservationPlan plan;
  plan.steps.reserve(n);
  double bottleneck = -1.0;
  for (ComponentIndex c : service.topological_order()) {
    const auto& preds = service.predecessors(c);
    std::vector<LevelIndex> combo(preds.size());
    for (std::size_t j = 0; j < preds.size(); ++j)
      combo[j] = winner[preds[j]];
    const LevelIndex flat =
        preds.empty() ? 0 : service.flatten_in_level(c, combo);
    const std::uint32_t e = qrg.translation_edge(c, flat, winner[c]);
    QRES_ASSERT(e != QrgEdge::kNone);
    const QrgEdge& edge = qrg.edge(e);
    plan.steps.push_back(
        PlanStep{c, flat, winner[c], qrg.requirement(e), edge.psi});
    if (edge.psi > bottleneck) {
      bottleneck = edge.psi;
      plan.bottleneck_resource = edge.bottleneck;
      plan.bottleneck_alpha = edge.alpha;
    }
  }
  plan.bottleneck_psi = bottleneck < 0.0 ? 0.0 : bottleneck;
  plan.end_to_end_level = target;
  plan.end_to_end_rank = best_rank;
  result.plan = std::move(plan);
  return result;
}

}  // namespace qres
