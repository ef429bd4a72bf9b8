#include "core/random_planner.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace qres {

PlanResult RandomPlanner::plan_dag(const Qrg& qrg, Rng& rng) const {
  const ServiceDefinition& service = qrg.service();
  const std::size_t n = service.component_count();
  std::size_t total = 1;
  for (ComponentIndex c = 0; c < n; ++c) {
    total *= service.component(c).out_level_count();
    QRES_REQUIRE(total <= max_assignments_,
                 "RandomPlanner: DAG assignment space too large");
  }

  // Enumerate feasible embedded graphs per sink level (cf.
  // ExhaustivePlanner, but keeping all of them rather than the optimum).
  const std::size_t sink_levels =
      service.component(service.sink()).out_level_count();
  std::vector<std::vector<std::size_t>> feasible(sink_levels);
  std::vector<LevelIndex> assignment(n, 0);
  for (std::size_t iter = 0; iter < total; ++iter) {
    std::size_t rem = iter;
    for (ComponentIndex c = 0; c < n; ++c) {
      const std::size_t base = service.component(c).out_level_count();
      assignment[c] = static_cast<LevelIndex>(rem % base);
      rem /= base;
    }
    bool ok = true;
    for (ComponentIndex c : service.topological_order()) {
      const auto& preds = service.predecessors(c);
      std::vector<LevelIndex> combo(preds.size());
      for (std::size_t j = 0; j < preds.size(); ++j)
        combo[j] = assignment[preds[j]];
      const LevelIndex flat =
          preds.empty() ? 0 : service.flatten_in_level(c, combo);
      if (qrg.translation_edge(c, flat, assignment[c]) == QrgEdge::kNone) {
        ok = false;
        break;
      }
    }
    if (ok) feasible[assignment[service.sink()]].push_back(iter);
  }

  PlanResult result;
  result.sinks.reserve(sink_levels);
  std::size_t best_rank = sink_levels;
  std::size_t rank = 0;
  for (LevelIndex level : service.end_to_end_ranking()) {
    SinkInfo info;
    info.level = level;
    info.rank = rank;
    info.reachable = !feasible[level].empty();
    if (info.reachable && best_rank == sink_levels) best_rank = rank;
    result.sinks.push_back(info);
    ++rank;
  }
  if (best_rank == sink_levels) return result;

  // Uniform draw among the embedded graphs reaching the best sink.
  const LevelIndex target = service.end_to_end_ranking()[best_rank];
  const auto& pool = feasible[target];
  const std::size_t pick = static_cast<std::size_t>(
      rng.uniform_u64(0, pool.size() - 1));
  std::size_t rem = pool[pick];
  for (ComponentIndex c = 0; c < n; ++c) {
    const std::size_t base = service.component(c).out_level_count();
    assignment[c] = static_cast<LevelIndex>(rem % base);
    rem /= base;
  }
  ReservationPlan plan;
  plan.steps.reserve(n);
  double bottleneck = -1.0;
  for (ComponentIndex c : service.topological_order()) {
    const auto& preds = service.predecessors(c);
    std::vector<LevelIndex> combo(preds.size());
    for (std::size_t j = 0; j < preds.size(); ++j)
      combo[j] = assignment[preds[j]];
    const LevelIndex flat =
        preds.empty() ? 0 : service.flatten_in_level(c, combo);
    const std::uint32_t e = qrg.translation_edge(c, flat, assignment[c]);
    QRES_ASSERT(e != QrgEdge::kNone);
    const QrgEdge& edge = qrg.edge(e);
    plan.steps.push_back(
        PlanStep{c, flat, assignment[c], qrg.requirement(e), edge.psi});
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

PlanResult RandomPlanner::plan(const Qrg& qrg, Rng& rng) const {
  if (!qrg.service().is_chain()) return plan_dag(qrg, rng);
  const auto labels = relax_qrg(qrg);
  auto sinks = sink_infos(qrg, labels);

  std::size_t best = sinks.size();
  for (std::size_t r = 0; r < sinks.size(); ++r)
    if (sinks[r].reachable) {
      best = r;
      break;
    }
  if (best == sinks.size()) return PlanResult{std::nullopt, std::move(sinks)};
  const std::uint32_t sink_node = qrg.ranked_sink_nodes()[best];

  // Count source->node paths; ascending node index is topological.
  std::vector<std::uint64_t> count(qrg.node_count(), 0);
  count[qrg.source_node()] = 1;
  for (std::uint32_t v = 0; v < qrg.node_count(); ++v) {
    if (v == qrg.source_node()) continue;
    std::uint64_t total = 0;
    for (std::uint32_t e : qrg.in_edges(v)) total += count[qrg.edge(e).from];
    count[v] = total;
  }
  QRES_ASSERT(count[sink_node] > 0);

  // Sample a path uniformly by walking backward, picking each incoming
  // edge with probability proportional to its upstream path count.
  ReservationPlan plan;
  plan.steps.resize(qrg.service().component_count());
  double bottleneck_psi = -1.0;
  std::uint32_t v = sink_node;
  while (v != qrg.source_node()) {
    const auto incoming = qrg.in_edges(v);
    std::vector<double> weights;
    weights.reserve(incoming.size());
    for (std::uint32_t e : incoming)
      weights.push_back(static_cast<double>(count[qrg.edge(e).from]));
    const std::uint32_t chosen = incoming[rng.categorical(weights)];
    const QrgEdge& edge = qrg.edge(chosen);
    if (edge.is_translation) {
      const QrgNode& out = qrg.node(edge.to);
      const QrgNode& in = qrg.node(edge.from);
      plan.steps[out.component] =
          PlanStep{out.component, in.level, out.level, qrg.requirement(chosen),
                   edge.psi};
      if (edge.psi > bottleneck_psi) {
        bottleneck_psi = edge.psi;
        plan.bottleneck_resource = edge.bottleneck;
        plan.bottleneck_alpha = edge.alpha;
      }
    }
    v = edge.from;
  }
  // steps were indexed by component; chain topological order may differ
  // from component numbering, so re-order explicitly.
  std::vector<PlanStep> ordered;
  ordered.reserve(plan.steps.size());
  for (ComponentIndex c : qrg.service().topological_order())
    ordered.push_back(plan.steps[c]);
  plan.steps = std::move(ordered);

  plan.bottleneck_psi = bottleneck_psi < 0.0 ? 0.0 : bottleneck_psi;
  plan.end_to_end_level = qrg.node(sink_node).level;
  plan.end_to_end_rank = qrg.service().rank_of(plan.end_to_end_level);
  return PlanResult{std::move(plan), std::move(sinks)};
}

}  // namespace qres
