#include "core/planner.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>

#include "util/assert.hpp"

namespace qres {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Computes the pass-I label of `v` from the (final) labels of its
/// in-edge predecessors: AND semantics at input nodes, OR semantics with
/// the tie-break rule at output nodes, the zero label at the source.
/// labels[v] itself is never read.
NodeLabel relax_node(const Qrg& qrg, const PlannerOptions& options,
                     const std::vector<NodeLabel>& labels, std::uint32_t v) {
  NodeLabel label;
  if (v == qrg.source_node()) {
    label.value = 0.0;
    label.reachable = true;
    return label;
  }
  const QrgNode& node = qrg.node(v);
  if (node.kind == QrgNodeKind::kIn) {
    // AND semantics: one incoming equivalence edge per predecessor
    // component; the node is realized when all constituents are, and
    // its value is the max of theirs (§4.3.2 pass I).
    const auto incoming = qrg.in_edges(v);
    if (incoming.empty()) return label;  // isolated (should not happen)
    double value = 0.0;
    ResourceId bottleneck;
    double alpha = 1.0;
    bool first = true;
    for (std::uint32_t e : incoming) {
      const NodeLabel& up = labels[qrg.edge(e).from];
      if (!up.reachable) return label;
      if (first || up.value > value) {
        value = up.value;
        bottleneck = up.bottleneck;
        alpha = up.alpha;
        first = false;
      }
    }
    label.value = value;
    label.reachable = true;
    label.bottleneck = bottleneck;
    label.alpha = alpha;
  } else {
    // OR semantics over incoming translation edges: pick the
    // predecessor minimizing max(pred value, edge weight); among equal
    // candidates prefer the smaller edge weight (the paper's
    // tie-breaking rule), then the earlier edge (deterministic).
    double best = kInf;
    double best_edge_psi = kInf;
    std::uint32_t best_edge = NodeLabel::kNoEdge;
    for (std::uint32_t e : qrg.in_edges(v)) {
      const QrgEdge& edge = qrg.edge(e);
      const NodeLabel& up = labels[edge.from];
      if (!up.reachable) continue;
      const double candidate = std::max(up.value, edge.psi);
      bool better = candidate < best;
      if (!better && options.use_tie_break && candidate == best)
        better = edge.psi < best_edge_psi;
      if (better) {
        best = candidate;
        best_edge_psi = edge.psi;
        best_edge = e;
      }
    }
    if (best_edge == NodeLabel::kNoEdge) return label;
    const QrgEdge& edge = qrg.edge(best_edge);
    const NodeLabel& up = labels[edge.from];
    label.value = best;
    label.reachable = true;
    label.pred_edge = best_edge;
    if (edge.psi >= up.value) {
      label.bottleneck = edge.bottleneck;
      label.alpha = edge.alpha;
    } else {
      label.bottleneck = up.bottleneck;
      label.alpha = up.alpha;
    }
  }
  return label;
}

}  // namespace

std::vector<NodeLabel> relax_qrg(const Qrg& qrg, const PlannerOptions& options) {
  std::vector<NodeLabel> labels(qrg.node_count());

  // Node indices were assigned components-in-topological-order with input
  // nodes before output nodes, so ascending index order is a topological
  // order of the QRG and every predecessor label is final when its
  // successors relax.
  for (std::uint32_t v = 0; v < qrg.node_count(); ++v)
    labels[v] = relax_node(qrg, options, labels, v);
  return labels;
}

std::vector<NodeLabel> dijkstra_qrg(const Qrg& qrg,
                                    const PlannerOptions& options) {
  std::vector<NodeLabel> labels(qrg.node_count());
  std::vector<bool> settled(qrg.node_count(), false);
  // Tentative best incoming edge psi per node, for the tie-break rule.
  std::vector<double> tentative_edge_psi(qrg.node_count(), kInf);
  // Equivalence edge whose constituent currently defines an input node's
  // value; ties between equal-valued constituents resolve to the earlier
  // edge, matching relax_qrg's in-edge iteration order.
  std::vector<std::uint32_t> and_edge(qrg.node_count(), QrgEdge::kNone);
  // Input nodes become eligible once every constituent has settled.
  std::vector<std::size_t> waiting(qrg.node_count(), 0);
  for (std::uint32_t v = 0; v < qrg.node_count(); ++v)
    if (qrg.node(v).kind == QrgNodeKind::kIn && v != qrg.source_node())
      waiting[v] = qrg.in_edges(v).size();

  // Min-heap of (value, node) with lazy deletion; equal values pop the
  // smaller node index first, so settle order is deterministic.
  using Entry = std::pair<double, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  labels[qrg.source_node()].value = 0.0;
  labels[qrg.source_node()].reachable = true;
  queue.push({0.0, qrg.source_node()});

  while (!queue.empty()) {
    const std::uint32_t u = queue.top().second;
    queue.pop();
    if (settled[u]) continue;
    settled[u] = true;
    for (std::uint32_t e : qrg.out_edges(u)) {
      const QrgEdge& edge = qrg.edge(e);
      const std::uint32_t v = edge.to;
      if (settled[v]) continue;
      NodeLabel& lv = labels[v];
      if (!edge.is_translation) {
        // Equivalence edge into an input node: AND semantics. The node's
        // value accumulates the max over constituents and the node enters
        // the heap once the last constituent has settled.
        const bool first = waiting[v] == qrg.in_edges(v).size();
        if (first || labels[u].value > lv.value ||
            (labels[u].value == lv.value && e < and_edge[v])) {
          lv.value = labels[u].value;
          lv.bottleneck = labels[u].bottleneck;
          lv.alpha = labels[u].alpha;
          and_edge[v] = e;
        }
        if (--waiting[v] == 0) {
          lv.reachable = true;
          queue.push({lv.value, v});
        }
      } else {
        // Translation edge into an output node: standard relaxation under
        // the max-plus semiring, with the paper's tie-break.
        const double candidate = std::max(labels[u].value, edge.psi);
        bool better = !lv.reachable || candidate < lv.value;
        if (!better && candidate == lv.value) {
          // Secondary ordering, identical to relax_qrg's: the paper's
          // smaller-edge-psi rule (when enabled), then the earlier edge.
          // Without the earlier-edge comparison equal-psi predecessors
          // were kept in settle order, which diverged from relax_qrg
          // whenever a later in-edge's tail settled first.
          if (options.use_tie_break && edge.psi != tentative_edge_psi[v])
            better = edge.psi < tentative_edge_psi[v];
          else
            better = e < lv.pred_edge;
        }
        if (!better) continue;
        const bool value_changed = !lv.reachable || candidate != lv.value;
        lv.value = candidate;
        lv.reachable = true;
        lv.pred_edge = e;
        tentative_edge_psi[v] = edge.psi;
        if (edge.psi >= labels[u].value) {
          lv.bottleneck = edge.bottleneck;
          lv.alpha = edge.alpha;
        } else {
          lv.bottleneck = labels[u].bottleneck;
          lv.alpha = labels[u].alpha;
        }
        if (value_changed) queue.push({candidate, v});
      }
    }
  }

  // Input nodes whose constituents never all settled keep their
  // accumulated partial values; reset them to pristine "unreachable".
  for (std::uint32_t v = 0; v < qrg.node_count(); ++v)
    if (waiting[v] > 0) labels[v] = NodeLabel{};
  return labels;
}

std::vector<SinkInfo> sink_infos(const Qrg& qrg,
                                 const std::vector<NodeLabel>& labels) {
  QRES_REQUIRE(labels.size() == qrg.node_count(),
               "sink_infos: labels do not match the QRG");
  std::vector<SinkInfo> infos;
  infos.reserve(qrg.ranked_sink_nodes().size());
  std::size_t rank = 0;
  for (std::uint32_t s : qrg.ranked_sink_nodes()) {
    const NodeLabel& label = labels[s];
    SinkInfo info;
    info.level = qrg.node(s).level;
    info.rank = rank++;
    info.reachable = label.reachable;
    info.psi = label.reachable ? label.value : 0.0;
    info.alpha = label.alpha;
    info.bottleneck = label.bottleneck;
    infos.push_back(info);
  }
  return infos;
}

std::optional<ReservationPlan> extract_plan(
    const Qrg& qrg, const std::vector<NodeLabel>& labels,
    std::uint32_t sink_node) {
  QRES_REQUIRE(labels.size() == qrg.node_count(),
               "extract_plan: labels do not match the QRG");
  QRES_REQUIRE(sink_node < qrg.node_count(),
               "extract_plan: sink node out of range");
  const ServiceDefinition& service = qrg.service();
  const QrgNode& sink = qrg.node(sink_node);
  QRES_REQUIRE(sink.component == service.sink() &&
                   sink.kind == QrgNodeKind::kOut,
               "extract_plan: node is not a sink output node");
  if (!labels[sink_node].reachable) return std::nullopt;

  const std::size_t n = service.component_count();
  constexpr LevelIndex kUnset = 0xffffffffu;
  std::vector<LevelIndex> chosen_out(n, kUnset);
  std::vector<LevelIndex> chosen_in(n, kUnset);
  // Output levels demanded of each component by its already-processed
  // successors: (successor, demanded output level) pairs.
  std::vector<std::vector<std::pair<ComponentIndex, LevelIndex>>> demands(n);

  // Pass II: walk components in reverse topological order (§4.3.2).
  const auto& topo = service.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const ComponentIndex c = *it;

    // 1. Fix this component's output level.
    if (c == service.sink()) {
      chosen_out[c] = sink.level;
    } else {
      QRES_REQUIRE(!demands[c].empty(),
                   "extract_plan: component has no downstream demand");
      bool converged = true;
      for (const auto& [succ, level] : demands[c])
        if (level != demands[c].front().second) converged = false;
      if (converged) {
        chosen_out[c] = demands[c].front().second;
      } else {
        // Non-convergence at a fan-out component: fix the backtracked
        // output levels of the successors and pick the output level of c
        // that reaches all of them with the lowest contention (§4.3.2).
        const std::size_t out_count = service.component(c).out_level_count();
        double best_cost = kInf;
        double best_value = kInf;
        LevelIndex best = kUnset;
        std::vector<LevelIndex> best_succ_in;  // parallel to demands[c]
        std::vector<LevelIndex> succ_in(demands[c].size());
        for (LevelIndex x = 0; x < out_count; ++x) {
          const std::uint32_t out_node =
              qrg.node_of(c, QrgNodeKind::kOut, x);
          if (!labels[out_node].reachable) continue;
          double cost = 0.0;
          bool valid = true;
          for (std::size_t d = 0; d < demands[c].size() && valid; ++d) {
            const ComponentIndex succ = demands[c][d].first;
            // Rebuild the successor's input combo with c's slot set to x.
            auto combo = service.in_level_combo(succ, chosen_in[succ]);
            const auto& preds = service.predecessors(succ);
            for (std::size_t j = 0; j < preds.size(); ++j)
              if (preds[j] == c) combo[j] = x;
            const LevelIndex flat = service.flatten_in_level(succ, combo);
            const std::uint32_t e =
                qrg.translation_edge(succ, flat, chosen_out[succ]);
            if (e == QrgEdge::kNone) {
              valid = false;
              break;
            }
            cost = std::max(cost, qrg.edge(e).psi);
            succ_in[d] = flat;
          }
          if (!valid) continue;
          const double value = labels[out_node].value;
          if (cost < best_cost ||
              (cost == best_cost && value < best_value)) {
            best_cost = cost;
            best_value = value;
            best = x;
            best_succ_in = succ_in;
          }
        }
        if (best == kUnset) return std::nullopt;  // heuristic failure
        chosen_out[c] = best;
        for (std::size_t d = 0; d < demands[c].size(); ++d)
          chosen_in[demands[c][d].first] = best_succ_in[d];
      }
    }

    // 2. Fix this component's input level via the pass-I predecessor edge.
    const std::uint32_t out_node =
        qrg.node_of(c, QrgNodeKind::kOut, chosen_out[c]);
    const NodeLabel& label = labels[out_node];
    QRES_REQUIRE(label.reachable && label.pred_edge != NodeLabel::kNoEdge,
                 "extract_plan: demanded output level is unreachable");
    chosen_in[c] = qrg.node(qrg.edge(label.pred_edge).from).level;

    // 3. Record the demands this component places on its predecessors.
    const auto& preds = service.predecessors(c);
    const auto combo =
        qrg.in_combo(qrg.node_of(c, QrgNodeKind::kIn, chosen_in[c]));
    for (std::size_t j = 0; j < preds.size(); ++j)
      demands[preds[j]].push_back({c, combo[j]});
  }

  // Assemble the plan from the fixed operating points.
  ReservationPlan plan;
  plan.steps.reserve(n);
  double bottleneck_psi = -1.0;
  for (ComponentIndex c : topo) {
    const std::uint32_t e =
        qrg.translation_edge(c, chosen_in[c], chosen_out[c]);
    QRES_ENSURE(e != QrgEdge::kNone,
                "extract_plan: assembled plan uses a missing edge");
    const QrgEdge& edge = qrg.edge(e);
    plan.steps.push_back(PlanStep{c, chosen_in[c], chosen_out[c],
                                  qrg.requirement(e), edge.psi});
    if (edge.psi > bottleneck_psi) {
      bottleneck_psi = edge.psi;
      plan.bottleneck_resource = edge.bottleneck;
      plan.bottleneck_alpha = edge.alpha;
    }
  }
  plan.bottleneck_psi = bottleneck_psi < 0.0 ? 0.0 : bottleneck_psi;
  plan.end_to_end_level = sink.level;
  plan.end_to_end_rank = service.rank_of(sink.level);
  return plan;
}

std::vector<ReservationPlan> enumerate_plans(const Qrg& qrg,
                                             std::uint32_t sink_node,
                                             std::size_t max_plans,
                                             std::size_t max_paths) {
  const ServiceDefinition& service = qrg.service();
  QRES_REQUIRE(service.is_chain(), "enumerate_plans: chain services only");
  QRES_REQUIRE(sink_node < qrg.node_count(),
               "enumerate_plans: sink node out of range");
  const QrgNode& sink = qrg.node(sink_node);
  QRES_REQUIRE(sink.component == service.sink() &&
                   sink.kind == QrgNodeKind::kOut,
               "enumerate_plans: node is not a sink output node");

  // Depth-first backward walk over incoming edges; each complete walk to
  // the source is one plan (the translation edges along it).
  std::vector<ReservationPlan> plans;
  std::vector<std::uint32_t> stack;  // translation edges, sink-first
  std::size_t paths_explored = 0;

  std::function<void(std::uint32_t)> walk = [&](std::uint32_t node) {
    if (node == qrg.source_node()) {
      ++paths_explored;
      QRES_REQUIRE(paths_explored <= max_paths,
                   "enumerate_plans: path explosion (raise max_paths)");
      ReservationPlan plan;
      plan.steps.reserve(stack.size());
      double bottleneck = -1.0;
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        const QrgEdge& edge = qrg.edge(*it);
        const QrgNode& out = qrg.node(edge.to);
        const QrgNode& in = qrg.node(edge.from);
        plan.steps.push_back(PlanStep{out.component, in.level, out.level,
                                      qrg.requirement(*it), edge.psi});
        if (edge.psi > bottleneck) {
          bottleneck = edge.psi;
          plan.bottleneck_resource = edge.bottleneck;
          plan.bottleneck_alpha = edge.alpha;
        }
      }
      plan.bottleneck_psi = bottleneck < 0.0 ? 0.0 : bottleneck;
      plan.end_to_end_level = sink.level;
      plan.end_to_end_rank = service.rank_of(sink.level);
      plans.push_back(std::move(plan));
      return;
    }
    for (std::uint32_t e : qrg.in_edges(node)) {
      const QrgEdge& edge = qrg.edge(e);
      if (edge.is_translation) stack.push_back(e);
      walk(edge.from);
      if (edge.is_translation) stack.pop_back();
    }
  };
  walk(sink_node);

  std::stable_sort(plans.begin(), plans.end(),
                   [](const ReservationPlan& a, const ReservationPlan& b) {
                     return a.bottleneck_psi < b.bottleneck_psi;
                   });
  if (plans.size() > max_plans) plans.resize(max_plans);
  return plans;
}

namespace {

/// Shared tail: extract the plan for `target_rank`, falling back to
/// lower-ranked reachable sinks if the DAG heuristic fails (§4.3.2
/// limitation (1)).
PlanResult finish_plan(const Qrg& qrg, const std::vector<NodeLabel>& labels,
                       std::vector<SinkInfo> sinks, std::size_t target_rank) {
  PlanResult result;
  const auto& ranked = qrg.ranked_sink_nodes();
  for (std::size_t r = target_rank; r < ranked.size(); ++r) {
    if (!sinks[r].reachable) continue;
    if (auto plan = extract_plan(qrg, labels, ranked[r])) {
      result.plan = std::move(plan);
      break;
    }
  }
  result.sinks = std::move(sinks);
  return result;
}

}  // namespace

PlanResult basic_plan_from_labels(const Qrg& qrg,
                                  const std::vector<NodeLabel>& labels) {
  auto sinks = sink_infos(qrg, labels);
  std::size_t best = sinks.size();
  for (std::size_t r = 0; r < sinks.size(); ++r)
    if (sinks[r].reachable) {
      best = r;
      break;
    }
  if (best == sinks.size()) return PlanResult{std::nullopt, std::move(sinks)};
  return finish_plan(qrg, labels, std::move(sinks), best);
}

PlanResult BasicPlanner::plan(const Qrg& qrg, Rng& /*rng*/) const {
  return basic_plan_from_labels(qrg, relax_qrg(qrg, options_));
}

PlanResult TradeoffPlanner::plan(const Qrg& qrg, Rng& /*rng*/) const {
  const auto labels = relax_qrg(qrg, options_);
  auto sinks = sink_infos(qrg, labels);
  std::size_t best = sinks.size();
  for (std::size_t r = 0; r < sinks.size(); ++r)
    if (sinks[r].reachable) {
      best = r;
      break;
    }
  if (best == sinks.size()) return PlanResult{std::nullopt, std::move(sinks)};

  std::size_t target = best;
  const double alpha0 = sinks[best].alpha;
  if (alpha0 < 1.0) {
    // Availability of the bottleneck resource is trending down: settle for
    // the highest-ranked sink whose bottleneck index is <= alpha0 * psi0.
    const double budget = alpha0 * sinks[best].psi;
    std::size_t candidate = sinks.size();
    for (std::size_t r = best; r < sinks.size(); ++r) {
      if (!sinks[r].reachable) continue;
      if (sinks[r].psi <= budget) {
        candidate = r;
        break;
      }
    }
    if (candidate != sinks.size()) target = candidate;
  }
  return finish_plan(qrg, labels, std::move(sinks), target);
}

}  // namespace qres
