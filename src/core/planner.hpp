// Runtime algorithm for computing end-to-end multi-resource reservation
// plans (paper §4.1.2, §4.3.1, §4.3.2).
//
// Pass I ("shortest" path probing) is Dijkstra's algorithm with "+"
// redefined as "max": the value of a node is the smallest achievable
// bottleneck contention index over all ways to realize it. Because the QRG
// is a layered DAG, we relax nodes in topological order, which computes
// the same fixpoint as the paper's heap-based formulation but with fully
// deterministic tie handling. The paper's tie-breaking rule is applied:
// among predecessors yielding the same path value, prefer the one whose
// incoming edge weight is smaller.
//
// Input nodes of fan-in components take the *maximum* of their constituent
// upstream output values (all constituents are needed), per §4.3.2 pass I.
//
// Pass II extracts the plan by backtracking from the chosen sink. On chain
// services this is exact (the plan has the minimum possible bottleneck
// contention index among all plans reaching the chosen sink). On DAG
// services, non-convergence at fan-out components is resolved locally per
// §4.3.2, which is a heuristic: extraction can fail for a reachable sink
// (the planner then falls back to the next-ranked reachable sink) and the
// returned plan's bottleneck index can exceed the pass-I value.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "core/qrg.hpp"
#include "util/rng.hpp"

namespace qres {

struct PlannerOptions {
  /// Applies the paper's predecessor tie-breaking rule (min incoming edge
  /// weight among equal-value candidates). Disable only for the ablation.
  bool use_tie_break = true;
};

/// Pass-I label of one QRG node.
struct NodeLabel {
  static constexpr std::uint32_t kNoEdge = 0xffffffffu;

  /// Smallest achievable bottleneck contention index ("distance" under the
  /// max-plus semiring); meaningful only when reachable.
  double value = 0.0;
  bool reachable = false;
  /// Bottleneck resource on the chosen way to realize this node, its
  /// contention index equals `value` unless the bottleneck sits upstream.
  ResourceId bottleneck;
  double alpha = 1.0;
  /// For output nodes: the chosen incoming translation edge.
  std::uint32_t pred_edge = kNoEdge;
};

/// Runs pass I over the whole QRG; labels are indexed by QRG node index.
std::vector<NodeLabel> relax_qrg(const Qrg& qrg,
                                 const PlannerOptions& options = {});

/// Heap-based Dijkstra formulation of pass I — the paper's literal
/// presentation ("the shortest path can be computed by running Dijkstra's
/// algorithm on the QRG", §4.1.2). Fan-in input nodes enter the heap once
/// all of their constituents are settled, valued at their maximum.
///
/// Produces exactly the same labels as relax_qrg — values, reachability,
/// predecessor edges, bottleneck resources and alphas — on every QRG
/// (differentially fuzz-tested; see tools/qres_fuzz). Ties between
/// equal-valued candidates resolve by the same secondary ordering as
/// relax_qrg: smaller incoming edge psi (when the tie-break option is on),
/// then the earlier edge index. Provided as a cross-check and for callers
/// who extend the QRG with non-topological node numbering.
std::vector<NodeLabel> dijkstra_qrg(const Qrg& qrg,
                                    const PlannerOptions& options = {});

/// Per-sink diagnostics derived from pass I (used by the tradeoff policy
/// and by the experiment harnesses).
struct SinkInfo {
  LevelIndex level = 0;     ///< sink output level index
  std::size_t rank = 0;     ///< 0 = best end-to-end QoS
  bool reachable = false;
  double psi = 0.0;         ///< bottleneck contention index at this sink
  double alpha = 1.0;       ///< change index of that bottleneck resource
  ResourceId bottleneck;
};

std::vector<SinkInfo> sink_infos(const Qrg& qrg,
                                 const std::vector<NodeLabel>& labels);

/// Extracts the reservation plan reaching `sink_node` (a ranked sink node
/// index of the QRG) from pass-I labels. Returns nullopt when the DAG
/// pass-II heuristic fails to converge (never fails on chains).
std::optional<ReservationPlan> extract_plan(
    const Qrg& qrg, const std::vector<NodeLabel>& labels,
    std::uint32_t sink_node);

/// Enumerates every feasible plan reaching `sink_node`, sorted by
/// ascending bottleneck contention index (the basic algorithm's choice
/// first). Chain services only; at most `max_plans` plans are returned
/// and at most `max_paths` paths are explored (contract violation beyond
/// that — QRGs are small by the paper's §4.2 assumption).
///
/// Rationale: when observations are stale (§5.2.4), the Psi-minimal
/// plan's reservation can fail even though other feasible plans would
/// have succeeded; callers can fall back down this list instead of
/// failing the session (see EstablishPolicy::fallback_attempts).
std::vector<ReservationPlan> enumerate_plans(const Qrg& qrg,
                                             std::uint32_t sink_node,
                                             std::size_t max_plans = 16,
                                             std::size_t max_paths = 65536);

/// Result of a planning attempt: the plan (when some sink is reachable and
/// extraction succeeded) plus the per-sink diagnostics.
struct PlanResult {
  std::optional<ReservationPlan> plan;
  std::vector<SinkInfo> sinks;  ///< in end-to-end rank order, best first
};

/// The basic algorithm's sink policy applied to precomputed pass-I
/// labels: pick the best reachable end-to-end rank, extract per §4.3.2
/// with fallback to lower-ranked reachable sinks when the DAG heuristic
/// fails. BasicPlanner is relax_qrg followed by this; it is exposed so
/// pass II can be run (and timed) on precomputed labels.
PlanResult basic_plan_from_labels(const Qrg& qrg,
                                  const std::vector<NodeLabel>& labels);

/// Abstract planner interface used by the runtime/simulation layers. The
/// RNG parameter is only consumed by randomized planners.
class IPlanner {
 public:
  virtual ~IPlanner() = default;
  virtual PlanResult plan(const Qrg& qrg, Rng& rng) const = 0;
  virtual std::string name() const = 0;
};

/// The paper's basic algorithm (§4.1): highest reachable end-to-end QoS,
/// smallest bottleneck contention index among plans achieving it. Exact on
/// chains; uses the §4.3.2 two-pass heuristic on DAGs.
class BasicPlanner final : public IPlanner {
 public:
  explicit BasicPlanner(PlannerOptions options = {}) : options_(options) {}

  PlanResult plan(const Qrg& qrg, Rng& rng) const override;
  std::string name() const override { return "basic"; }

 private:
  PlannerOptions options_;
};

/// The §4.3.1 tradeoff policy: when the availability of the bottleneck
/// resource at the best sink is trending down (alpha < 1), settle for the
/// highest-ranked sink whose bottleneck index is <= alpha * psi(best).
/// Falls back to the best sink when no sink qualifies (the paper leaves
/// this case unspecified).
class TradeoffPlanner final : public IPlanner {
 public:
  explicit TradeoffPlanner(PlannerOptions options = {}) : options_(options) {}

  PlanResult plan(const Qrg& qrg, Rng& rng) const override;
  std::string name() const override { return "tradeoff"; }

 private:
  PlannerOptions options_;
};

}  // namespace qres
