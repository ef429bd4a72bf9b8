// The QoS-Resource Graph (paper §4.1.1).
//
// A QRG is a snapshot structure built per service session from (a) the
// service's QoS-Resource Model and (b) the current end-to-end resource
// availability. Its nodes are the input/output QoS levels of every
// participating component; its edges are
//   * translation edges (input level -> output level within a component),
//     present iff the translated requirement fits within the current
//     availability, weighted by the contention index of their most
//     contended resource (eq. 2-3); and
//   * equivalence edges (output level of a component -> the matching input
//     level of a downstream component), weight zero.
//
// Input nodes of a fan-in component receive one equivalence edge per
// predecessor and have AND semantics: the node is realized only when every
// constituent upstream output is realized (paper §4.3.2). Input nodes of
// chain components have exactly one incoming equivalence edge, so the
// basic (chain) and DAG cases share one representation.
//
// Nodes are created components-in-topological-order, input levels before
// output levels, and named "Qa", "Qb", ... in creation order — matching
// the labeling of the paper's figures 4/5 and tables 1/2.
//
// Only translation-edge feasibility and weights depend on the snapshot.
// Everything else — nodes, equivalence edges, candidate operating points
// and their base requirements — is compiled once per service
// (core/compiled_service.hpp); a Qrg is the per-session view that weighs
// the compiled candidates against one snapshot. Edge indices: equivalence
// edges first, then the feasible translation edges in (component,
// input, output) order.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/availability.hpp"
#include "core/compiled_service.hpp"
#include "core/psi.hpp"
#include "core/service.hpp"

namespace qres {

class Qrg {
 public:
  /// Builds the QRG for one session of `service` under `availability`.
  ///
  /// `scale` multiplies every translated requirement before the
  /// feasibility test (the paper's "fat" sessions reserve N times the base
  /// requirement). Requires every resource referenced by any translation
  /// to be present in `availability` with availability > 0 or the edge is
  /// simply infeasible (availability 0 admits nothing).
  Qrg(const ServiceDefinition& service, const AvailabilityView& availability,
      PsiKind psi_kind = PsiKind::kRatio, double scale = 1.0);

  const ServiceDefinition& service() const noexcept { return *service_; }
  const CompiledService& compiled() const noexcept { return *compiled_; }
  PsiKind psi_kind() const noexcept { return psi_kind_; }
  double scale() const noexcept { return scale_; }

  std::size_t node_count() const noexcept { return compiled_->node_count(); }
  /// Equivalence edges plus the translation edges feasible under this
  /// snapshot.
  std::size_t edge_count() const noexcept {
    return compiled_->equivalence_count() + translations_.size();
  }

  const QrgNode& node(std::uint32_t index) const;
  const QrgEdge& edge(std::uint32_t index) const;

  /// The translated (session-scaled) requirement R^req of an edge; empty
  /// for equivalence edges. Materialized on each call.
  ResourceVector requirement(std::uint32_t edge) const;

  /// Index of the single source node (the source component's input level).
  std::uint32_t source_node() const noexcept {
    return compiled_->source_node();
  }

  /// Node index for a component's input (flat) or output level.
  std::uint32_t node_of(ComponentIndex component, QrgNodeKind kind,
                        LevelIndex level) const;

  /// Sink nodes (the sink component's output levels) in end-to-end QoS
  /// rank order, best first.
  const std::vector<std::uint32_t>& ranked_sink_nodes() const noexcept {
    return ranked_sinks_;
  }

  /// Edge indices entering / leaving a node, ascending.
  std::span<const std::uint32_t> in_edges(std::uint32_t node) const;
  std::span<const std::uint32_t> out_edges(std::uint32_t node) const;

  /// The fan-in combo of an input node: one output level per predecessor
  /// (ServiceDefinition::in_level_combo, precomputed).
  std::span<const LevelIndex> in_combo(std::uint32_t in_node) const;

  /// Paper-style node label: "Qa", "Qb", ..., "Qz", "Qaa", ...
  std::string node_name(std::uint32_t index) const;

  /// The pure labeling function behind node_name (index -> "Qa"-style
  /// label, spreadsheet base-26).
  static std::string label(std::uint32_t index);

  /// Index of the edge between two nodes, or QrgEdge::kNone.
  std::uint32_t find_edge(std::uint32_t from, std::uint32_t to) const noexcept;

  /// Translation edge of operating point (component, flat input level,
  /// output level), or QrgEdge::kNone when it is not realizable or not
  /// feasible under this snapshot. O(1).
  std::uint32_t translation_edge(ComponentIndex component, LevelIndex in,
                                 LevelIndex out) const;

 private:
  const ServiceDefinition* service_;
  const CompiledService* compiled_;
  PsiKind psi_kind_;
  double scale_;
  /// Feasible translation edges; edge index = equivalence_count + position.
  std::vector<QrgEdge> translations_;
  std::vector<std::uint32_t> candidate_of_;       // per translation edge
  std::vector<std::uint32_t> edge_of_candidate_;  // or QrgEdge::kNone
  /// Per node, translations_ positions of the first translation edge out
  /// of it (node_count + 1 entries).
  std::vector<std::uint32_t> out_first_;
  /// Feasible translation in-edges of each output node, packed at the
  /// compiled candidate_in_offset; in_degree_ counts them.
  std::vector<std::uint32_t> in_translations_;
  std::vector<std::uint32_t> in_degree_;
  std::vector<std::uint32_t> ranked_sinks_;
};

}  // namespace qres
