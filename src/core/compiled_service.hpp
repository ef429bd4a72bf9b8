// The per-service part of the QoS-Resource Graph (paper §4.1.1).
//
// Of a QRG only two things depend on the availability snapshot: whether
// each translation edge is feasible, and its weight (ψ, α, bottleneck
// resource). Everything else is fixed per service:
//   * the node numbering (components in topological order, input levels
//     before output levels) and with it the paper's "Qa", "Qb", ... labels;
//   * the equivalence edges, with the fan-in combo of every input node;
//   * every realizable (input, output) operating point — a *candidate*
//     translation edge — with its base requirement, flattened into
//     (resource slot, amount) entries kept in ResourceVector order so the
//     bottleneck tie-break (first resource attaining the max) is unchanged;
//   * a dense (component, input, output) -> candidate index.
//
// CompiledService holds that fixed part. ServiceDefinition builds it once,
// lazily, on the first Qrg of the service (ServiceDefinition::compiled());
// each Qrg is then a per-session view that weighs every candidate against
// its snapshot in one linear pass (core/qrg.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/availability.hpp"
#include "core/psi.hpp"
#include "core/service.hpp"

namespace qres {

enum class QrgNodeKind : std::uint8_t { kIn, kOut };

struct QrgNode {
  ComponentIndex component = 0;
  QrgNodeKind kind = QrgNodeKind::kIn;
  /// Output-level index for kOut nodes; flat input-level index for kIn
  /// nodes (see ServiceDefinition's input-level convention).
  LevelIndex level = 0;
};

struct QrgEdge {
  static constexpr std::uint32_t kNone = 0xffffffffu;

  std::uint32_t from = kNone;
  std::uint32_t to = kNone;
  /// Contention-index weight Psi (eq. 3); zero for equivalence edges.
  double psi = 0.0;
  /// Availability change index of the edge's bottleneck resource; 1.0 for
  /// equivalence edges.
  double alpha = 1.0;
  /// Resource attaining the max in eq. 3; invalid for equivalence edges.
  ResourceId bottleneck;
  /// True for translation (in->out) edges, false for equivalence edges.
  bool is_translation = false;
};

/// One snapshot entry per resource slot of a CompiledService.
struct SlotObservation {
  /// `available` of a resource the snapshot does not cover.
  static constexpr double kMissing = -1.0;
  double available = kMissing;
  double alpha = 1.0;
};

/// The weight of one requirement against a snapshot (eq. 2-3).
struct EdgeWeight {
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  bool feasible = false;
  double psi = 0.0;
  double alpha = 1.0;
  /// Slot attaining the max contention index; kNoSlot when the
  /// requirement is empty.
  std::uint32_t bottleneck = kNoSlot;
  /// Set (and the weight infeasible) when the walk reached a slot the
  /// snapshot does not cover.
  std::uint32_t missing = kNoSlot;
};

/// Weighs `amounts[i] * scale` on `slots_of[i]` against per-slot
/// availability, in entry order: infeasible at the first resource that
/// does not fit (or has no availability at all), missing at the first
/// resource the snapshot lacks, otherwise ψ is the largest contention
/// index and the bottleneck the first resource attaining it. Qrg's
/// per-edge weighting routine.
inline EdgeWeight weigh_requirement(std::span<const std::uint32_t> slots_of,
                                    const double* amounts, double scale,
                                    const SlotObservation* slots,
                                    PsiKind psi_kind) {
  EdgeWeight weight;
  for (std::size_t i = 0; i < slots_of.size(); ++i) {
    const SlotObservation& obs = slots[slots_of[i]];
    if (obs.available < 0.0) {  // SlotObservation::kMissing
      weight.missing = slots_of[i];
      return weight;
    }
    const double amount = amounts[i] * scale;
    if (amount > obs.available || obs.available <= 0.0) return weight;
    // The resource fits, so contention_index's preconditions hold; the
    // default ratio index skips re-checking them.
    const double index =
        psi_kind == PsiKind::kRatio
            ? amount / obs.available
            : contention_index(psi_kind, amount, obs.available);
    // Selects without branching: which resource is the bottleneck is
    // data-dependent and mispredicts badly on the hot path.
    const bool take = i == 0 || index > weight.psi;
    weight.psi = take ? index : weight.psi;
    weight.alpha = take ? obs.alpha : weight.alpha;
    weight.bottleneck = take ? slots_of[i] : weight.bottleneck;
  }
  weight.feasible = true;
  return weight;
}

class CompiledService {
 public:
  /// A realizable operating point: translation edge from -> to, whose base
  /// requirement is entries [requirement_begin, next candidate's begin).
  struct Candidate {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    std::uint32_t requirement_begin = 0;
  };

  /// Numbers the nodes, lays out the equivalence edges and evaluates every
  /// translation function once over its whole (input, output) domain.
  /// Translation functions must be pure (core/translation.hpp).
  explicit CompiledService(const ServiceDefinition& service);

  std::uint32_t node_count() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  const QrgNode& node(std::uint32_t v) const noexcept { return nodes_[v]; }
  std::uint32_t source_node() const noexcept { return source_node_; }
  /// First input / output node of a component; a component's nodes are
  /// contiguous.
  std::uint32_t in_base(ComponentIndex c) const noexcept {
    return node_base_[c].first;
  }
  std::uint32_t out_base(ComponentIndex c) const noexcept {
    return node_base_[c].second;
  }

  /// Equivalence edges: one per (input node, predecessor) pair, numbered
  /// first in every Qrg.
  std::uint32_t equivalence_count() const noexcept {
    return static_cast<std::uint32_t>(equivalence_.size());
  }
  const QrgEdge& equivalence(std::uint32_t e) const noexcept {
    return equivalence_[e];
  }
  /// Equivalence edges entering an input node (one per predecessor) /
  /// leaving an output node, ascending.
  std::span<const std::uint32_t> equivalence_in(
      std::uint32_t v) const noexcept {
    return edge_ids(in_offset_[v], in_offset_[v + 1] - in_offset_[v]);
  }
  std::span<const std::uint32_t> equivalence_out(
      std::uint32_t v) const noexcept {
    return {equivalence_out_.data() + out_offset_[v],
            out_offset_[v + 1] - out_offset_[v]};
  }
  /// The fan-in combo of an input node: its predecessors' output levels,
  /// in predecessor order (empty at the source).
  std::span<const LevelIndex> combo(std::uint32_t in_node) const noexcept {
    return {combo_.data() + in_offset_[in_node],
            in_offset_[in_node + 1] - in_offset_[in_node]};
  }

  /// Candidates in (component topological order, input, output) order, so
  /// the candidates leaving one input node are contiguous:
  /// [candidates_from(v), candidates_from(v + 1)).
  std::uint32_t candidate_count() const noexcept {
    return static_cast<std::uint32_t>(candidates_.size());
  }
  const Candidate& candidate(std::uint32_t k) const noexcept {
    return candidates_[k];
  }
  std::uint32_t candidates_from(std::uint32_t v) const noexcept {
    return candidates_from_[v];
  }
  /// Room for the candidates entering node v: [candidate_in_offset(v),
  /// candidate_in_offset(v + 1)) of an array of candidate_count() entries
  /// (Qrg packs the feasible ones there).
  std::uint32_t candidate_in_offset(std::uint32_t v) const noexcept {
    return candidate_in_offset_[v];
  }
  /// Candidate of operating point (c, in, out), or QrgEdge::kNone when the
  /// translation function does not realize it. Requires in/out in range.
  std::uint32_t candidate_of(ComponentIndex c, LevelIndex in,
                             LevelIndex out) const noexcept {
    return dense_[dense_base_[c] + in * out_count_[c] + out];
  }

  /// Base requirement of a candidate: resource slots and amounts.
  std::span<const std::uint32_t> requirement_slots(
      std::uint32_t k) const noexcept {
    return {slots_of_.data() + candidates_[k].requirement_begin,
            requirement_end(k) - candidates_[k].requirement_begin};
  }
  const double* requirement_amounts(std::uint32_t k) const noexcept {
    return amounts_.data() + candidates_[k].requirement_begin;
  }
  /// The requirement scaled by `scale`, materialized (what a plan step
  /// carries).
  ResourceVector requirement(std::uint32_t k, double scale) const;

  /// The resource behind a slot (slots number the distinct resources the
  /// translations reference, in first-use order); invalid for kNoSlot.
  ResourceId slot_resource(std::uint32_t slot) const noexcept {
    return slot < slot_resources_.size() ? slot_resources_[slot]
                                         : ResourceId{};
  }
  /// Loads a snapshot into one (available, alpha) entry per slot;
  /// resources the snapshot lacks stay SlotObservation::kMissing.
  std::vector<SlotObservation> observe(const AvailabilityView& view) const;

  /// 0, 1, 2, ...: storage for edge-index lists that are consecutive
  /// runs (equivalence edges into one input node; a Qrg's translation
  /// edges out of one input node).
  std::span<const std::uint32_t> edge_ids(std::uint32_t first,
                                          std::uint32_t count) const noexcept {
    return {edge_ids_.data() + first, count};
  }

 private:
  std::uint32_t requirement_end(std::uint32_t k) const noexcept {
    return k + 1 < candidates_.size() ? candidates_[k + 1].requirement_begin
                                      : static_cast<std::uint32_t>(
                                            amounts_.size());
  }

  std::vector<QrgNode> nodes_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> node_base_;
  std::uint32_t source_node_ = 0;

  std::vector<QrgEdge> equivalence_;
  /// Per-node CSR offsets (node_count + 1 each). Equivalence edges are
  /// numbered by head node, so in_offset_ delimits both a node's in-edges
  /// and its combo_ entries; out_offset_ indexes equivalence_out_.
  std::vector<std::uint32_t> in_offset_;
  std::vector<LevelIndex> combo_;
  std::vector<std::uint32_t> out_offset_;
  std::vector<std::uint32_t> equivalence_out_;

  std::vector<Candidate> candidates_;
  std::vector<std::uint32_t> candidates_from_;      // node_count + 1
  std::vector<std::uint32_t> candidate_in_offset_;  // node_count + 1
  std::vector<std::uint32_t> dense_base_;           // per component
  std::vector<std::uint32_t> out_count_;            // per component
  std::vector<std::uint32_t> dense_;
  std::vector<std::uint32_t> slots_of_;
  std::vector<double> amounts_;
  std::vector<ResourceId> slot_resources_;
  std::vector<std::uint32_t> edge_ids_;
};

}  // namespace qres
