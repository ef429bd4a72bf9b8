#include "core/qrg.hpp"

#include "util/assert.hpp"

namespace qres {

Qrg::Qrg(const ServiceDefinition& service, const AvailabilityView& availability,
         PsiKind psi_kind, double scale)
    : service_(&service),
      compiled_(&service.compiled()),
      psi_kind_(psi_kind),
      scale_(scale) {
  QRES_REQUIRE(scale > 0.0, "Qrg: requirement scale must be positive");
  const CompiledService& compiled = *compiled_;
  const std::uint32_t nodes = compiled.node_count();
  const std::uint32_t candidates = compiled.candidate_count();
  const std::uint32_t first_edge = compiled.equivalence_count();
  const std::vector<SlotObservation> slots = compiled.observe(availability);

  // One pass over the candidates, in order: weigh each against the
  // snapshot and number the feasible ones.
  translations_.reserve(candidates);
  candidate_of_.reserve(candidates);
  edge_of_candidate_.assign(candidates, QrgEdge::kNone);
  out_first_.resize(nodes + 1);
  in_translations_.resize(candidates);
  in_degree_.assign(nodes, 0);
  for (std::uint32_t v = 0; v < nodes; ++v) {
    out_first_[v] = static_cast<std::uint32_t>(translations_.size());
    for (std::uint32_t k = compiled.candidates_from(v);
         k < compiled.candidates_from(v + 1); ++k) {
      const EdgeWeight weight = weigh_requirement(
          compiled.requirement_slots(k), compiled.requirement_amounts(k),
          scale, slots.data(), psi_kind);
      QRES_REQUIRE(weight.missing == EdgeWeight::kNoSlot,
                   "Qrg: availability snapshot is missing a resource "
                   "referenced by component '" +
                       service.component(compiled.node(v).component).name() +
                       "'");
      if (!weight.feasible) continue;
      const CompiledService::Candidate& candidate = compiled.candidate(k);
      const auto e =
          first_edge + static_cast<std::uint32_t>(translations_.size());
      edge_of_candidate_[k] = e;
      candidate_of_.push_back(k);
      translations_.push_back(QrgEdge{candidate.from, candidate.to, weight.psi,
                                      weight.alpha,
                                      compiled.slot_resource(weight.bottleneck),
                                      true});
      in_translations_[compiled.candidate_in_offset(candidate.to) +
                       in_degree_[candidate.to]++] = e;
    }
  }
  out_first_[nodes] = static_cast<std::uint32_t>(translations_.size());

  // Sinks, best rank first, from the service's current ranking.
  const std::uint32_t sink_base = compiled.out_base(service.sink());
  ranked_sinks_.reserve(service.end_to_end_ranking().size());
  for (LevelIndex level : service.end_to_end_ranking())
    ranked_sinks_.push_back(sink_base + level);
}

const QrgNode& Qrg::node(std::uint32_t index) const {
  QRES_REQUIRE(index < node_count(), "Qrg::node: index out of range");
  return compiled_->node(index);
}

const QrgEdge& Qrg::edge(std::uint32_t index) const {
  QRES_REQUIRE(index < edge_count(), "Qrg::edge: index out of range");
  const std::uint32_t first = compiled_->equivalence_count();
  return index < first ? compiled_->equivalence(index)
                       : translations_[index - first];
}

ResourceVector Qrg::requirement(std::uint32_t index) const {
  QRES_REQUIRE(index < edge_count(), "Qrg::requirement: index out of range");
  const std::uint32_t first = compiled_->equivalence_count();
  if (index < first) return {};
  return compiled_->requirement(candidate_of_[index - first], scale_);
}

std::uint32_t Qrg::node_of(ComponentIndex component, QrgNodeKind kind,
                           LevelIndex level) const {
  QRES_REQUIRE(component < service_->component_count(),
               "Qrg::node_of: component out of range");
  if (kind == QrgNodeKind::kIn) {
    QRES_REQUIRE(level < service_->in_level_count(component),
                 "Qrg::node_of: input level out of range");
    return compiled_->in_base(component) + level;
  }
  QRES_REQUIRE(level < service_->component(component).out_level_count(),
               "Qrg::node_of: output level out of range");
  return compiled_->out_base(component) + level;
}

std::span<const std::uint32_t> Qrg::in_edges(std::uint32_t node) const {
  QRES_REQUIRE(node < node_count(), "Qrg::in_edges: node out of range");
  if (compiled_->node(node).kind == QrgNodeKind::kIn)
    return compiled_->equivalence_in(node);
  return {in_translations_.data() + compiled_->candidate_in_offset(node),
          in_degree_[node]};
}

std::span<const std::uint32_t> Qrg::out_edges(std::uint32_t node) const {
  QRES_REQUIRE(node < node_count(), "Qrg::out_edges: node out of range");
  if (compiled_->node(node).kind == QrgNodeKind::kOut)
    return compiled_->equivalence_out(node);
  return compiled_->edge_ids(compiled_->equivalence_count() + out_first_[node],
                             out_first_[node + 1] - out_first_[node]);
}

std::span<const LevelIndex> Qrg::in_combo(std::uint32_t in_node) const {
  QRES_REQUIRE(in_node < node_count() &&
                   compiled_->node(in_node).kind == QrgNodeKind::kIn,
               "Qrg::in_combo: not an input node");
  return compiled_->combo(in_node);
}

std::string Qrg::node_name(std::uint32_t index) const {
  QRES_REQUIRE(index < node_count(), "Qrg::node_name: index out of range");
  return label(index);
}

std::string Qrg::label(std::uint32_t index) {
  // Spreadsheet-style base-26 suffix: a..z, aa, ab, ...
  std::string suffix;
  std::uint32_t n = index;
  for (;;) {
    suffix.insert(suffix.begin(), static_cast<char>('a' + n % 26));
    if (n < 26) break;
    n = n / 26 - 1;
  }
  return "Q" + suffix;
}

std::uint32_t Qrg::find_edge(std::uint32_t from,
                             std::uint32_t to) const noexcept {
  if (from >= node_count() || to >= node_count()) return QrgEdge::kNone;
  const QrgNode& tail = compiled_->node(from);
  const QrgNode& head = compiled_->node(to);
  if (tail.kind == QrgNodeKind::kIn) {
    if (head.kind != QrgNodeKind::kOut || head.component != tail.component)
      return QrgEdge::kNone;
    const std::uint32_t k =
        compiled_->candidate_of(tail.component, tail.level, head.level);
    return k == QrgEdge::kNone ? QrgEdge::kNone : edge_of_candidate_[k];
  }
  for (std::uint32_t e : compiled_->equivalence_out(from))
    if (compiled_->equivalence(e).to == to) return e;
  return QrgEdge::kNone;
}

std::uint32_t Qrg::translation_edge(ComponentIndex component, LevelIndex in,
                                    LevelIndex out) const {
  return find_edge(node_of(component, QrgNodeKind::kIn, in),
                   node_of(component, QrgNodeKind::kOut, out));
}

}  // namespace qres
