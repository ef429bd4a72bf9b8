#include "core/compiled_service.hpp"

#include "util/assert.hpp"

namespace qres {

CompiledService::CompiledService(const ServiceDefinition& service) {
  const std::size_t n = service.component_count();
  const auto& topo = service.topological_order();
  QRES_REQUIRE(topo.size() == n, "CompiledService: invalid service");

  // Nodes: components in topological order, inputs before outputs, so
  // sequential labels match the paper's figures.
  node_base_.resize(n);
  for (ComponentIndex c : topo) {
    const std::size_t in_count = service.in_level_count(c);
    node_base_[c].first = static_cast<std::uint32_t>(nodes_.size());
    for (LevelIndex i = 0; i < in_count; ++i)
      nodes_.push_back(QrgNode{c, QrgNodeKind::kIn, i});
    node_base_[c].second = static_cast<std::uint32_t>(nodes_.size());
    const std::size_t out_count = service.component(c).out_level_count();
    for (LevelIndex o = 0; o < out_count; ++o)
      nodes_.push_back(QrgNode{c, QrgNodeKind::kOut, o});
  }
  source_node_ = node_base_[service.source()].first;
  const std::size_t nodes = nodes_.size();

  // Equivalence edges: one per (input node, predecessor) pair, in node
  // order, so each input node's in-edges (and its combo) are contiguous.
  in_offset_.assign(nodes + 1, 0);
  for (ComponentIndex c : topo) {
    const auto& preds = service.predecessors(c);
    const std::size_t in_count = service.in_level_count(c);
    for (LevelIndex flat = 0; flat < in_count; ++flat) {
      const std::uint32_t to = node_base_[c].first + flat;
      in_offset_[to] = static_cast<std::uint32_t>(equivalence_.size());
      const std::vector<LevelIndex> combo = service.in_level_combo(c, flat);
      for (std::size_t p = 0; p < preds.size(); ++p) {
        QrgEdge edge;
        edge.from = node_base_[preds[p]].second + combo[p];
        edge.to = to;
        equivalence_.push_back(edge);
        combo_.push_back(combo[p]);
      }
    }
  }
  // Output nodes have no equivalence in-edges: carry offsets forward.
  in_offset_[nodes] = static_cast<std::uint32_t>(equivalence_.size());
  for (std::size_t v = nodes; v-- > 0;)
    if (nodes_[v].kind == QrgNodeKind::kOut) in_offset_[v] = in_offset_[v + 1];

  out_offset_.assign(nodes + 1, 0);
  for (const QrgEdge& edge : equivalence_) ++out_offset_[edge.from + 1];
  for (std::size_t v = 0; v < nodes; ++v) out_offset_[v + 1] += out_offset_[v];
  equivalence_out_.resize(equivalence_.size());
  {
    std::vector<std::uint32_t> fill(out_offset_.begin(), out_offset_.end() - 1);
    for (std::uint32_t e = 0; e < equivalence_.size(); ++e)
      equivalence_out_[fill[equivalence_[e].from]++] = e;
  }

  // Candidates: every realizable (input, output) operating point, its
  // base requirement flattened into (slot, amount) entries.
  FlatMap<ResourceId, std::uint32_t> slot_of;
  candidates_from_.assign(nodes + 1, 0);
  candidate_in_offset_.assign(nodes + 1, 0);
  dense_base_.resize(n);
  out_count_.resize(n);
  for (ComponentIndex c : topo) {
    const ServiceComponent& component = service.component(c);
    const std::size_t in_count = service.in_level_count(c);
    const std::size_t out_count = component.out_level_count();
    dense_base_[c] = static_cast<std::uint32_t>(dense_.size());
    out_count_[c] = static_cast<std::uint32_t>(out_count);
    dense_.resize(dense_.size() + in_count * out_count, QrgEdge::kNone);
    for (LevelIndex in = 0; in < in_count; ++in) {
      const std::uint32_t from = node_base_[c].first + in;
      candidates_from_[from] = static_cast<std::uint32_t>(candidates_.size());
      for (LevelIndex out = 0; out < out_count; ++out) {
        const auto base = component.requirement(in, out);
        if (!base) continue;  // operating point not realizable
        const std::uint32_t to = node_base_[c].second + out;
        dense_[dense_base_[c] + in * out_count + out] =
            static_cast<std::uint32_t>(candidates_.size());
        candidates_.push_back(
            Candidate{from, to, static_cast<std::uint32_t>(amounts_.size())});
        ++candidate_in_offset_[to + 1];
        for (const auto& [rid, amount] : *base) {
          auto it = slot_of.find(rid);
          if (it == slot_of.end()) {
            slot_of.insert_or_assign(
                rid, static_cast<std::uint32_t>(slot_resources_.size()));
            slot_resources_.push_back(rid);
            it = slot_of.find(rid);
          }
          slots_of_.push_back(it->second);
          amounts_.push_back(amount);
        }
      }
    }
  }
  // Output nodes leave no candidates: carry offsets forward.
  candidates_from_[nodes] = static_cast<std::uint32_t>(candidates_.size());
  for (std::size_t v = nodes; v-- > 0;)
    if (nodes_[v].kind == QrgNodeKind::kOut)
      candidates_from_[v] = candidates_from_[v + 1];
  for (std::size_t v = 0; v < nodes; ++v)
    candidate_in_offset_[v + 1] += candidate_in_offset_[v];

  edge_ids_.resize(equivalence_.size() + candidates_.size());
  for (std::uint32_t e = 0; e < edge_ids_.size(); ++e) edge_ids_[e] = e;
}

ResourceVector CompiledService::requirement(std::uint32_t k,
                                            double scale) const {
  QRES_REQUIRE(k < candidates_.size(),
               "CompiledService::requirement: candidate out of range");
  ResourceVector result;
  const auto slots = requirement_slots(k);
  const double* amounts = requirement_amounts(k);
  for (std::size_t i = 0; i < slots.size(); ++i)
    result.set(slot_resources_[slots[i]], amounts[i] * scale);
  return result;
}

std::vector<SlotObservation> CompiledService::observe(
    const AvailabilityView& view) const {
  std::vector<SlotObservation> slots(slot_resources_.size());
  for (std::size_t s = 0; s < slots.size(); ++s)
    if (view.contains(slot_resources_[s])) {
      const ResourceObservation& obs = view.get(slot_resources_[s]);
      slots[s] = SlotObservation{obs.available, obs.alpha};
    }
  return slots;
}

}  // namespace qres
