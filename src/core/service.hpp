// Distributed services and their Dependency Graphs (paper §2.2, §4.3.2).
//
// A distributed service is a set of collaborating service components whose
// dependency graph is a DAG with a single source component (which consumes
// the original source data) and a single sink component (whose output QoS
// is the end-to-end QoS of the service).
//
// Input-level convention: the input QoS levels of a component are derived
// from its predecessors. For the source component there is exactly one
// input level (index 0): the original quality of the source data. For a
// component with one predecessor, input level i is the predecessor's
// output level i. For a fan-in component with predecessors p_1..p_k
// (ordered by ascending component index), the input levels are the
// row-major flattening of the cross product of the predecessors' output
// levels: combo (l_1, .., l_k) has index
// ((l_1 * |out(p_2)| + l_2) * |out(p_3)| + l_3) * ... . Translation
// functions of fan-in components must follow this convention.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/component.hpp"
#include "core/qos.hpp"

namespace qres {

/// Index of a component within a ServiceDefinition.
using ComponentIndex = std::uint32_t;

class CompiledService;

class ServiceDefinition {
 public:
  /// `edges` are (from, to) component-index pairs of the dependency graph.
  /// `source_quality` is the original quality of the source data (the
  /// single input level of the source component).
  ///
  /// Validates: at least one component, edge indices in range, no
  /// self-loops or duplicate edges, acyclic, exactly one source (in-degree
  /// zero), exactly one sink (out-degree zero), and every component
  /// reachable from the source. Throws ContractViolation otherwise.
  ServiceDefinition(std::string name, std::vector<ServiceComponent> components,
                    std::vector<std::pair<ComponentIndex, ComponentIndex>> edges,
                    QoSVector source_quality);

  /// A copy starts uncompiled (its first Qrg compiles it again); a move
  /// keeps the compiled form.
  ServiceDefinition(const ServiceDefinition& other);
  ServiceDefinition& operator=(const ServiceDefinition& other);
  ServiceDefinition(ServiceDefinition&&) noexcept;
  ServiceDefinition& operator=(ServiceDefinition&&) noexcept;
  ~ServiceDefinition();

  const std::string& name() const noexcept { return name_; }

  std::size_t component_count() const noexcept { return components_.size(); }
  const ServiceComponent& component(ComponentIndex index) const;
  /// Mutable access is for host placement (ServiceComponent::set_host);
  /// what the compiled form captures — levels and translations — must not
  /// change once a Qrg of this service exists.
  ServiceComponent& component(ComponentIndex index);

  const QoSVector& source_quality() const noexcept { return source_quality_; }

  ComponentIndex source() const noexcept { return source_; }
  ComponentIndex sink() const noexcept { return sink_; }

  /// Predecessors in ascending component-index order (the fan-in
  /// concatenation order).
  const std::vector<ComponentIndex>& predecessors(ComponentIndex index) const;
  const std::vector<ComponentIndex>& successors(ComponentIndex index) const;

  /// A topological order of the components (source first, sink last).
  const std::vector<ComponentIndex>& topological_order() const noexcept {
    return topo_order_;
  }

  /// True when the dependency graph is a simple chain (every component has
  /// at most one predecessor and one successor). The basic planner (paper
  /// §4.1) is exact exactly on chains.
  bool is_chain() const noexcept { return is_chain_; }

  /// Number of derived input levels of a component (see the convention in
  /// the file comment).
  std::size_t in_level_count(ComponentIndex index) const;

  /// Decomposes a flat input-level index of `index` into per-predecessor
  /// output-level indices (one per predecessor, in predecessor order).
  /// For the source component the result is empty.
  std::vector<LevelIndex> in_level_combo(ComponentIndex index,
                                         LevelIndex flat) const;

  /// Inverse of in_level_combo.
  LevelIndex flatten_in_level(ComponentIndex index,
                              const std::vector<LevelIndex>& combo) const;

  /// --- End-to-end QoS ranking (paper §4.1.1) -------------------------
  /// The sink's output levels, ranked from best to worst. The paper
  /// assumes end-to-end levels can be linearly ordered (user preference
  /// arbitrates incomparable vectors). Defaults to declaration order of
  /// the sink component's output levels (first = best).
  const std::vector<LevelIndex>& end_to_end_ranking() const noexcept {
    return ranking_;
  }

  /// Replaces the ranking; must be a permutation of the sink's output
  /// level indices. Legal at any time: a Qrg reads the ranking when it is
  /// built, not from the compiled form.
  void set_end_to_end_ranking(std::vector<LevelIndex> ranking);

  /// Rank position of a sink output level (0 = best). Requires the level
  /// to exist.
  std::size_t rank_of(LevelIndex sink_level) const;

  /// The snapshot-independent part of this service's QRG
  /// (core/compiled_service.hpp). Built on the first call, exactly once
  /// even when several threads make the first Qrgs of the service at the
  /// same time; the reference stays valid for the definition's lifetime.
  const CompiledService& compiled() const;

 private:
  std::string name_;
  std::vector<ServiceComponent> components_;
  std::vector<std::vector<ComponentIndex>> preds_;
  std::vector<std::vector<ComponentIndex>> succs_;
  std::vector<ComponentIndex> topo_order_;
  QoSVector source_quality_;
  ComponentIndex source_ = 0;
  ComponentIndex sink_ = 0;
  bool is_chain_ = true;
  std::vector<LevelIndex> ranking_;
  struct CompileCache;
  std::unique_ptr<CompileCache> cache_;
};

}  // namespace qres
