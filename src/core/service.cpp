#include "core/service.hpp"

#include <algorithm>
#include <mutex>
#include <set>

#include "core/compiled_service.hpp"
#include "util/assert.hpp"

namespace qres {

struct ServiceDefinition::CompileCache {
  std::once_flag once;
  std::unique_ptr<const CompiledService> compiled;
};

ServiceDefinition::ServiceDefinition(
    std::string name, std::vector<ServiceComponent> components,
    std::vector<std::pair<ComponentIndex, ComponentIndex>> edges,
    QoSVector source_quality)
    : name_(std::move(name)),
      components_(std::move(components)),
      source_quality_(std::move(source_quality)),
      cache_(std::make_unique<CompileCache>()) {
  QRES_REQUIRE(!name_.empty(), "ServiceDefinition: name must be non-empty");
  QRES_REQUIRE(!components_.empty(),
               "ServiceDefinition: at least one component required");
  const std::size_t n = components_.size();
  preds_.resize(n);
  succs_.resize(n);

  std::set<std::pair<ComponentIndex, ComponentIndex>> seen;
  for (const auto& [from, to] : edges) {
    QRES_REQUIRE(from < n && to < n,
                 "ServiceDefinition: edge endpoint out of range");
    QRES_REQUIRE(from != to, "ServiceDefinition: self-loop edge");
    QRES_REQUIRE(seen.insert({from, to}).second,
                 "ServiceDefinition: duplicate edge");
    succs_[from].push_back(to);
    preds_[to].push_back(from);
  }
  for (auto& p : preds_) std::sort(p.begin(), p.end());
  for (auto& s : succs_) std::sort(s.begin(), s.end());

  // Kahn's algorithm: topological order + acyclicity check.
  std::vector<std::size_t> indegree(n);
  for (std::size_t i = 0; i < n; ++i) indegree[i] = preds_[i].size();
  std::vector<ComponentIndex> frontier;
  for (std::size_t i = 0; i < n; ++i)
    if (indegree[i] == 0) frontier.push_back(static_cast<ComponentIndex>(i));
  QRES_REQUIRE(frontier.size() == 1,
               "ServiceDefinition: exactly one source component required");
  source_ = frontier.front();
  topo_order_.reserve(n);
  // Pop the smallest index first for a deterministic order.
  while (!frontier.empty()) {
    std::sort(frontier.begin(), frontier.end());
    const ComponentIndex c = frontier.front();
    frontier.erase(frontier.begin());
    topo_order_.push_back(c);
    for (ComponentIndex next : succs_[c])
      if (--indegree[next] == 0) frontier.push_back(next);
  }
  QRES_REQUIRE(topo_order_.size() == n,
               "ServiceDefinition: dependency graph must be acyclic and "
               "connected from the source");

  std::size_t sinks = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (succs_[i].empty()) {
      sink_ = static_cast<ComponentIndex>(i);
      ++sinks;
    }
    if (preds_[i].size() > 1 || succs_[i].size() > 1) is_chain_ = false;
  }
  QRES_REQUIRE(sinks == 1,
               "ServiceDefinition: exactly one sink component required");

  ranking_.resize(components_[sink_].out_level_count());
  for (std::size_t i = 0; i < ranking_.size(); ++i)
    ranking_[i] = static_cast<LevelIndex>(i);
}

ServiceDefinition::ServiceDefinition(const ServiceDefinition& other)
    : name_(other.name_),
      components_(other.components_),
      preds_(other.preds_),
      succs_(other.succs_),
      topo_order_(other.topo_order_),
      source_quality_(other.source_quality_),
      source_(other.source_),
      sink_(other.sink_),
      is_chain_(other.is_chain_),
      ranking_(other.ranking_),
      cache_(std::make_unique<CompileCache>()) {}

ServiceDefinition& ServiceDefinition::operator=(
    const ServiceDefinition& other) {
  if (this != &other) *this = ServiceDefinition(other);
  return *this;
}

ServiceDefinition::ServiceDefinition(ServiceDefinition&&) noexcept = default;
ServiceDefinition& ServiceDefinition::operator=(ServiceDefinition&&) noexcept =
    default;
ServiceDefinition::~ServiceDefinition() = default;

const CompiledService& ServiceDefinition::compiled() const {
  QRES_REQUIRE(cache_ != nullptr, "ServiceDefinition: moved-from definition");
  std::call_once(cache_->once, [this] {
    cache_->compiled = std::make_unique<const CompiledService>(*this);
  });
  return *cache_->compiled;
}

const ServiceComponent& ServiceDefinition::component(
    ComponentIndex index) const {
  QRES_REQUIRE(index < components_.size(),
               "ServiceDefinition::component: index out of range");
  return components_[index];
}

ServiceComponent& ServiceDefinition::component(ComponentIndex index) {
  QRES_REQUIRE(index < components_.size(),
               "ServiceDefinition::component: index out of range");
  return components_[index];
}

const std::vector<ComponentIndex>& ServiceDefinition::predecessors(
    ComponentIndex index) const {
  QRES_REQUIRE(index < components_.size(),
               "ServiceDefinition::predecessors: index out of range");
  return preds_[index];
}

const std::vector<ComponentIndex>& ServiceDefinition::successors(
    ComponentIndex index) const {
  QRES_REQUIRE(index < components_.size(),
               "ServiceDefinition::successors: index out of range");
  return succs_[index];
}

std::size_t ServiceDefinition::in_level_count(ComponentIndex index) const {
  const auto& preds = predecessors(index);
  if (preds.empty()) return 1;  // the source component: the source quality
  std::size_t count = 1;
  for (ComponentIndex p : preds) count *= components_[p].out_level_count();
  return count;
}

std::vector<LevelIndex> ServiceDefinition::in_level_combo(
    ComponentIndex index, LevelIndex flat) const {
  const auto& preds = predecessors(index);
  QRES_REQUIRE(flat < in_level_count(index),
               "ServiceDefinition::in_level_combo: flat index out of range");
  std::vector<LevelIndex> combo(preds.size());
  // Row-major: the last predecessor varies fastest.
  std::size_t remainder = flat;
  for (std::size_t i = preds.size(); i-- > 0;) {
    const std::size_t base = components_[preds[i]].out_level_count();
    combo[i] = static_cast<LevelIndex>(remainder % base);
    remainder /= base;
  }
  return combo;
}

LevelIndex ServiceDefinition::flatten_in_level(
    ComponentIndex index, const std::vector<LevelIndex>& combo) const {
  const auto& preds = predecessors(index);
  QRES_REQUIRE(combo.size() == preds.size(),
               "ServiceDefinition::flatten_in_level: combo arity mismatch");
  std::size_t flat = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const std::size_t base = components_[preds[i]].out_level_count();
    QRES_REQUIRE(combo[i] < base,
                 "ServiceDefinition::flatten_in_level: level out of range");
    flat = flat * base + combo[i];
  }
  return static_cast<LevelIndex>(flat);
}

void ServiceDefinition::set_end_to_end_ranking(
    std::vector<LevelIndex> ranking) {
  const std::size_t levels = components_[sink_].out_level_count();
  QRES_REQUIRE(ranking.size() == levels,
               "set_end_to_end_ranking: must rank every sink output level");
  std::vector<bool> used(levels, false);
  for (LevelIndex level : ranking) {
    QRES_REQUIRE(level < levels, "set_end_to_end_ranking: level out of range");
    QRES_REQUIRE(!used[level], "set_end_to_end_ranking: duplicate level");
    used[level] = true;
  }
  ranking_ = std::move(ranking);
}

std::size_t ServiceDefinition::rank_of(LevelIndex sink_level) const {
  for (std::size_t i = 0; i < ranking_.size(); ++i)
    if (ranking_[i] == sink_level) return i;
  QRES_REQUIRE(false, "rank_of: unknown sink level");
  return ranking_.size();  // unreachable
}

}  // namespace qres
