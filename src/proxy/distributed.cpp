#include "proxy/distributed.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace qres {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

ComponentAgent::ComponentAgent(const ServiceDefinition* service,
                               ComponentIndex index,
                               std::vector<ResourceId> local_footprint,
                               BrokerRegistry* registry)
    : service_(service),
      index_(index),
      footprint_(std::move(local_footprint)),
      registry_(registry) {
  QRES_REQUIRE(service != nullptr, "ComponentAgent: null service");
  QRES_REQUIRE(index < service->component_count(),
               "ComponentAgent: component out of range");
  QRES_REQUIRE(registry != nullptr, "ComponentAgent: null registry");
  QRES_REQUIRE(!footprint_.empty(), "ComponentAgent: empty footprint");
}

ForwardMessage ComponentAgent::forward(const ForwardMessage& upstream,
                                       double now, double scale,
                                       PsiKind psi_kind,
                                       const PlannerOptions& options) {
  QRES_REQUIRE(!upstream.out_labels.empty(),
               "ComponentAgent::forward: empty upstream frontier");
  QRES_REQUIRE(scale >= 0.0, "ComponentAgent::forward: negative scale");
  chosen_.reset();
  scale_ = scale;
  // Local availability observation (phase-1 equivalent, but local only):
  // resources outside the footprint stay missing.
  const CompiledService& compiled = service_->compiled();
  const std::vector<SlotObservation> slots =
      compiled.observe(registry_->collect(footprint_, now));

  const std::uint32_t in_base = compiled.in_base(index_);
  const std::uint32_t out_base = compiled.out_base(index_);
  QRES_REQUIRE(upstream.out_labels.size() == out_base - in_base,
               "ComponentAgent::forward: frontier does not match the "
               "component's input levels");
  const std::size_t out_count =
      service_->component(index_).out_level_count();
  out_states_.assign(out_count, OutState{});
  std::vector<double> best_edge_psi(out_count, kInf);

  // The component's operating points, in (input, output) order.
  for (std::uint32_t k = compiled.candidates_from(in_base);
       k < compiled.candidates_from(out_base); ++k) {
    const CompiledService::Candidate& candidate = compiled.candidate(k);
    const LevelIndex in = candidate.from - in_base;
    const LevelIndex out = candidate.to - out_base;
    const FrontierLabel& in_label = upstream.out_labels[in];
    if (!in_label.reachable) continue;
    const EdgeWeight weight = weigh_requirement(
        compiled.requirement_slots(k), compiled.requirement_amounts(k), scale,
        slots.data(), psi_kind);
    QRES_REQUIRE(weight.missing == EdgeWeight::kNoSlot,
                 "ComponentAgent: translation references a resource "
                 "outside the local footprint");
    if (!weight.feasible) continue;

    const double psi = weight.psi;
    const double candidate_value = std::max(in_label.value, psi);
    OutState& state = out_states_[out];
    bool better =
        !state.label.reachable || candidate_value < state.label.value;
    if (!better && options.use_tie_break && state.label.reachable &&
        candidate_value == state.label.value)
      better = psi < best_edge_psi[out];
    if (!better) continue;
    state.label.reachable = true;
    state.label.value = candidate_value;
    if (psi >= in_label.value) {
      state.label.bottleneck = compiled.slot_resource(weight.bottleneck);
      state.label.alpha = weight.alpha;
    } else {
      state.label.bottleneck = in_label.bottleneck;
      state.label.alpha = in_label.alpha;
    }
    state.pred_in = in;
    state.candidate = k;
    state.edge_psi = psi;
    best_edge_psi[out] = psi;
  }

  ForwardMessage message;
  message.out_labels.reserve(out_count);
  for (const OutState& state : out_states_)
    message.out_labels.push_back(state.label);
  return message;
}

BackwardMessage ComponentAgent::backward(const BackwardMessage& demand) {
  QRES_REQUIRE(demand.demanded_out < out_states_.size(),
               "ComponentAgent::backward: demand out of range");
  const OutState& state = out_states_[demand.demanded_out];
  QRES_REQUIRE(state.label.reachable,
               "ComponentAgent::backward: demanded level is unreachable");
  PlanStep step;
  step.component = index_;
  step.in_level = state.pred_in;
  step.out_level = demand.demanded_out;
  step.requirement = service_->compiled().requirement(state.candidate, scale_);
  step.psi = state.edge_psi;
  chosen_ = step;
  return BackwardMessage{state.pred_in};
}

const PlanStep& ComponentAgent::chosen_step() const {
  QRES_REQUIRE(chosen_.has_value(),
               "ComponentAgent: no operating point chosen yet");
  return *chosen_;
}

bool ComponentAgent::reserve(SessionId session, double now, double lease,
                             ResourceId* failed) {
  const PlanStep& step = chosen_step();
  std::vector<std::pair<ResourceId, double>> taken;
  for (const auto& [rid, amount] : step.requirement) {
    const bool ok =
        lease > 0.0
            ? registry_->broker(rid).reserve_leased(now, session, amount,
                                                    lease)
            : registry_->broker(rid).reserve(now, session, amount);
    if (!ok) {
      for (const auto& [id, held] : taken)
        registry_->broker(id).release_amount(now, session, held);
      if (failed) *failed = rid;
      return false;
    }
    taken.push_back({rid, amount});
  }
  return true;
}

void ComponentAgent::release(SessionId session, double now) {
  const PlanStep& step = chosen_step();
  for (const auto& [rid, amount] : step.requirement)
    registry_->broker(rid).release_amount(now, session, amount);
}

DistributedSession::DistributedSession(
    const ServiceDefinition* service,
    std::vector<std::vector<ResourceId>> per_component_footprint,
    BrokerRegistry* registry, PsiKind psi_kind, PlannerOptions options)
    : service_(service),
      registry_(registry),
      psi_kind_(psi_kind),
      options_(options) {
  QRES_REQUIRE(service != nullptr, "DistributedSession: null service");
  QRES_REQUIRE(registry != nullptr, "DistributedSession: null registry");
  QRES_REQUIRE(service->is_chain(),
               "DistributedSession: chain services only (the paper's "
               "distributed mode predates the DAG extension)");
  QRES_REQUIRE(per_component_footprint.size() == service->component_count(),
               "DistributedSession: one footprint per component required");
  agents_.reserve(service->component_count());
  for (ComponentIndex c : service->topological_order())
    agents_.emplace_back(service, c, per_component_footprint[c], registry);
}

void DistributedSession::attach_faults(IControlTransport* transport) {
  QRES_REQUIRE(transport != nullptr, "attach_faults: null transport");
  // Every protocol hop goes through the RPC shim; with the default config
  // (breaker disabled, no deadline) the shim is bit-identical to a direct
  // exchange.
  channel_ = std::make_unique<rpc::RpcChannel>(transport, nullptr, nullptr);
}

void DistributedSession::enable_leases(double lease_duration) {
  QRES_REQUIRE(lease_duration > 0.0,
               "enable_leases: lease duration must be positive");
  lease_ = lease_duration;
}

HostId DistributedSession::agent_host(std::size_t i) const {
  return agents_[i].service_->component(agents_[i].index_).host();
}

bool DistributedSession::protocol_exchange(HostId from, HostId to,
                                           double now,
                                           CoordinationStats& stats) {
  if (!channel_ || !from.valid() || !to.valid() || from == to) return true;
  const ExchangeResult result = channel_->ping(from, to, now);
  if (!result.ok()) {
    ++stats.unreachable_proxies;
    return false;
  }
  // Retransmission accounting counts only attempts that got through
  // (failed trains surface as unreachable_proxies, as before).
  if (result.transmissions > 1)
    stats.retransmissions += static_cast<std::size_t>(result.transmissions - 1);
  return true;
}

EstablishResult DistributedSession::establish(SessionId session, double now,
                                              double scale,
                                              bool use_tradeoff) {
  EstablishResult result;
  result.stats.participating_proxies = agents_.size();

  // Forward pass: the source frontier is the single source-quality label.
  // Under faults each hop-to-hop message is one RPC; an unreachable
  // neighbor kills the pass (there is no one to carry the frontier on).
  ForwardMessage frontier;
  frontier.out_labels.push_back(FrontierLabel{true, 0.0, 1.0, ResourceId{}});
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    if (i > 0) {
      if (!protocol_exchange(agent_host(i - 1), agent_host(i), now,
                             result.stats)) {
        result.outcome = EstablishOutcome::kUnreachable;
        result.failed_resource = agents_[i].footprint_.front();
        return result;
      }
      ++result.stats.availability_messages;
    }
    frontier = agents_[i].forward(frontier, now, scale, psi_kind_, options_);
  }

  // Sink decision: sink infos in rank order.
  const auto& ranking = service_->end_to_end_ranking();
  result.sinks.reserve(ranking.size());
  std::size_t best_rank = ranking.size();
  for (std::size_t rank = 0; rank < ranking.size(); ++rank) {
    const FrontierLabel& label = frontier.out_labels[ranking[rank]];
    SinkInfo info;
    info.level = ranking[rank];
    info.rank = rank;
    info.reachable = label.reachable;
    info.psi = label.reachable ? label.value : 0.0;
    info.alpha = label.alpha;
    info.bottleneck = label.bottleneck;
    result.sinks.push_back(info);
    if (label.reachable && best_rank == ranking.size()) best_rank = rank;
  }
  if (best_rank == ranking.size()) return result;  // nothing reachable

  std::size_t target = best_rank;
  if (use_tradeoff && result.sinks[best_rank].alpha < 1.0) {
    const double budget =
        result.sinks[best_rank].alpha * result.sinks[best_rank].psi;
    for (std::size_t rank = best_rank; rank < result.sinks.size(); ++rank) {
      if (!result.sinks[rank].reachable) continue;
      if (result.sinks[rank].psi <= budget) {
        target = rank;
        break;
      }
    }
  }

  // Backward pass: demand flows sink -> source, one RPC per hop.
  BackwardMessage demand{ranking[target]};
  for (std::size_t i = agents_.size(); i-- > 0;) {
    if (i + 1 < agents_.size()) {
      if (!protocol_exchange(agent_host(i + 1), agent_host(i), now,
                             result.stats)) {
        result.outcome = EstablishOutcome::kUnreachable;
        result.failed_resource = agents_[i].footprint_.front();
        return result;
      }
      ++result.stats.dispatch_messages;
    }
    demand = agents_[i].backward(demand);
  }

  // Assemble the plan from the fixed operating points.
  ReservationPlan plan;
  plan.steps.reserve(agents_.size());
  double bottleneck = -1.0;
  for (const ComponentAgent& agent : agents_) {
    const PlanStep& step = agent.chosen_step();
    plan.steps.push_back(step);
    if (step.psi > bottleneck) bottleneck = step.psi;
  }
  plan.bottleneck_psi = bottleneck < 0.0 ? 0.0 : bottleneck;
  plan.bottleneck_resource = result.sinks[target].bottleneck;
  plan.bottleneck_alpha = result.sinks[target].alpha;
  plan.end_to_end_level = ranking[target];
  plan.end_to_end_rank = target;
  result.plan = std::move(plan);

  // Reserve pass: the sink proxy (which fixed the operating point)
  // dispatches one commit RPC per proxy; each commits its own segment.
  // Abort on failure, admission or unreachable alike.
  const HostId sink_host = agent_host(agents_.size() - 1);
  std::size_t committed = 0;
  bool ok = true;
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    if (!protocol_exchange(sink_host, agent_host(i), now, result.stats)) {
      result.outcome = EstablishOutcome::kUnreachable;
      result.failed_resource = agents_[i].footprint_.front();
      ok = false;
      break;
    }
    ++result.stats.reservations_attempted;
    ResourceId rejected;
    if (!agents_[i].reserve(session, now, lease_, &rejected)) {
      result.outcome = EstablishOutcome::kAdmission;
      result.failed_resource = rejected;
      ok = false;
      break;
    }
    ++committed;
  }
  if (!ok) {
    // Roll back the committed segments. A rollback release is an RPC
    // too; a proxy that has since become unreachable keeps its segment
    // until the lease expires — reported via result.leaked.
    for (std::size_t i = 0; i < committed; ++i) {
      if (!protocol_exchange(sink_host, agent_host(i), now, result.stats)) {
        for (const auto& [rid, amount] :
             agents_[i].chosen_step().requirement)
          result.leaked.push_back({rid, amount});
        continue;
      }
      agents_[i].release(session, now);
      ++result.stats.reservations_rolled_back;
    }
    return result;
  }
  result.success = true;
  result.outcome = EstablishOutcome::kOk;
  for (const PlanStep& step : result.plan->steps)
    for (const auto& [rid, amount] : step.requirement)
      result.holdings.push_back({rid, amount});
  return result;
}

void DistributedSession::teardown(
    const std::vector<std::pair<ResourceId, double>>& holdings,
    SessionId session, double now) {
  for (const auto& [id, amount] : holdings)
    registry_->broker(id).release_amount(now, session, amount);
}

}  // namespace qres
