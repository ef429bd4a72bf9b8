#include "proxy/qos_proxy.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/flat_map.hpp"

namespace qres {

const char* to_string(EstablishOutcome outcome) noexcept {
  switch (outcome) {
    case EstablishOutcome::kOk: return "ok";
    case EstablishOutcome::kNoPlan: return "no-plan";
    case EstablishOutcome::kAdmission: return "admission";
    case EstablishOutcome::kUnreachable: return "unreachable";
    case EstablishOutcome::kOverload: return "overload";
    case EstablishOutcome::kBrokerUnavailable: return "broker-unavailable";
  }
  return "?";
}

const char* to_string(
    SessionCoordinator::ReconcileResolution resolution) noexcept {
  using R = SessionCoordinator::ReconcileResolution;
  switch (resolution) {
    case R::kConfirmed: return "confirmed";
    case R::kLostClaim: return "lost-claim";
    case R::kOrphanReleased: return "orphan-released";
    case R::kExcessReleased: return "excess-released";
    case R::kRpcFailed: return "rpc-failed";
  }
  return "?";
}

SessionCoordinator::SessionCoordinator(const ServiceDefinition* service,
                                       std::vector<ResourceId> footprint,
                                       BrokerRegistry* registry,
                                       PsiKind psi_kind)
    : service_(service),
      footprint_(std::move(footprint)),
      registry_(registry),
      psi_kind_(psi_kind) {
  QRES_REQUIRE(service != nullptr, "SessionCoordinator: null service");
  QRES_REQUIRE(registry != nullptr, "SessionCoordinator: null registry");
  QRES_REQUIRE(!footprint_.empty(),
               "SessionCoordinator: empty resource footprint");
  // Overhead accounting (§4.2): one availability round trip per
  // participating proxy (distinct component host).
  std::size_t hosts = 0;
  for (ComponentIndex c = 0; c < service_->component_count(); ++c) {
    const HostId host = service_->component(c).host();
    bool seen = !host.valid();
    for (ComponentIndex d = 0; d < c && !seen; ++d)
      seen = service_->component(d).host() == host;
    if (!seen) ++hosts;
  }
  if (hosts > 0) participating_proxies_ = hosts;
}

void SessionCoordinator::attach_rpc_service(rpc::BrokerService* service,
                                            HostId main_host,
                                            IControlTransport* transport,
                                            rpc::IFrameFaults* faults,
                                            rpc::RpcChannel::Config config) {
  QRES_REQUIRE(service != nullptr, "attach_rpc_service: null service");
  QRES_REQUIRE(main_host.valid(), "attach_rpc_service: invalid main host");
  channel_ =
      std::make_unique<rpc::RpcChannel>(transport, service, faults, config);
  main_host_ = main_host;
}

rpc::RpcChannel& SessionCoordinator::channel() {
  if (!channel_) {
    // Without a transport or frame faults nothing is ever redelivered, so
    // the loopback's replay cache only needs to exist, not to be large.
    rpc::BrokerService::Config config;
    config.dedup_capacity = 16;
    loopback_ = std::make_unique<rpc::BrokerService>(registry_, config);
    channel_ =
        std::make_unique<rpc::RpcChannel>(nullptr, loopback_.get(), nullptr);
    main_host_ = service_->component(0).host();
  }
  return *channel_;
}

void SessionCoordinator::set_rpc_deadline(double budget) {
  QRES_REQUIRE(budget > 0.0, "set_rpc_deadline: budget must be positive");
  rpc_deadline_budget_ = budget;
}

double SessionCoordinator::rpc_deadline(double now) const {
  return now + rpc_deadline_budget_;
}

void SessionCoordinator::enable_leases(double lease_duration) {
  QRES_REQUIRE(lease_duration > 0.0,
               "enable_leases: lease duration must be positive");
  lease_ = lease_duration;
}

void SessionCoordinator::observe_footprint(
    double now, const std::function<double(ResourceId)>& staleness,
    const std::vector<ResourceId>& dead, PlanningSnapshot* snapshot) {
  rpc::RpcChannel& rpc = channel();
  const ResourceCatalog& catalog = registry_->catalog();
  CoordinationStats& stats = snapshot->stats;
  stats.participating_proxies = participating_proxies_;
  stats.availability_messages = participating_proxies_;

  // Observation times exactly as BrokerRegistry::collect computes them:
  // one staleness call per up resource, in footprint order, clamped at 0
  // (the draw order is part of the figure-12 determinism contract).
  std::vector<double> observe_at;
  if (staleness) {
    observe_at.assign(footprint_.size(), now);
    for (std::size_t i = 0; i < footprint_.size(); ++i) {
      if (!registry_->broker(footprint_[i]).up()) continue;
      const double lag = staleness(footprint_[i]);
      QRES_REQUIRE(lag >= 0.0, "SessionCoordinator: negative staleness");
      observe_at[i] = std::max(0.0, now - lag);
    }
  }
  const auto time_of = [&](std::size_t i) {
    return observe_at.empty() ? now : observe_at[i];
  };
  const auto remote = [&](ResourceId id) {
    const HostId owner = catalog.host(id);
    return owner.valid() && owner != main_host_;
  };

  // Each remote owner answers one QueryRequest for all its footprint
  // resources. A proxy that cannot be reached contributes zero
  // availability for its resources (the main proxy has no report to plan
  // from), so the planner routes around it instead of reserving blind.
  std::vector<rpc::QuerySample> samples;
  for (std::size_t i = 0; i < footprint_.size(); ++i) {
    const HostId owner = catalog.host(footprint_[i]);
    if (!remote(footprint_[i])) continue;
    bool polled = false;
    for (std::size_t j = 0; j < i && !polled; ++j)
      polled = catalog.host(footprint_[j]) == owner;
    if (polled) continue;
    rpc::QueryRequest request;
    request.header.deadline = rpc_deadline(now);
    for (std::size_t j = i; j < footprint_.size(); ++j)
      if (catalog.host(footprint_[j]) == owner)
        request.entries.push_back({footprint_[j].value(), time_of(j)});
    const rpc::CallResult result =
        rpc.call(main_host_, owner, std::move(request), now);
    const auto* reply = result.ok()
                            ? std::get_if<rpc::QueryReply>(&result.reply)
                            : nullptr;
    if (reply == nullptr || reply->code != rpc::RpcCode::kOk) {
      ++stats.unreachable_proxies;
      continue;
    }
    if (result.transmissions > 1)
      stats.retransmissions += static_cast<std::size_t>(result.transmissions - 1);
    samples.insert(samples.end(), reply->samples.begin(),
                   reply->samples.end());
  }

  // Fold the remote samples and the main-local observations into the view
  // in footprint order. A remote resource without a sample (its owner was
  // unreachable) is pinned at zero. A down broker is never observed (its
  // observe() aborts by contract: unavailable, never "empty"); it is
  // pinned at zero and recorded, so kBrokerUnavailable can be attributed
  // when that routing finds no plan.
  AvailabilityView& view = snapshot->view;
  for (std::size_t i = 0; i < footprint_.size(); ++i) {
    const ResourceId id = footprint_[i];
    bool up = false;
    if (remote(id)) {
      const auto it =
          std::find_if(samples.begin(), samples.end(),
                       [&](const rpc::QuerySample& sample) {
                         return sample.resource == id.value();
                       });
      if (it == samples.end()) {
        view.set(id, 0.0, 1.0);
        continue;
      }
      up = it->up != 0;
      if (up) view.set(id, it->available, it->alpha);
    } else {
      IBroker& broker = registry_->broker(id);
      up = broker.up();
      if (up) {
        const ResourceObservation obs = broker.observe(time_of(i));
        view.set(id, obs.available, obs.alpha);
      }
    }
    if (!up) {
      snapshot->down.push_back(id);
      view.set(id, 0.0, 1.0);
    }
  }
  for (ResourceId id : dead) view.set(id, 0.0, 1.0);
}

bool SessionCoordinator::routed_ok(ResourceId id,
                                   const rpc::RoutedResult& routed,
                                   CoordinationStats* stats) {
  if (!routed.ok()) {
    if (stats) ++stats->unreachable_proxies;
    return false;
  }
  const rpc::CallResult& result = routed.result;
  if (stats && result.transmissions > 1)
    stats->retransmissions += static_cast<std::size_t>(result.transmissions - 1);
  if (const auto* redirect = std::get_if<rpc::RedirectReply>(&result.reply)) {
    // Redirect chain did not converge (hint-less or looping): learn what
    // the refuser knew so the next attempt routes to the new primary,
    // and report a retryable fault.
    if (directory_ != nullptr)
      directory_->update(id, redirect->epoch, HostId{redirect->primary_host});
    if (stats) ++stats->unreachable_proxies;
    return false;
  }
  if (routed.redirects > 0 && directory_ != nullptr)
    directory_->update(id, routed.epoch_hint, routed.served_by);
  return true;
}

EstablishOutcome SessionCoordinator::dispatch_reserve(
    ResourceId id, double now, SessionId session, double amount,
    CoordinationStats* stats) {
  rpc::ReserveRequest request;
  request.header.session = session.value();
  request.header.deadline = rpc_deadline(now);
  request.resource = id.value();
  request.amount = amount;
  request.lease = lease_;
  std::uint64_t epoch = 0;
  const HostId to = route_for(id, &epoch);
  request.header.epoch = epoch;
  const rpc::RoutedResult routed =
      channel().call_routed(main_host_, to, std::move(request), now);
  const auto* reply =
      routed_ok(id, routed, stats)
          ? std::get_if<rpc::ReserveReply>(&routed.result.reply)
          : nullptr;
  if (reply == nullptr) return EstablishOutcome::kUnreachable;
  switch (reply->code) {
    case rpc::RpcCode::kOk:
      ++stats->reservations_attempted;
      return EstablishOutcome::kOk;
    case rpc::RpcCode::kAdmissionReject:
      ++stats->reservations_attempted;
      return EstablishOutcome::kAdmission;
    case rpc::RpcCode::kBrokerDown:
      return EstablishOutcome::kBrokerUnavailable;
    case rpc::RpcCode::kBadRequest:
    case rpc::RpcCode::kDeadlineExceeded:
    case rpc::RpcCode::kBackpressure:
    case rpc::RpcCode::kNotPrimary:
      // The dispatch never took effect — retryable, like an unreachable
      // owner.
      ++stats->unreachable_proxies;
      return EstablishOutcome::kUnreachable;
  }
  return EstablishOutcome::kUnreachable;  // out-of-range code from a peer
}

bool SessionCoordinator::dispatch_release(ResourceId id, double now,
                                          SessionId session, double amount,
                                          CoordinationStats* stats) {
  rpc::ReleaseRequest request;
  request.header.session = session.value();
  request.header.deadline = rpc_deadline(now);
  request.resource = id.value();
  request.release_all = 0;
  request.amount = amount;
  std::uint64_t epoch = 0;
  const HostId to = route_for(id, &epoch);
  request.header.epoch = epoch;
  const rpc::RoutedResult routed =
      channel().call_routed(main_host_, to, std::move(request), now);
  if (!routed_ok(id, routed, stats)) return false;
  const auto* reply = std::get_if<rpc::ReleaseReply>(&routed.result.reply);
  return reply != nullptr && reply->code == rpc::RpcCode::kOk;
}

bool SessionCoordinator::reserve_all(
    const ResourceVector& amounts, SessionId session, double now,
    EstablishResult* result,
    std::vector<std::pair<ResourceId, double>>* reserved) {
  reserved->reserve(amounts.size());
  for (const auto& [id, amount] : amounts) {
    // A plan cannot normally require a down broker (its availability was
    // pinned at zero), but a zero-amount segment can slip through — the
    // dispatch types it as the outage it is.
    const EstablishOutcome outcome =
        dispatch_reserve(id, now, session, amount, &result->stats);
    if (outcome == EstablishOutcome::kOk) {
      reserved->push_back({id, amount});
      continue;
    }
    result->outcome = outcome;
    result->failed_resource = id;
    // Roll back everything reserved for this session so far. A rollback
    // release is itself an RPC; if the owning proxy has become
    // unreachable (or its broker went down, in which case the journal
    // will resurrect the holding at restart) the release cannot be
    // delivered and the reservation leaks until its lease expires or
    // reconciliation reclaims it — reported via result->leaked so the
    // caller (and the auditor) can account for it.
    for (const auto& [held, held_amount] : *reserved) {
      if (!dispatch_release(held, now, session, held_amount,
                            &result->stats)) {
        result->leaked.push_back({held, held_amount});
        continue;
      }
      ++result->stats.reservations_rolled_back;
    }
    reserved->clear();
    return false;
  }
  return true;
}

HostId SessionCoordinator::route_for(ResourceId id,
                                     std::uint64_t* epoch) const {
  if (directory_ != nullptr) {
    if (const ReplicationDirectory::Entry* entry = directory_->find(id)) {
      if (epoch != nullptr) *epoch = entry->epoch;
      if (entry->primary.valid()) return entry->primary;
    }
  }
  const HostId owner = registry_->catalog().host(id);
  return owner.valid() ? owner : main_host_;
}

SessionCoordinator::PlanningSnapshot SessionCoordinator::snapshot_for_planning(
    double now, const std::function<double(ResourceId)>& staleness,
    const std::vector<ResourceId>& dead) {
  PlanningSnapshot snapshot;
  if (governor_ && governor_->should_reject(now, priority_hint_)) {
    snapshot.overloaded = true;
    return snapshot;
  }
  observe_footprint(now, staleness, dead, &snapshot);
  return snapshot;
}

PlanResult SessionCoordinator::plan_on_snapshot(
    const PlanningSnapshot& snapshot, const IPlanner& planner, Rng& rng,
    double scale) const {
  QRES_REQUIRE(!snapshot.overloaded,
               "plan_on_snapshot: snapshot was governor-rejected");
  // Phase 2: build the QRG and run the algorithm at the main proxy. Pure
  // function of (snapshot, planner, rng, scale): no coordinator or
  // broker state is touched, which is what lets batch admission run this
  // phase on ThreadPool workers.
  const Qrg qrg(*service_, snapshot.view, psi_kind_, scale);
  return planner.plan(qrg, rng);
}

EstablishResult SessionCoordinator::commit_planned(
    SessionId session, double now, const PlanningSnapshot& snapshot,
    PlanResult planned) {
  EstablishResult result;
  if (snapshot.overloaded) {
    result.outcome = EstablishOutcome::kOverload;
    return result;
  }
  result.stats = snapshot.stats;
  result.sinks = std::move(planned.sinks);
  if (!planned.plan) {
    // No feasible end-to-end plan. With a broker outage in the footprint
    // the rejection is typed as the fault it may well be, not as a plain
    // capacity rejection.
    if (!snapshot.down.empty()) {
      result.outcome = EstablishOutcome::kBrokerUnavailable;
      result.failed_resource = snapshot.down.front();
    }
    return result;
  }
  result.plan = std::move(planned.plan);

  // Phase 3: dispatch plan segments; all-or-nothing reservation. An
  // unreachable owner aborts the establishment like an admission
  // failure, except the outcome is retryable (EstablishPolicy's replans
  // route around it).
  result.stats.dispatch_messages = result.plan->steps.size();
  if (!reserve_all(result.plan->total_requirement(), session, now, &result,
                   &result.holdings))
    return result;
  result.success = true;
  result.outcome = EstablishOutcome::kOk;
  return result;
}

namespace {

/// Same operating point at every component (what makes two plans of one
/// QRG the same plan).
bool same_plan(const ReservationPlan& a, const ReservationPlan& b) {
  if (a.steps.size() != b.steps.size()) return false;
  for (std::size_t i = 0; i < a.steps.size(); ++i)
    if (a.steps[i].component != b.steps[i].component ||
        a.steps[i].in_level != b.steps[i].in_level ||
        a.steps[i].out_level != b.steps[i].out_level)
      return false;
  return true;
}

}  // namespace

EstablishResult SessionCoordinator::establish_round(
    SessionId session, double now, const IPlanner& planner, Rng& rng,
    double scale, const std::function<double(ResourceId)>& staleness,
    const std::vector<ResourceId>& dead, std::size_t fallback_attempts) {
  const PlanningSnapshot snapshot =
      snapshot_for_planning(now, staleness, dead);
  if (snapshot.overloaded)
    return commit_planned(session, now, snapshot, PlanResult{});
  if (fallback_attempts == 1)
    return commit_planned(session, now, snapshot,
                          plan_on_snapshot(snapshot, planner, rng, scale));

  // Plan fallback: when the planner's choice is rejected by admission
  // (its stale observation overstated some resource), dispatch the
  // next-cheapest feasible plans of the same, then lower-ranked, levels
  // from the same snapshot.
  const Qrg qrg(*service_, snapshot.view, psi_kind_, scale);
  EstablishResult result =
      commit_planned(session, now, snapshot, planner.plan(qrg, rng));
  if (result.outcome != EstablishOutcome::kAdmission) return result;
  std::size_t attempts_left = fallback_attempts - 1;
  const std::vector<std::uint32_t>& ranked = qrg.ranked_sink_nodes();
  for (std::size_t rank = result.plan->end_to_end_rank;
       rank < result.sinks.size() && attempts_left > 0; ++rank) {
    if (!result.sinks[rank].reachable) continue;
    for (ReservationPlan& plan :
         enumerate_plans(qrg, ranked[rank], attempts_left + 1)) {
      if (attempts_left == 0) break;
      if (same_plan(plan, *result.plan)) continue;  // the first choice
      --attempts_left;
      result.stats.dispatch_messages += plan.steps.size();
      if (reserve_all(plan.total_requirement(), session, now, &result,
                      &result.holdings)) {
        result.success = true;
        result.outcome = EstablishOutcome::kOk;
        result.plan = std::move(plan);  // what was actually reserved
        return result;
      }
      if (result.outcome != EstablishOutcome::kAdmission) return result;
    }
  }
  return result;
}

EstablishResult SessionCoordinator::establish(
    SessionId session, double now, const IPlanner& planner, Rng& rng,
    double scale, const std::function<double(ResourceId)>& staleness,
    EstablishPolicy policy) {
  QRES_REQUIRE(policy.fallback_attempts >= 1,
               "establish: at least one plan attempt required");
  QRES_REQUIRE(policy.fallback_attempts == 1 || service_->is_chain(),
               "establish: plan fallback needs a chain service");
  QRES_REQUIRE(policy.max_replans >= 0, "establish: negative replan budget");
  EstablishResult result = establish_round(session, now, planner, rng, scale,
                                           staleness, {},
                                           policy.fallback_attempts);
  // Self-healing: an unreachable owner is a fault, not a rejection. Every
  // footprint resource on its host is forced to zero availability so
  // each re-plan routes around it (degraded QoS is the planner's
  // business, not ours).
  std::vector<ResourceId> dead;
  for (int round = 1; round <= policy.max_replans &&
                      result.outcome == EstablishOutcome::kUnreachable;
       ++round) {
    const HostId lost = registry_->catalog().host(result.failed_resource);
    for (ResourceId id : footprint_)
      if (registry_->catalog().host(id) == lost) dead.push_back(id);
    EstablishResult next = establish_round(session, now, planner, rng, scale,
                                           staleness, dead,
                                           policy.fallback_attempts);
    CoordinationStats& acc = next.stats;
    acc.availability_messages += result.stats.availability_messages;
    acc.dispatch_messages += result.stats.dispatch_messages;
    acc.reservations_attempted += result.stats.reservations_attempted;
    acc.reservations_rolled_back += result.stats.reservations_rolled_back;
    acc.retransmissions += result.stats.retransmissions;
    acc.unreachable_proxies += result.stats.unreachable_proxies;
    acc.replans = static_cast<std::size_t>(round);
    result.leaked.insert(result.leaked.end(), next.leaked.begin(),
                         next.leaked.end());
    next.leaked = std::move(result.leaked);
    result = std::move(next);
  }
  return result;
}

EstablishResult SessionCoordinator::renegotiate(
    SessionId session, double now, const IPlanner& planner, Rng& rng,
    double scale,
    const std::vector<std::pair<ResourceId, double>>& current,
    std::size_t min_rank,
    const std::function<double(ResourceId)>& staleness,
    const std::function<
        void(const std::vector<std::pair<ResourceId, double>>&)>&
        on_commit) {
  QRES_REQUIRE(session.valid(), "renegotiate: invalid session");
  constexpr double kEps = 1e-9;
  EstablishResult result;

  // Phase 1: fresh snapshot, same RPC accounting as an establishment.
  PlanningSnapshot snapshot;
  observe_footprint(now, staleness, {}, &snapshot);
  result.stats = snapshot.stats;
  AvailabilityView& view = snapshot.view;

  // Credit the session's own holdings back into the snapshot: the new
  // plan may reuse anything it already holds, so feasibility is judged
  // against available + held — exactly what delta reservation can admit
  // without ever releasing first.
  for (const auto& [id, amount] : current) {
    if (!view.contains(id)) continue;
    const ResourceObservation& obs = view.get(id);
    view.set(id, obs.available + amount, obs.alpha);
  }

  // Phase 2: re-plan. min_rank clamps how good the new plan may be (the
  // AIMD additive upgrade step / forced shedding floor): when the
  // planner's choice is better than allowed, fall back to the best
  // reachable sink at or below the clamp.
  const Qrg qrg(*service_, view, psi_kind_, scale);
  PlanResult planned = planner.plan(qrg, rng);
  result.sinks = std::move(planned.sinks);
  if (planned.plan && planned.plan->end_to_end_rank < min_rank) {
    planned.plan.reset();
    const auto labels = relax_qrg(qrg);
    for (std::size_t rank = min_rank; rank < result.sinks.size(); ++rank) {
      if (!result.sinks[rank].reachable) continue;
      planned.plan = extract_plan(qrg, labels, qrg.ranked_sink_nodes()[rank]);
      if (planned.plan) break;
    }
  }
  if (!planned.plan) {
    // Nothing reserved; the old plan stands. Typed as an outage when one
    // may explain the miss (see commit_planned).
    if (!snapshot.down.empty()) {
      result.outcome = EstablishOutcome::kBrokerUnavailable;
      result.failed_resource = snapshot.down.front();
    }
    return result;
  }
  result.plan = std::move(planned.plan);

  // Phase 3a (make): reserve only the positive per-resource deltas. The
  // old holdings are untouched until the whole transition is committed.
  // An abort rolls the deltas back; the session still holds exactly its
  // old plan. A rollback release whose RPC fails stays held beyond the old
  // plan and is reported via leaked (the caller folds it into its record
  // so the books keep matching the broker).
  FlatMap<ResourceId, double> old_held;
  for (const auto& [id, amount] : current) old_held[id] += amount;
  const ResourceVector new_total = result.plan->total_requirement();
  result.stats.dispatch_messages = result.plan->steps.size();
  ResourceVector deltas;
  for (const auto& [id, amount] : new_total) {
    const auto it = old_held.find(id);
    const double delta = amount - (it == old_held.end() ? 0.0 : it->second);
    if (delta > kEps) deltas.set(id, delta);
  }
  std::vector<std::pair<ResourceId, double>> reserved;
  if (!reserve_all(deltas, session, now, &result, &reserved)) return result;

  // Phase 3b (break): committed — release the excess of the old
  // holdings. The session now holds at least the new plan everywhere; an
  // excess release whose RPC fails stays held (and leased, if leases are
  // on) and is reported both in holdings and in leaked.
  FlatMap<ResourceId, double> final_held;
  for (const auto& [id, amount] : new_total) final_held[id] = amount;
  if (on_commit) {
    std::vector<std::pair<ResourceId, double>> committed(final_held.begin(),
                                                         final_held.end());
    on_commit(committed);
  }
  for (const auto& [id, have] : old_held) {
    const double keep = new_total.get(id);
    const double excess = have - keep;
    if (excess <= kEps) continue;
    if (!dispatch_release(id, now, session, excess, &result.stats)) {
      result.leaked.push_back({id, excess});
      final_held[id] += excess;
      continue;
    }
  }
  result.holdings.assign(final_held.begin(), final_held.end());
  result.success = true;
  result.outcome = EstablishOutcome::kOk;
  return result;
}

std::vector<std::pair<ResourceId, double>> SessionCoordinator::teardown(
    const std::vector<std::pair<ResourceId, double>>& holdings,
    SessionId session, double now) {
  std::vector<std::pair<ResourceId, double>> undelivered;
  for (const auto& [id, amount] : holdings)
    if (!dispatch_release(id, now, session, amount, nullptr))
      undelivered.push_back({id, amount});
  return undelivered;
}

SessionCoordinator::ReconcileReport SessionCoordinator::reconcile_broker(
    ResourceId resource, double now,
    const std::vector<ReconcileClaim>& claims) {
  constexpr double kEps = 1e-9;
  // Replicated resources reconcile against the group façade: claims are
  // re-asserted to the *current* primary (the directory-era host, not the
  // catalog's original owner) and every resolution mutation replicates
  // like any other record. This is the PR-4 protocol re-used as the
  // post-failover re-homing step (DESIGN.md §14).
  ReplicatedBroker* rep = registry_->replicated(resource);
  ResourceBroker* leafb = rep == nullptr ? registry_->leaf(resource) : nullptr;
  QRES_REQUIRE(rep != nullptr || leafb != nullptr,
               "reconcile_broker: reconciliation applies to leaf brokers");
  IBroker& broker = registry_->broker(resource);
  QRES_REQUIRE(broker.up(), "reconcile_broker: broker is down");
  const HostId broker_host = rep != nullptr && rep->primary_host().valid()
                                 ? rep->primary_host()
                                 : registry_->catalog().host(resource);

  ReconcileReport report;
  report.resource = resource;

  // One re-sync RPC per claimant: its owner host re-asserts the holding
  // to the broker's host, across the transport like any other control
  // message.
  rpc::RpcChannel& rpc = channel();
  auto resync_rpc = [&](HostId from, SessionId session, double claimed) {
    if (!from.valid() || !broker_host.valid() || from == broker_host)
      return true;
    rpc::ReconcileRequest request;
    request.header.session = session.value();
    request.header.deadline = rpc_deadline(now);
    request.resource = resource.value();
    request.claimed = claimed;
    const rpc::CallResult result =
        rpc.call(from, broker_host, std::move(request), now);
    const auto* reply =
        result.ok() ? std::get_if<rpc::ReconcileReply>(&result.reply)
                    : nullptr;
    return reply != nullptr && reply->code == rpc::RpcCode::kOk;
  };

  // Aggregate claims per session (a session re-asserts once, with the
  // total it believes it holds here; the first claim's owner speaks).
  FlatMap<SessionId, ReconcileClaim> merged;
  for (const ReconcileClaim& claim : claims) {
    QRES_REQUIRE(claim.session.valid() && claim.amount >= 0.0,
                 "reconcile_broker: malformed claim");
    auto it = merged.find(claim.session);
    if (it == merged.end())
      merged.insert_or_assign(claim.session, claim);
    else
      it->second.amount += claim.amount;
  }

  for (const auto& [session, claim] : merged) {
    ReconcileEvent event;
    event.session = claim.session;
    event.claimed = claim.amount;
    event.held = broker.held_by(claim.session);
    if (!resync_rpc(claim.owner, claim.session, claim.amount)) {
      // Lost re-sync: the recovered holding stays as-is, protected by the
      // restart lease grace until a later pass or expiry settles it.
      event.resolution = ReconcileResolution::kRpcFailed;
      ++report.rpc_failures;
      report.events.push_back(event);
      continue;
    }
    if (event.held + kEps < event.claimed) {
      // The crash lost the journal tail holding part (or all) of this
      // claim. The journal is the truth: the difference is forfeit; the
      // caller drops it from the session's books and may re-reserve.
      event.resolution = ReconcileResolution::kLostClaim;
      ++report.lost_claims;
    } else if (event.held > event.claimed + kEps) {
      // The journal restored more than the session claims (a pre-crash
      // rollback that leaked, then re-asserted smaller). The unclaimed
      // excess is orphan capacity: released here and now.
      broker.release_amount(now, claim.session, event.held - event.claimed);
      event.resolution = ReconcileResolution::kExcessReleased;
      ++report.excess_released;
    } else {
      event.resolution = ReconcileResolution::kConfirmed;
      ++report.confirmed;
    }
    // Re-assertion is a sign of life: in lease mode the surviving holding
    // is renewed so the grace window hands over to normal keeping.
    if (lease_ > 0.0 && broker.held_by(claim.session) > 0.0)
      broker.renew_lease(now, claim.session, lease_);
    report.events.push_back(event);
  }

  // Orphan sweep: every recovered holding with no live claimant belongs
  // to a session that died or tore down during the outage. Released, via
  // one coordinator-to-broker-host RPC.
  const JournalRecord state =
      rep != nullptr ? rep->primary_snapshot(now) : leafb->snapshot(now);
  for (const auto& [session_value, held] : state.holdings) {
    const SessionId session{session_value};
    if (merged.contains(session)) continue;
    ReconcileEvent event;
    event.session = session;
    event.held = held;
    if (!resync_rpc(main_host_, session, 0.0)) {
      event.resolution = ReconcileResolution::kRpcFailed;
      ++report.rpc_failures;
      report.events.push_back(event);
      continue;
    }
    broker.release(now, session);
    event.resolution = ReconcileResolution::kOrphanReleased;
    ++report.orphans_released;
    report.events.push_back(event);
  }
  return report;
}

}  // namespace qres
