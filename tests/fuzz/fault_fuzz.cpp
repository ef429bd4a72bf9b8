#include "fault_fuzz.hpp"

#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "broker/registry.hpp"
#include "core/planner.hpp"
#include "proxy/qos_proxy.hpp"
#include "rpc/broker_service.hpp"
#include "broker/auditor.hpp"
#include "core/event_queue.hpp"
#include "signal/fault_plane.hpp"
#include "sim/lease_keeper.hpp"
#include "util/rng.hpp"

namespace qres::fuzz {

namespace {

std::string str(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

QoSVector q(double value) {
  static const QoSSchema schema({"level"});
  return QoSVector(schema, {value});
}

std::vector<QoSVector> levels(int count) {
  std::vector<QoSVector> result;
  for (int i = 0; i < count; ++i)
    result.push_back(q(static_cast<double>(count - i)));
  return result;
}

// ---------------------------------------------------------------------------
// Random coordinator worlds: a hosted chain service over leaf resources.

struct CoordWorld {
  BrokerRegistry registry;
  std::vector<ResourceId> resources;  // one per component, same index
  std::vector<HostId> hosts;
  std::unique_ptr<ServiceDefinition> service;
  HostId main_host;
};

void make_coord_world(Rng& rng, CoordWorld& world) {
  const int k = rng.uniform_int(2, 4);
  std::vector<int> out_count(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c)
    out_count[static_cast<std::size_t>(c)] = rng.uniform_int(2, 3);

  std::vector<ServiceComponent> components;
  std::vector<std::pair<ComponentIndex, ComponentIndex>> edges;
  for (int c = 0; c < k; ++c) {
    const HostId host{static_cast<std::uint32_t>(c)};
    world.hosts.push_back(host);
    world.resources.push_back(world.registry.add_resource(
        "r" + std::to_string(c), ResourceKind::kCpu, host,
        rng.uniform(80.0, 160.0)));
    const std::size_t in_count =
        c == 0 ? 1
               : static_cast<std::size_t>(out_count[static_cast<std::size_t>(
                     c - 1)]);
    TranslationTable table;
    for (std::size_t in = 0; in < in_count; ++in)
      for (int out = 0; out < out_count[static_cast<std::size_t>(c)]; ++out) {
        // Mostly modest demands with occasional heavyweights, so admission
        // failures and degraded-QoS plans both occur.
        const double amount = rng.bernoulli(0.15) ? rng.uniform(60.0, 140.0)
                                                  : rng.uniform(8.0, 45.0);
        ResourceVector req;
        req.set(world.resources.back(), amount);
        table.set(static_cast<LevelIndex>(in), static_cast<LevelIndex>(out),
                  req);
      }
    components.emplace_back("c" + std::to_string(c),
                            levels(out_count[static_cast<std::size_t>(c)]),
                            table.as_function(), host);
    if (c > 0)
      edges.push_back({static_cast<ComponentIndex>(c - 1),
                       static_cast<ComponentIndex>(c)});
  }
  world.service = std::make_unique<ServiceDefinition>(
      "fault_chain", std::move(components), std::move(edges), q(10));
  world.main_host = world.hosts.front();
}

std::string coordinator_differential(Rng& rng) {
  const std::uint64_t world_seed = rng();
  const std::uint64_t plane_seed = rng();
  const std::uint64_t planner_seed = rng();
  CoordWorld world_a, world_b;
  {
    Rng gen(world_seed);
    make_coord_world(gen, world_a);
  }
  {
    Rng gen(world_seed);
    make_coord_world(gen, world_b);
  }

  // `plain` runs on its private loopback; `faulted` on an explicitly
  // attached BrokerService whose transport and frame hook are an inert
  // FaultPlane (main host = component 0's host in both).
  FaultPlane inert(plane_seed, FaultConfig{});
  SessionCoordinator plain(world_a.service.get(), world_a.resources,
                           &world_a.registry);
  rpc::BrokerService service(&world_b.registry);
  SessionCoordinator faulted(world_b.service.get(), world_b.resources,
                             &world_b.registry);
  faulted.attach_rpc_service(&service, world_b.main_host, &inert, &inert);

  BasicPlanner planner;
  Rng rng_a(planner_seed), rng_b(planner_seed);
  std::vector<std::pair<SessionId,
                        std::vector<std::pair<ResourceId, double>>>>
      held;
  for (std::uint32_t s = 1; s <= 6; ++s) {
    const double now = static_cast<double>(s);
    const double scale = 0.8 + 0.2 * static_cast<double>(s % 3);
    const EstablishResult a =
        plain.establish(SessionId{s}, now, planner, rng_a, scale);
    const EstablishResult b =
        faulted.establish(SessionId{s}, now, planner, rng_b, scale);
    if (a.success != b.success || a.outcome != b.outcome)
      return "coordinator differential: session " + std::to_string(s) +
             " outcome " + std::string(to_string(a.outcome)) + " vs " +
             to_string(b.outcome);
    if (a.plan.has_value() != b.plan.has_value())
      return "coordinator differential: session " + std::to_string(s) +
             " plan presence diverged";
    if (a.plan &&
        (a.plan->bottleneck_psi != b.plan->bottleneck_psi ||
         a.plan->end_to_end_rank != b.plan->end_to_end_rank))
      return "coordinator differential: session " + std::to_string(s) +
             " plan diverged (psi " + str(a.plan->bottleneck_psi) + " vs " +
             str(b.plan->bottleneck_psi) + ")";
    if (a.holdings != b.holdings)
      return "coordinator differential: session " + std::to_string(s) +
             " holdings diverged";
    if (a.stats.participating_proxies != b.stats.participating_proxies ||
        a.stats.availability_messages != b.stats.availability_messages ||
        a.stats.dispatch_messages != b.stats.dispatch_messages ||
        a.stats.reservations_attempted != b.stats.reservations_attempted ||
        a.stats.unreachable_proxies != b.stats.unreachable_proxies ||
        a.stats.retransmissions != b.stats.retransmissions)
      return "coordinator differential: session " + std::to_string(s) +
             " rpc accounting diverged";
    if (a.success) held.push_back({SessionId{s}, a.holdings});
  }
  // Tear half of the established sessions down on both planes.
  for (std::size_t i = 0; i < held.size(); i += 2)
    if (!plain.teardown(held[i].second, held[i].first, 10.0).empty() ||
        !faulted.teardown(held[i].second, held[i].first, 10.0).empty())
      return "coordinator differential: lossless teardown lost a release";
  if (inert.frame_totals().corrupted != 0 ||
      inert.frame_totals().duplicated != 0 ||
      inert.frame_totals().held_back != 0)
    return "coordinator differential: inert plane faulted a frame";
  for (std::size_t r = 0; r < world_a.resources.size(); ++r) {
    const double avail_a =
        world_a.registry.broker(world_a.resources[r]).available();
    const double avail_b =
        world_b.registry.broker(world_b.resources[r]).available();
    if (avail_a != avail_b)
      return "coordinator differential: resource " + std::to_string(r) +
             " availability " + str(avail_a) + " vs " + str(avail_b);
  }
  return "";
}

// ---------------------------------------------------------------------------
// Faulted coordinator: leases + recovery + keeper, audited end to end.

std::string coordinator_faulted(Rng& rng, FaultFuzzStats* stats) {
  CoordWorld world;
  {
    Rng gen(rng());
    make_coord_world(gen, world);
  }
  for (ResourceId id : world.resources)
    world.registry.broker(id).enable_expiry_log();

  EventQueue queue;
  FaultConfig config;
  // Up to very lossy: with 4 attempts per RPC, drop_prob 0.6 makes whole
  // exchanges (including rollback releases -> leaked holdings) fail often
  // enough that the lease-reclaim path is genuinely exercised.
  config.drop_prob = rng.uniform(0.0, 0.6);
  FaultPlane plane(rng(), config);
  const int crashes = rng.uniform_int(0, 2);
  for (int c = 0; c < crashes; ++c) {
    const auto host = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<int>(world.hosts.size()) - 1));
    const double from = rng.uniform(0.0, 40.0);
    plane.crash_host(HostId{host}, from, from + rng.uniform(3.0, 12.0));
  }

  const LeaseConfig lease_config{6.0, 2.0};
  LeaseKeeper keeper(&queue, &world.registry, lease_config);
  keeper.attach_faults(&plane);
  ReservationAuditor auditor(&world.registry);
  rpc::BrokerService service(&world.registry);
  SessionCoordinator coordinator(world.service.get(), world.resources,
                                 &world.registry);
  coordinator.attach_rpc_service(&service, world.main_host, &plane);
  coordinator.enable_leases(lease_config.lease);
  BasicPlanner planner;
  Rng planner_rng(rng());
  EstablishPolicy policy;
  policy.max_replans = 2;

  // Holdings of currently-established sessions (by session id value).
  std::map<std::uint32_t, std::vector<std::pair<ResourceId, double>>> live;
  std::vector<std::string> violations;

  // A teardown release the plane ate stays held (leased) on its broker
  // until expiry, so the model keeps it until the expiry is observed.
  const auto teardown = [&](SessionId session, const auto& holdings) {
    keeper.forget(session);
    const auto undelivered =
        coordinator.teardown(holdings, session, queue.now());
    for (const auto& [id, amount] : holdings)
      auditor.on_released(session, id, amount);
    for (const auto& [id, amount] : undelivered)
      auditor.on_reserved(session, id, amount);
    if (stats) stats->leaked_rollbacks += undelivered.size();
  };

  keeper.set_expiry_listener([&](SessionId gone) {
    // The keeper released (or watched expire) everything it managed for
    // this session: mirror the full per-broker release in the model.
    auto it = live.find(gone.value());
    if (it == live.end()) return;
    for (const auto& [id, amount] : it->second) {
      (void)amount;
      const double expected = auditor.expected_held(gone, id);
      if (expected > 0.0) auditor.on_released(gone, id, expected);
    }
    live.erase(it);
    if (stats) ++stats->leases_expired;
  });

  // Aligns the model with lease expiries the brokers performed lazily
  // (inside reserve/renew) that no listener observed.
  const auto reconcile = [&](double now) {
    for (ResourceId id : world.resources) {
      auto& broker = world.registry.broker(id);
      broker.expire_due(now, nullptr);
      std::vector<SessionId> gone;
      broker.take_expired(&gone);
      for (SessionId session : gone) {
        const double expected = auditor.expected_held(session, id);
        if (expected > 0.0) auditor.on_released(session, id, expected);
        live.erase(session.value());
      }
    }
  };

  const int session_count = rng.uniform_int(4, 9);
  for (int s = 1; s <= session_count; ++s) {
    const SessionId session{static_cast<std::uint32_t>(s)};
    const double at = rng.uniform(0.0, 40.0);
    const double scale = rng.uniform(0.7, 1.6);
    queue.schedule(at, [&, session, scale] {
      const EstablishResult r = coordinator.establish(
          session, queue.now(), planner, planner_rng, scale, nullptr, policy);
      if (stats) {
        ++stats->sessions;
        stats->replans += r.stats.replans;
        stats->leaked_rollbacks += r.leaked.size();
        if (r.success) ++stats->sessions_established;
      }
      for (const auto& [id, amount] : r.leaked)
        auditor.on_reserved(session, id, amount);
      if (!r.success) return;
      std::vector<ResourceId> leased;
      for (const auto& [id, amount] : r.holdings) {
        auditor.on_reserved(session, id, amount);
        leased.push_back(id);
      }
      keeper.manage(session, world.main_host, std::move(leased));
      live[session.value()] = r.holdings;
    });
    if (rng.bernoulli(0.5)) {
      queue.schedule(at + rng.uniform(3.0, 20.0), [&, session] {
        auto it = live.find(session.value());
        if (it == live.end()) return;  // expired or never established
        teardown(session, it->second);
        live.erase(it);
      });
    }
  }

  for (const double t : {20.0, 35.0}) {
    queue.schedule(t, [&, t] {
      reconcile(t);
      for (std::string& v : auditor.audit_hosts())
        violations.push_back("t=" + std::to_string(t) + ": " + v);
      if (stats) ++stats->audits;
    });
  }

  queue.run_until(50.0);
  // Tear down everything still alive, then let the renewal/expiry events
  // drain and push past the last possible lease deadline.
  for (auto& [value, holdings] : live) teardown(SessionId{value}, holdings);
  live.clear();
  queue.run_all();
  reconcile(queue.now() + lease_config.lease + 1.0);

  for (std::string& v : auditor.audit_hosts())
    violations.push_back("final: " + v);
  if (stats) ++stats->audits;
  if (!auditor.model_empty())
    violations.push_back(
        "final: auditor model not empty after teardown and expiry");
  for (ResourceId id : world.resources) {
    const auto& broker = world.registry.broker(id);
    const double leaked = broker.capacity() - broker.available();
    if (leaked > 1e-6 || leaked < -1e-6)
      violations.push_back("final: resource " +
                           std::to_string(id.value()) + " leaks " +
                           str(leaked) + " capacity");
  }

  if (stats) {
    stats->messages += plane.totals().messages;
    stats->transmissions += plane.totals().transmissions;
    stats->drops += plane.totals().drops;
  }
  if (!violations.empty()) return "coordinator faulted: " + violations.front();
  return "";
}

}  // namespace

std::string run_fault_iteration(std::uint64_t seed, FaultFuzzStats* stats) {
  Rng rng(seed);
  const auto with_seed = [seed](std::string failure) {
    return failure.empty()
               ? failure
               : "seed " + std::to_string(seed) + ": " + failure;
  };
  std::string failure = coordinator_differential(rng);
  if (!failure.empty()) return with_seed(std::move(failure));
  failure = coordinator_faulted(rng, stats);
  return with_seed(std::move(failure));
}

}  // namespace qres::fuzz
