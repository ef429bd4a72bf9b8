#include "fault_fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "broker/registry.hpp"
#include "core/planner.hpp"
#include "proxy/qos_proxy.hpp"
#include "rpc/broker_service.hpp"
#include "signal/rsvp.hpp"
#include "broker/auditor.hpp"
#include "core/event_queue.hpp"
#include "signal/fault_plane.hpp"
#include "sim/lease_keeper.hpp"
#include "core/topology.hpp"
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
// Random signaling worlds: a connected topology plus a flow schedule.

struct FlowSpec {
  FlowKey key = 0;
  HostId from;
  HostId to;
  double bandwidth = 0.0;
  double open_at = 0.0;
  /// 0 = leave until the end, 1 = explicit teardown, 2 = stop_refreshing
  /// (endpoint failure: the soft state must expire on its own).
  int action = 0;
  double action_at = 0.0;
};

struct NetPlan {
  Topology topo;
  std::vector<double> caps;
  std::vector<FlowSpec> flows;
  double horizon = 60.0;
};

NetPlan make_net_plan(Rng& rng) {
  NetPlan plan;
  const int hosts = rng.uniform_int(4, 6);
  for (int h = 0; h < hosts; ++h)
    plan.topo.add_host("h" + std::to_string(h));
  // A ring keeps every pair routable; chords add route diversity.
  for (int h = 0; h < hosts; ++h) {
    plan.topo.add_link("ring" + std::to_string(h),
                       HostId{static_cast<std::uint32_t>(h)},
                       HostId{static_cast<std::uint32_t>((h + 1) % hosts)});
    plan.caps.push_back(rng.uniform(40.0, 120.0));
  }
  const int chords = rng.uniform_int(0, 2);
  for (int c = 0; c < chords; ++c) {
    const int a = rng.uniform_int(0, hosts - 1);
    const int b = rng.uniform_int(0, hosts - 1);
    if (a == b) continue;
    plan.topo.add_link("chord" + std::to_string(c),
                       HostId{static_cast<std::uint32_t>(a)},
                       HostId{static_cast<std::uint32_t>(b)});
    plan.caps.push_back(rng.uniform(40.0, 120.0));
  }
  const int flow_count = rng.uniform_int(3, 8);
  for (int f = 0; f < flow_count; ++f) {
    FlowSpec spec;
    spec.key = 1000u + static_cast<FlowKey>(f);
    spec.from = HostId{static_cast<std::uint32_t>(
        rng.uniform_int(0, hosts - 1))};
    do {
      spec.to = HostId{static_cast<std::uint32_t>(
          rng.uniform_int(0, hosts - 1))};
    } while (spec.to == spec.from);
    spec.bandwidth = rng.uniform(5.0, 35.0);
    spec.open_at = rng.uniform(0.0, 15.0);
    spec.action = rng.uniform_int(0, 2);
    spec.action_at = spec.open_at + rng.uniform(0.05, 25.0);
    plan.flows.push_back(spec);
  }
  return plan;
}

struct FlowOutcome {
  bool done = false;
  RsvpResult result;
};

/// Plays a NetPlan on `net`: opens/reserves every flow, applies the
/// scheduled actions, runs to the horizon, then tears every flow down
/// (idempotent for ones already gone) and drains the queue.
void run_net_plan(const NetPlan& plan, RsvpNetwork& net, EventQueue& queue,
                  std::vector<FlowOutcome>& outcomes) {
  outcomes.assign(plan.flows.size(), FlowOutcome{});
  for (std::size_t i = 0; i < plan.flows.size(); ++i) {
    const FlowSpec spec = plan.flows[i];
    FlowOutcome* out = &outcomes[i];
    queue.schedule(spec.open_at, [&net, spec, out] {
      net.open_path(spec.key, spec.from, spec.to);
      net.request_reservation(spec.key, spec.bandwidth,
                              [out](const RsvpResult& r) {
                                out->done = true;
                                out->result = r;
                              });
    });
    if (spec.action == 1)
      queue.schedule(spec.action_at, [&net, spec] { net.teardown(spec.key); });
    else if (spec.action == 2)
      queue.schedule(spec.action_at,
                     [&net, spec] { net.stop_refreshing(spec.key); });
  }
  queue.run_until(plan.horizon);
  for (const FlowSpec& spec : plan.flows) net.teardown(spec.key);
  queue.run_all();
}

// ---------------------------------------------------------------------------
// Zero-fault differential: an attached all-zero plane must be invisible.

std::string rsvp_differential(Rng& rng) {
  const std::uint64_t world_seed = rng();
  const std::uint64_t plane_seed = rng();
  Rng gen_a(world_seed), gen_b(world_seed);
  NetPlan plan_a = make_net_plan(gen_a);
  NetPlan plan_b = make_net_plan(gen_b);

  EventQueue queue_a, queue_b;
  RsvpNetwork net_a(&plan_a.topo, plan_a.caps, &queue_a);
  FaultPlane inert(&queue_b, plane_seed, FaultConfig{});
  RsvpNetwork net_b(&plan_b.topo, plan_b.caps, &queue_b);
  net_b.attach_faults(&inert);

  std::vector<FlowOutcome> out_a, out_b;
  run_net_plan(plan_a, net_a, queue_a, out_a);
  run_net_plan(plan_b, net_b, queue_b, out_b);

  for (std::size_t i = 0; i < out_a.size(); ++i) {
    const FlowOutcome& a = out_a[i];
    const FlowOutcome& b = out_b[i];
    if (a.done != b.done)
      return "rsvp differential: flow " + std::to_string(i) +
             " completion diverged (plain " + std::to_string(a.done) +
             " vs faulted " + std::to_string(b.done) + ")";
    if (!a.done) continue;
    if (a.result.status != b.result.status)
      return "rsvp differential: flow " + std::to_string(i) + " status " +
             std::string(to_string(a.result.status)) + " vs " +
             to_string(b.result.status);
    if (a.result.failed_link.value() != b.result.failed_link.value())
      return "rsvp differential: flow " + std::to_string(i) +
             " failed_link diverged";
    if (a.result.completed_at != b.result.completed_at)
      return "rsvp differential: flow " + std::to_string(i) +
             " completed_at " + str(a.result.completed_at) + " vs " +
             str(b.result.completed_at);
  }
  for (std::size_t l = 0; l < plan_a.topo.link_count(); ++l) {
    const LinkId link{static_cast<std::uint32_t>(l)};
    if (net_a.link_reserved(link) != net_b.link_reserved(link))
      return "rsvp differential: link " + std::to_string(l) + " reserved " +
             str(net_a.link_reserved(link)) + " vs " +
             str(net_b.link_reserved(link));
    if (net_a.link_flow_count(link) != net_b.link_flow_count(link))
      return "rsvp differential: link " + std::to_string(l) +
             " flow count diverged";
  }
  if (inert.totals().drops != 0 || inert.totals().duplicates != 0)
    return "rsvp differential: inert plane faulted a message";
  return "";
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
  EventQueue queue;
  FaultPlane inert(&queue, plane_seed, FaultConfig{});
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
// Faulted RSVP: random fault schedule, auditor as the oracle.

FaultConfig random_faults(Rng& rng) {
  FaultConfig config;
  config.drop_prob = rng.uniform(0.0, 0.3);
  config.duplicate_prob = rng.uniform(0.0, 0.2);
  config.delay_prob = rng.uniform(0.0, 0.3);
  config.delay_max = rng.uniform(0.0, 0.6);
  return config;
}

std::string rsvp_faulted(Rng& rng, FaultFuzzStats* stats) {
  NetPlan plan;
  {
    Rng gen(rng());
    plan = make_net_plan(gen);
  }
  EventQueue queue;
  FaultPlane plane(&queue, rng(), random_faults(rng));
  const int outages = rng.uniform_int(0, 2);
  for (int o = 0; o < outages; ++o) {
    const auto link = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<int>(plan.topo.link_count()) - 1));
    const double from = rng.uniform(0.0, 30.0);
    plane.link_down(LinkId{link}, from, from + rng.uniform(1.0, 10.0));
  }
  const int crashes = rng.uniform_int(0, 1);
  for (int c = 0; c < crashes; ++c) {
    const auto host = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<int>(plan.topo.host_count()) - 1));
    const double from = rng.uniform(0.0, 30.0);
    plane.crash_host(HostId{host}, from, from + rng.uniform(1.0, 8.0));
  }

  RsvpNetwork net(&plan.topo, plan.caps, &queue);
  net.attach_faults(&plane);
  BrokerRegistry no_hosts;  // links are audited via accessors, hosts unused
  ReservationAuditor auditor(&no_hosts);
  net.set_hop_listeners(
      [&auditor](FlowKey flow, LinkId link, double bandwidth) {
        auditor.on_hop_reserved(flow, link, bandwidth);
      },
      [&auditor](FlowKey flow, LinkId link) {
        auditor.on_hop_released(flow, link);
      });

  const auto reserved_fn = [&net](LinkId link) {
    return net.link_reserved(link);
  };
  const auto flows_fn = [&net](LinkId link) {
    return net.link_flow_count(link);
  };
  std::vector<std::string> violations;
  const auto audit = [&](const char* when) {
    for (std::string& v :
         auditor.audit_links(reserved_fn, flows_fn, plan.topo.link_count()))
      violations.push_back(std::string(when) + ": " + v);
    if (stats) ++stats->audits;
  };
  queue.schedule(30.0, [&audit] { audit("mid-run"); });

  std::vector<FlowOutcome> outcomes;
  run_net_plan(plan, net, queue, outcomes);

  audit("final");
  if (!auditor.model_empty())
    violations.push_back("final: auditor model not empty after teardown");
  for (std::size_t l = 0; l < plan.topo.link_count(); ++l) {
    const LinkId link{static_cast<std::uint32_t>(l)};
    // Tolerance covers release arithmetic dust (sums of reserve/release
    // pairs), not leaks: a leaked hop is a full bandwidth amount >= 5.
    if (std::abs(net.link_reserved(link)) > 1e-9)
      violations.push_back("final: link " + std::to_string(l) + " leaks " +
                           str(net.link_reserved(link)) + " bandwidth");
    if (net.link_flow_count(link) != 0)
      violations.push_back("final: link " + std::to_string(l) +
                           " has live flow state after teardown");
  }

  if (stats) {
    stats->flows += outcomes.size();
    for (const FlowOutcome& out : outcomes)
      if (out.done && out.result.ok()) ++stats->flows_established;
    stats->messages += plane.totals().messages;
    stats->transmissions += plane.totals().transmissions;
    stats->drops += plane.totals().drops;
    stats->duplicates += plane.totals().duplicates;
  }
  if (!violations.empty()) return "rsvp faulted: " + violations.front();
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
  FaultPlane plane(&queue, rng(), config);
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
    stats->duplicates += plane.totals().duplicates;
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
  std::string failure = rsvp_differential(rng);
  if (!failure.empty()) return with_seed(std::move(failure));
  failure = coordinator_differential(rng);
  if (!failure.empty()) return with_seed(std::move(failure));
  failure = rsvp_faulted(rng, stats);
  if (!failure.empty()) return with_seed(std::move(failure));
  failure = coordinator_faulted(rng, stats);
  return with_seed(std::move(failure));
}

}  // namespace qres::fuzz
