#include "adapt_fuzz.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adapt/adaptation_engine.hpp"
#include "broker/registry.hpp"
#include "core/planner.hpp"
#include "proxy/qos_proxy.hpp"
#include "rpc/broker_service.hpp"
#include "broker/auditor.hpp"
#include "signal/fault_plane.hpp"
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
// Random adaptation worlds: a hosted chain whose degraded levels mostly
// demand less, so downgrades genuinely free capacity (with enough noise
// that non-monotone tables occur too).

struct AdaptWorld {
  BrokerRegistry registry;
  std::vector<ResourceId> resources;  // one per component, same index
  std::vector<HostId> hosts;
  std::unique_ptr<ServiceDefinition> service;
  HostId main_host;
};

void make_adapt_world(Rng& rng, AdaptWorld& world) {
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
    for (std::size_t in = 0; in < in_count; ++in) {
      const double base = rng.bernoulli(0.1) ? rng.uniform(60.0, 130.0)
                                             : rng.uniform(12.0, 45.0);
      for (int out = 0; out < out_count[static_cast<std::size_t>(c)]; ++out) {
        const double amount =
            base * (1.0 - 0.3 * static_cast<double>(out)) +
            rng.uniform(0.0, 4.0);
        ResourceVector req;
        req.set(world.resources.back(), amount);
        table.set(static_cast<LevelIndex>(in), static_cast<LevelIndex>(out),
                  req);
      }
    }
    components.emplace_back("c" + std::to_string(c),
                            levels(out_count[static_cast<std::size_t>(c)]),
                            table.as_function(), host);
    if (c > 0)
      edges.push_back({static_cast<ComponentIndex>(c - 1),
                       static_cast<ComponentIndex>(c)});
  }
  world.service = std::make_unique<ServiceDefinition>(
      "adapt_chain", std::move(components), std::move(edges), q(10));
  world.main_host = world.hosts.front();
}

adapt::SessionPriority random_priority(Rng& rng) {
  return static_cast<adapt::SessionPriority>(rng.uniform_int(0, 2));
}

// ---------------------------------------------------------------------------
// Engine-off differential: a disabled engine must be a bit-identical
// pass-through around the coordinator — including its ticks.

std::string engine_off_differential(Rng& rng) {
  const std::uint64_t world_seed = rng();
  const std::uint64_t planner_seed = rng();
  const std::uint64_t sched_seed = rng();
  AdaptWorld world_a, world_b;
  {
    Rng gen(world_seed);
    make_adapt_world(gen, world_a);
  }
  {
    Rng gen(world_seed);
    make_adapt_world(gen, world_b);
  }

  SessionCoordinator plain(world_a.service.get(), world_a.resources,
                           &world_a.registry);
  SessionCoordinator wrapped(world_b.service.get(), world_b.resources,
                             &world_b.registry);
  adapt::ContentionMonitor monitor(&world_b.registry, world_b.resources);
  BasicPlanner basic;
  TradeoffPlanner tradeoff;
  adapt::EngineConfig off;
  off.enabled = false;
  adapt::AdaptationEngine engine(&wrapped, &monitor, &basic, &tradeoff, off);

  BasicPlanner planner;
  Rng rng_a(planner_seed), rng_b(planner_seed);
  Rng sched(sched_seed);
  double t = 0.0;
  // Holdings of live sessions in the plain world (the engine keeps its
  // own book for world B).
  std::map<std::uint32_t, std::vector<std::pair<ResourceId, double>>> live;
  for (std::uint32_t s = 1; s <= 8; ++s) {
    t += sched.uniform(0.3, 1.5);
    const double scale = sched.uniform(0.7, 1.5);
    const adapt::SessionPriority priority = random_priority(sched);
    const EstablishResult a =
        plain.establish(SessionId{s}, t, planner, rng_a, scale);
    const EstablishResult b =
        engine.admit(SessionId{s}, t, priority, scale, rng_b);
    if (a.success != b.success || a.outcome != b.outcome)
      return "engine-off differential: session " + std::to_string(s) +
             " outcome " + std::string(to_string(a.outcome)) + " vs " +
             to_string(b.outcome);
    if (a.holdings != b.holdings)
      return "engine-off differential: session " + std::to_string(s) +
             " holdings diverged";
    if (a.success) live[s] = a.holdings;
    // Disabled ticks must not touch anything (checked below via broker
    // histories, sample flags and engine counters).
    engine.tick(t + 0.01, rng_b);
    if (sched.bernoulli(0.35) && !live.empty()) {
      const std::uint32_t gone = live.begin()->first;
      plain.teardown(live.begin()->second, SessionId{gone}, t + 0.02);
      engine.depart(SessionId{gone}, t + 0.02);
      live.erase(live.begin());
    }
  }

  for (std::size_t r = 0; r < world_a.resources.size(); ++r) {
    const auto& broker_a = world_a.registry.broker(world_a.resources[r]);
    const auto& broker_b = world_b.registry.broker(world_b.resources[r]);
    if (broker_a.available() != broker_b.available())
      return "engine-off differential: resource " + std::to_string(r) +
             " availability " + str(broker_a.available()) + " vs " +
             str(broker_b.available());
    const auto* hist_a = dynamic_cast<const ResourceBroker*>(&broker_a);
    const auto* hist_b = dynamic_cast<const ResourceBroker*>(&broker_b);
    if (hist_a && hist_b && hist_a->history() != hist_b->history())
      return "engine-off differential: resource " + std::to_string(r) +
             " broker history diverged";
  }
  for (ResourceId id : world_b.resources)
    if (monitor.state(id).sampled)
      return "engine-off differential: disabled engine sampled resource " +
             std::to_string(id.value());
  const AdaptationStats& st = engine.stats();
  if (st.upgrade_attempts != 0 || st.downgrade_attempts != 0 ||
      st.preemptions != 0 || st.preempt_downgrades != 0 ||
      st.mbb_aborts != 0)
    return "engine-off differential: disabled engine adapted something";
  return "";
}

// ---------------------------------------------------------------------------
// Faulted adaptive run: per-RPC make-before-break floor audit plus the
// ReservationAuditor conservation proof.

/// Interposes on every coordination RPC and audits the MBB floor at that
/// instant: every live session's brokers must hold at least the session's
/// committed plan — precisely *because* a renegotiation is in flight when
/// many of these RPCs happen.
struct FloorCheckTransport final : public IControlTransport {
  IControlTransport* inner = nullptr;
  const adapt::AdaptationEngine* engine = nullptr;
  const BrokerRegistry* registry = nullptr;
  std::vector<std::string>* violations = nullptr;
  std::uint64_t checks = 0;

  ExchangeResult exchange(HostId from, HostId to, double now,
                          const RetryPolicy* budget) override {
    audit_floors(now);
    return inner->exchange(from, to, now, budget);
  }
  bool reachable(HostId host, double t) const override {
    return inner->reachable(host, t);
  }

  void audit_floors(double now) {
    if (engine == nullptr) return;
    ++checks;
    for (const auto& [session, rec] : engine->sessions()) {
      const FlatMap<ResourceId, double>* floor = engine->floor(session);
      if (floor == nullptr) continue;
      for (const auto& [resource, amount] : *floor) {
        const double held = registry->broker(resource).held_by(session);
        if (held + 1e-9 < amount && violations->size() < 8)
          violations->push_back(
              "floor violated at t=" + str(now) + ": session " +
              std::to_string(session.value()) + " holds " + str(held) +
              " < committed " + str(amount) + " on resource " +
              std::to_string(resource.value()));
      }
    }
  }
};

std::string adaptive_faulted(Rng& rng, AdaptFuzzStats* stats) {
  AdaptWorld world;
  {
    Rng gen(rng());
    make_adapt_world(gen, world);
  }

  FaultConfig fault_config;
  fault_config.drop_prob = rng.uniform(0.0, 0.5);
  FaultPlane plane(rng(), fault_config);
  const int crashes = rng.uniform_int(0, 2);
  for (int c = 0; c < crashes; ++c) {
    const auto host = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<int>(world.hosts.size()) - 1));
    const double from = rng.uniform(0.0, 25.0);
    plane.crash_host(HostId{host}, from, from + rng.uniform(2.0, 10.0));
  }

  std::vector<std::string> violations;
  FloorCheckTransport transport;
  transport.inner = &plane;
  transport.registry = &world.registry;
  transport.violations = &violations;

  rpc::BrokerService service(&world.registry);
  SessionCoordinator coordinator(world.service.get(), world.resources,
                                 &world.registry);
  coordinator.attach_rpc_service(&service, world.main_host, &transport);

  adapt::MonitorConfig monitor_config;
  monitor_config.ewma_halflife = rng.uniform(0.5, 4.0);
  adapt::ContentionMonitor monitor(&world.registry, world.resources,
                                   monitor_config);
  const adapt::ContentionGovernor governor(&monitor);
  if (rng.bernoulli(0.5)) coordinator.set_admission_governor(&governor);

  BasicPlanner basic;
  TradeoffPlanner tradeoff;
  adapt::EngineConfig engine_config;
  engine_config.upgrade_cooldown = rng.uniform(1.0, 6.0);
  adapt::AdaptationEngine engine(&coordinator, &monitor, &basic, &tradeoff,
                                 engine_config);
  ReservationAuditor auditor(&world.registry);
  engine.set_auditor(&auditor);
  transport.engine = &engine;

  // Out-of-band load hogs (one synthetic session per resource), mirrored
  // into the auditor by hand like any other harness-initiated operation.
  std::map<std::size_t, double> hog_amount;
  const auto hog_id = [](std::size_t r) {
    return SessionId{static_cast<std::uint32_t>(100000 + r)};
  };

  Rng planner_rng(rng());
  const auto audit = [&](const std::string& when) {
    for (std::string& v : auditor.audit_hosts())
      if (violations.size() < 8) violations.push_back(when + ": " + v);
    if (stats) ++stats->audits;
  };

  double t = 0.0;
  std::uint32_t next_session = 1;
  const int steps = rng.uniform_int(30, 60);
  for (int step = 0; step < steps; ++step) {
    t += rng.uniform(0.1, 1.0);
    const double roll = rng.uniform01();
    if (roll < 0.35) {
      const SessionId session{next_session++};
      const EstablishResult r = engine.admit(
          session, t, random_priority(rng), rng.uniform(0.6, 1.6),
          planner_rng);
      if (stats) {
        ++stats->admissions;
        if (r.success) ++stats->established;
      }
    } else if (roll < 0.5) {
      if (engine.live_count() > 0) {
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_u64(
            0, engine.live_count() - 1));
        const SessionId victim = (engine.sessions().begin() +
                                  static_cast<std::ptrdiff_t>(pick))
                                     ->first;
        engine.depart(victim, t);
        if (stats) ++stats->departures;
      }
    } else if (roll < 0.7) {
      const std::size_t r = static_cast<std::size_t>(rng.uniform_u64(
          0, world.resources.size() - 1));
      auto& broker = world.registry.broker(world.resources[r]);
      auto it = hog_amount.find(r);
      if (it != hog_amount.end()) {
        broker.release(t, hog_id(r));
        auditor.on_session_released(hog_id(r));
        hog_amount.erase(it);
      } else {
        const double amount = rng.uniform(0.2, 0.6) * broker.capacity();
        if (broker.reserve(t, hog_id(r), amount)) {
          auditor.on_reserved(hog_id(r), world.resources[r], amount);
          hog_amount[r] = amount;
        }
      }
    } else {
      engine.tick(t, planner_rng);
      if (stats) ++stats->ticks;
    }
    if (step % 8 == 7) audit("t=" + str(t));
  }

  // Wind down: hogs out, sessions out, stranded rollbacks reclaimed.
  t += 1.0;
  for (const auto& [r, amount] : hog_amount) {
    (void)amount;
    world.registry.broker(world.resources[r]).release(t, hog_id(r));
    auditor.on_session_released(hog_id(r));
  }
  std::vector<SessionId> still_live;
  for (const auto& [session, rec] : engine.sessions())
    still_live.push_back(session);
  for (SessionId session : still_live) {
    engine.depart(session, t);
    if (stats) ++stats->departures;
  }
  // Teardown and cleanup releases are RPCs too: retry the stranded ones
  // (after any crash window has closed) until every one got through.
  std::size_t reclaimed = engine.release_zombies(t);
  for (int retry = 0; retry < 100 && !engine.zombies().empty(); ++retry) {
    t += 1.0;
    reclaimed += engine.release_zombies(t);
  }

  audit("final");
  if (!auditor.model_empty() && violations.size() < 8)
    violations.push_back("final: auditor model not empty after teardown");
  for (ResourceId id : world.resources) {
    const auto& broker = world.registry.broker(id);
    const double leaked = broker.capacity() - broker.available();
    if ((leaked > 1e-6 || leaked < -1e-6) && violations.size() < 8)
      violations.push_back("final: resource " + std::to_string(id.value()) +
                           " leaks " + str(leaked) + " capacity");
  }

  if (stats) {
    const AdaptationStats& st = engine.stats();
    stats->floor_checks += transport.checks;
    stats->upgrades += st.upgrades;
    stats->downgrades += st.downgrades;
    stats->mbb_aborts += st.mbb_aborts;
    stats->preemptions += st.preemptions;
    stats->preempt_downgrades += st.preempt_downgrades;
    stats->overload_rejects += st.overload_rejects;
    stats->zombies_released += reclaimed;
  }
  if (!violations.empty()) return "adaptive faulted: " + violations.front();
  return "";
}

}  // namespace

std::string run_adapt_iteration(std::uint64_t seed, AdaptFuzzStats* stats) {
  Rng rng(seed);
  const auto with_seed = [seed](std::string failure) {
    return failure.empty()
               ? failure
               : "seed " + std::to_string(seed) + ": " + failure;
  };
  std::string failure = engine_off_differential(rng);
  if (!failure.empty()) return with_seed(std::move(failure));
  failure = adaptive_faulted(rng, stats);
  return with_seed(std::move(failure));
}

}  // namespace qres::fuzz
