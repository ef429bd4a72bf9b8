#include "adapt/adaptation_engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "../test_helpers.hpp"

namespace qres::adapt {
namespace {

using test::rv;

// Two-component chain over cpu (cap 100) and bw (cap 50):
//   rank 0 plan: cpu 20 + bw 30;  rank 1 plan: cpu 10 + bw 10.
struct Fixture {
  BrokerRegistry registry;
  ResourceId cpu =
      registry.add_resource("cpu", ResourceKind::kCpu, HostId{0}, 100.0);
  ResourceId bw = registry.add_resource(
      "bw", ResourceKind::kNetworkBandwidth, HostId{}, 50.0);
  ServiceDefinition service = make_service();
  SessionCoordinator coordinator{&service, {cpu, bw}, &registry};
  ContentionMonitor monitor = make_monitor();
  BasicPlanner admit_planner;
  TradeoffPlanner degrade_planner;
  ReservationAuditor auditor{&registry};
  Rng rng{7};

  ServiceDefinition make_service() {
    TranslationTable t0, t1;
    t0.set(0, 0, rv({{cpu, 20.0}}));
    t0.set(0, 1, rv({{cpu, 10.0}}));
    t1.set(0, 0, rv({{bw, 30.0}}));
    t1.set(1, 0, rv({{bw, 40.0}}));
    t1.set(1, 1, rv({{bw, 10.0}}));
    return test::make_chain({{2, t0}, {2, t1}});
  }

  ContentionMonitor make_monitor() {
    MonitorConfig config;
    config.ewma_halflife = 1e-6;  // track raw alpha: tests drive it directly
    return ContentionMonitor(&registry, {cpu, bw}, config);
  }

  AdaptationEngine make_engine(EngineConfig config = {}) {
    AdaptationEngine engine(&coordinator, &monitor, &admit_planner,
                            &degrade_planner, config);
    engine.set_auditor(&auditor);
    return engine;
  }

  void expect_clean_audit() {
    const auto violations = auditor.audit_hosts();
    EXPECT_TRUE(violations.empty())
        << (violations.empty() ? "" : violations.front());
  }
};

TEST(AdaptationEngine, AdmitTracksAndDepartSettlesTheBooks) {
  Fixture f;
  AdaptationEngine engine = f.make_engine();
  const SessionId s{1};
  const EstablishResult r =
      engine.admit(s, 1.0, SessionPriority::kStandard, 1.0, f.rng);
  ASSERT_TRUE(r.success);
  ASSERT_TRUE(engine.live(s));
  const SessionRecord* rec = engine.record(s);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->rank, 0u);
  EXPECT_EQ(rec->num_ranks, 2u);
  EXPECT_EQ(rec->priority, SessionPriority::kStandard);
  const FlatMap<ResourceId, double>* floor = engine.floor(s);
  ASSERT_NE(floor, nullptr);
  EXPECT_DOUBLE_EQ(floor->at(f.cpu), 20.0);
  EXPECT_DOUBLE_EQ(floor->at(f.bw), 30.0);
  f.expect_clean_audit();

  engine.depart(s, 2.0);
  EXPECT_FALSE(engine.live(s));
  EXPECT_EQ(engine.floor(s), nullptr);
  EXPECT_TRUE(f.auditor.model_empty());
  f.expect_clean_audit();
  EXPECT_EQ(f.registry.broker(f.cpu).available(), 100.0);
  EXPECT_EQ(f.registry.broker(f.bw).available(), 50.0);
}

TEST(AdaptationEngine, WatchdogDowngradesSessionsOnContendedResources) {
  Fixture f;
  AdaptationEngine engine = f.make_engine();
  const SessionId s{1};
  ASSERT_TRUE(
      engine.admit(s, 1.0, SessionPriority::kStandard, 1.0, f.rng).success);
  ASSERT_EQ(engine.record(s)->rank, 0u);

  // A hog takes most of the remaining bandwidth: bw's alpha collapses.
  // (Out-of-band reservations are mirrored into the auditor by hand.)
  ASSERT_TRUE(f.registry.broker(f.bw).reserve(2.0, SessionId{99}, 15.0));
  f.auditor.on_reserved(SessionId{99}, f.bw, 15.0);
  engine.tick(3.0, f.rng);

  EXPECT_TRUE(f.monitor.contended(f.bw));
  EXPECT_EQ(engine.stats().downgrade_attempts, 1u);
  EXPECT_EQ(engine.stats().downgrades, 1u);
  EXPECT_EQ(engine.record(s)->rank, 1u);
  EXPECT_EQ(f.registry.broker(f.cpu).held_by(s), 10.0);
  EXPECT_EQ(f.registry.broker(f.bw).held_by(s), 10.0);
  const FlatMap<ResourceId, double>* floor = engine.floor(s);
  ASSERT_NE(floor, nullptr);
  EXPECT_DOUBLE_EQ(floor->at(f.bw), 10.0);  // floor moved at the commit
  f.expect_clean_audit();
}

TEST(AdaptationEngine, CalmEnvironmentUpgradesAfterTheCooldown) {
  Fixture f;
  EngineConfig config;
  config.upgrade_cooldown = 1.0;
  AdaptationEngine engine = f.make_engine(config);
  const SessionId s{1};
  ASSERT_TRUE(
      engine.admit(s, 1.0, SessionPriority::kStandard, 1.0, f.rng).success);
  ASSERT_TRUE(f.registry.broker(f.bw).reserve(2.0, SessionId{99}, 15.0));
  f.auditor.on_reserved(SessionId{99}, f.bw, 15.0);
  engine.tick(3.0, f.rng);
  ASSERT_EQ(engine.record(s)->rank, 1u);

  // The hog departs; once the window normalizes the watchdog reads calm
  // again and the additive-increase probe restores rank 0.
  f.registry.broker(f.bw).release(4.0, SessionId{99});
  f.auditor.on_session_released(SessionId{99});
  for (std::size_t i = 0; i < 40 && engine.record(s)->rank != 0; ++i)
    engine.tick(5.0 + static_cast<double>(i), f.rng);
  EXPECT_EQ(engine.record(s)->rank, 0u) << "never upgraded";
  EXPECT_GE(engine.stats().upgrades, 1u);
  EXPECT_GT(engine.stats().upgrade_attempts, 0u);
  EXPECT_EQ(f.registry.broker(f.bw).held_by(s), 30.0);
  f.expect_clean_audit();
}

TEST(AdaptationEngine, UpgradeOnlyModeIgnoresContentionEntirely) {
  Fixture f;
  EngineConfig config;
  config.upgrade_only = true;
  AdaptationEngine engine = f.make_engine(config);
  const SessionId first{1}, second{2};
  ASSERT_TRUE(
      engine.admit(first, 1.0, SessionPriority::kStandard, 1.0, f.rng)
          .success);
  // With first holding bw 30 only rank 1 is feasible for second.
  ASSERT_TRUE(
      engine.admit(second, 1.0, SessionPriority::kStandard, 1.0, f.rng)
          .success);
  ASSERT_EQ(engine.record(second)->rank, 1u);
  engine.depart(first, 2.0);

  // A cpu hog collapses cpu's alpha: the normal watchdog would downgrade
  // second (it holds cpu) and its calm gate would veto any upgrade. In
  // upgrade-only mode the probe fires anyway and commits rank 0.
  ASSERT_TRUE(f.registry.broker(f.cpu).reserve(2.5, SessionId{99}, 60.0));
  f.auditor.on_reserved(SessionId{99}, f.cpu, 60.0);
  engine.tick(3.0, f.rng);

  EXPECT_TRUE(f.monitor.contended(f.cpu));
  EXPECT_LT(f.monitor.bottleneck_ewma(), f.monitor.config().exit_contended);
  EXPECT_EQ(engine.stats().downgrade_attempts, 0u);
  EXPECT_EQ(engine.stats().downgrades, 0u);
  EXPECT_EQ(engine.stats().upgrades, 1u);
  EXPECT_EQ(engine.record(second)->rank, 0u);
  EXPECT_EQ(f.registry.broker(f.bw).held_by(second), 30.0);
  f.expect_clean_audit();
}

TEST(AdaptationEngine, AdmissionShedsByDowngradingTheLowestPriority) {
  Fixture f;
  AdaptationEngine engine = f.make_engine();
  const SessionId background{1};
  ASSERT_TRUE(
      engine.admit(background, 1.0, SessionPriority::kBackground, 1.0, f.rng)
          .success);
  ASSERT_EQ(engine.record(background)->rank, 0u);

  // scale-3 critical: rank 0 needs bw 90 (> capacity), rank 1 needs bw 30
  // (> the 20 still free) — no plan without shedding. Downgrading the
  // background session to rank 1 frees exactly enough.
  const SessionId critical{2};
  const EstablishResult r =
      engine.admit(critical, 2.0, SessionPriority::kCritical, 3.0, f.rng);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.plan->end_to_end_rank, 1u);
  EXPECT_EQ(engine.stats().preempt_downgrades, 1u);
  EXPECT_EQ(engine.stats().preemptions, 0u);
  EXPECT_TRUE(engine.live(background));
  EXPECT_EQ(engine.record(background)->rank, 1u);
  EXPECT_EQ(f.registry.broker(f.bw).held_by(background), 10.0);
  EXPECT_EQ(f.registry.broker(f.bw).held_by(critical), 30.0);
  f.expect_clean_audit();
}

TEST(AdaptationEngine, AdmissionEvictsWhenDowngradingIsNotEnough) {
  Fixture f;
  AdaptationEngine engine = f.make_engine();
  // The background session is admitted already degraded (a hog holds the
  // band), so it has no rank left to give when the critical one arrives.
  ASSERT_TRUE(f.registry.broker(f.bw).reserve(0.5, SessionId{99}, 35.0));
  f.auditor.on_reserved(SessionId{99}, f.bw, 35.0);
  const SessionId background{1};
  ASSERT_TRUE(
      engine.admit(background, 1.0, SessionPriority::kBackground, 1.0, f.rng)
          .success);
  ASSERT_EQ(engine.record(background)->rank, 1u);
  f.registry.broker(f.bw).release(1.5, SessionId{99});
  f.auditor.on_session_released(SessionId{99});

  std::vector<SessionId> evicted;
  engine.on_evicted = [&evicted](SessionId id) { evicted.push_back(id); };
  // scale-5 critical: rank 1 needs bw 50 — the whole link. Only eviction
  // of the background holder makes room.
  const SessionId critical{2};
  const EstablishResult r =
      engine.admit(critical, 2.0, SessionPriority::kCritical, 5.0, f.rng);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(engine.stats().preemptions, 1u);
  EXPECT_FALSE(engine.live(background));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted.front(), background);
  EXPECT_EQ(f.registry.broker(f.bw).held_by(background), 0.0);
  EXPECT_EQ(f.registry.broker(f.bw).held_by(critical), 50.0);
  f.expect_clean_audit();
}

TEST(AdaptationEngine, NeverShedsEqualOrHigherPriority) {
  Fixture f;
  AdaptationEngine engine = f.make_engine();
  const SessionId first{1};
  ASSERT_TRUE(
      engine.admit(first, 1.0, SessionPriority::kStandard, 1.0, f.rng)
          .success);
  const SessionId second{2};
  const EstablishResult r =
      engine.admit(second, 2.0, SessionPriority::kStandard, 5.0, f.rng);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(engine.stats().preemptions, 0u);
  EXPECT_EQ(engine.stats().preempt_downgrades, 0u);
  EXPECT_TRUE(engine.live(first));
  EXPECT_EQ(engine.record(first)->rank, 0u);
  f.expect_clean_audit();
}

TEST(AdaptationEngine, GovernorFastRejectsLowPriorityUnderOverload) {
  Fixture f;
  AdaptationEngine engine = f.make_engine();
  const ContentionGovernor governor(&f.monitor, /*alpha_reject=*/0.7,
                                    static_cast<int>(
                                        SessionPriority::kStandard));
  f.coordinator.set_admission_governor(&governor);

  // Saturate the band and let the watchdog see it.
  ASSERT_TRUE(f.registry.broker(f.bw).reserve(1.0, SessionId{99}, 45.0));
  f.auditor.on_reserved(SessionId{99}, f.bw, 45.0);
  engine.tick(2.0, f.rng);
  ASSERT_LT(f.monitor.bottleneck_ewma(), 0.7);

  const EstablishResult background =
      engine.admit(SessionId{1}, 2.5, SessionPriority::kBackground, 1.0,
                   f.rng);
  EXPECT_FALSE(background.success);
  EXPECT_EQ(background.outcome, EstablishOutcome::kOverload);
  EXPECT_EQ(background.stats.availability_messages, 0u);  // reject-fast
  EXPECT_EQ(engine.stats().overload_rejects, 1u);

  // Protected priorities pass the governor (and may still fail on
  // capacity — but never with kOverload).
  const EstablishResult standard =
      engine.admit(SessionId{2}, 2.5, SessionPriority::kStandard, 1.0,
                   f.rng);
  EXPECT_NE(standard.outcome, EstablishOutcome::kOverload);
  f.expect_clean_audit();
}

TEST(AdaptationEngine, DisabledEngineIsBitIdenticalPassThrough) {
  Fixture plain;
  Fixture adaptive;
  EngineConfig off;
  off.enabled = false;
  AdaptationEngine engine = adaptive.make_engine(off);

  const EstablishResult expected = plain.coordinator.establish(
      SessionId{1}, 1.0, plain.admit_planner, plain.rng);
  const EstablishResult actual = engine.admit(
      SessionId{1}, 1.0, SessionPriority::kStandard, 1.0, adaptive.rng);
  ASSERT_EQ(actual.success, expected.success);
  EXPECT_EQ(actual.plan->end_to_end_rank, expected.plan->end_to_end_rank);
  EXPECT_EQ(actual.holdings, expected.holdings);

  // Ticks neither sample a broker nor renegotiate anything.
  engine.tick(2.0, adaptive.rng);
  engine.tick(3.0, adaptive.rng);
  EXPECT_FALSE(adaptive.monitor.state(adaptive.cpu).sampled);
  EXPECT_EQ(engine.stats().downgrade_attempts, 0u);
  EXPECT_EQ(adaptive.registry.broker(adaptive.cpu).available(),
            plain.registry.broker(plain.cpu).available());
  EXPECT_EQ(adaptive.registry.broker(adaptive.bw).available(),
            plain.registry.broker(plain.bw).available());
}

// --- Control-plane faults -------------------------------------------------

struct ScriptedTransport final : public IControlTransport {
  std::set<std::uint32_t> down;
  std::function<bool(HostId, HostId)> deny;
  int calls = 0;

  ExchangeResult exchange(HostId from, HostId to, double /*now*/,
                          const RetryPolicy* /*budget*/) override {
    ++calls;
    if (down.count(to.value()) > 0) return {ExchangeStatus::kPeerDown, 0};
    if (deny && deny(from, to)) return {ExchangeStatus::kTimeout, 0};
    return {ExchangeStatus::kOk, 1};
  }
  bool reachable(HostId host, double /*t*/) const override {
    return down.count(host.value()) == 0;
  }
};

// One component, two levels on two hosts (preferred on host 1's cpu1,
// degraded on host 2's cpu2); main proxy on host 0.
struct FaultedFixture {
  BrokerRegistry registry;
  ResourceId cpu1 =
      registry.add_resource("cpu1", ResourceKind::kCpu, HostId{1}, 100.0);
  ResourceId cpu2 =
      registry.add_resource("cpu2", ResourceKind::kCpu, HostId{2}, 100.0);
  ServiceDefinition service = make_service();
  SessionCoordinator coordinator{&service, {cpu1, cpu2}, &registry};
  rpc::BrokerService broker_service{&registry};
  ScriptedTransport transport;
  ContentionMonitor monitor = make_monitor();
  BasicPlanner admit_planner;
  TradeoffPlanner degrade_planner;
  ReservationAuditor auditor{&registry};
  Rng rng{7};

  ServiceDefinition make_service() {
    TranslationTable t;
    t.set(0, 0, rv({{cpu1, 20.0}}));
    t.set(0, 1, rv({{cpu2, 20.0}}));
    return test::make_chain({{2, t}});
  }

  ContentionMonitor make_monitor() {
    MonitorConfig config;
    config.ewma_halflife = 1e-6;
    return ContentionMonitor(&registry, {cpu1, cpu2}, config);
  }
};

TEST(AdaptationEngineFaults, AbortedDowngradeKeepsTheSessionWhole) {
  FaultedFixture f;
  f.coordinator.attach_rpc_service(&f.broker_service, HostId{0},
                                  &f.transport);
  AdaptationEngine engine(&f.coordinator, &f.monitor, &f.admit_planner,
                          &f.degrade_planner);
  engine.set_auditor(&f.auditor);
  const SessionId s{1};
  ASSERT_TRUE(
      engine.admit(s, 1.0, SessionPriority::kStandard, 1.0, f.rng).success);
  ASSERT_EQ(engine.record(s)->rank, 0u);
  ASSERT_EQ(f.registry.broker(f.cpu1).held_by(s), 20.0);

  // cpu1 becomes contended; the watchdog will try to move the session to
  // cpu2 — but host 2 is unreachable for the delta dispatch. The session
  // must keep its old plan in full: this is the regression for the
  // break-before-make hazard (a crash mid-renegotiation stranding a live
  // session with zero holdings).
  ASSERT_TRUE(f.registry.broker(f.cpu1).reserve(2.0, SessionId{99}, 70.0));
  f.auditor.on_reserved(SessionId{99}, f.cpu1, 70.0);
  f.transport.down.insert(2);
  engine.tick(3.0, f.rng);

  EXPECT_EQ(engine.stats().mbb_aborts, 1u);
  EXPECT_EQ(engine.stats().downgrades, 0u);
  ASSERT_TRUE(engine.live(s));
  EXPECT_EQ(engine.record(s)->rank, 0u);
  EXPECT_EQ(f.registry.broker(f.cpu1).held_by(s), 20.0);
  EXPECT_EQ(f.registry.broker(f.cpu2).held_by(s), 0.0);
  // The broker still satisfies the engine's floor for the session.
  const FlatMap<ResourceId, double>* floor = engine.floor(s);
  ASSERT_NE(floor, nullptr);
  for (const auto& [res, amount] : *floor)
    EXPECT_GE(f.registry.broker(res).held_by(s) + 1e-9, amount);
  EXPECT_TRUE(f.auditor.audit_hosts().empty());

  // When the host comes back the next watchdog pass completes the move.
  f.transport.down.erase(2);
  engine.tick(4.0, f.rng);
  EXPECT_EQ(engine.record(s)->rank, 1u);
  EXPECT_EQ(f.registry.broker(f.cpu2).held_by(s), 20.0);
  EXPECT_EQ(f.registry.broker(f.cpu1).held_by(s), 0.0);
  EXPECT_TRUE(f.auditor.audit_hosts().empty());
}

TEST(AdaptationEngineFaults, StrandedAdmissionRollbackIsTrackedAsZombie) {
  // Two-segment chain on two remote hosts: segment a (host 1) dispatches
  // and reserves, segment b's dispatch is denied, and host 1 then drops
  // off before the rollback release can be delivered — the classic
  // partial-failure leak. The engine must book the stranded reservation
  // as a zombie so the auditor still balances, and release_zombies()
  // (modelling lease expiry) must settle it once host 1 is back.
  BrokerRegistry registry;
  const ResourceId a =
      registry.add_resource("a", ResourceKind::kCpu, HostId{1}, 100.0);
  const ResourceId b =
      registry.add_resource("b", ResourceKind::kCpu, HostId{2}, 100.0);
  TranslationTable t0, t1;
  t0.set(0, 0, rv({{a, 20.0}}));
  t1.set(0, 0, rv({{b, 30.0}}));
  ServiceDefinition service = test::make_chain({{1, t0}, {1, t1}});
  SessionCoordinator coordinator(&service, {a, b}, &registry);
  rpc::BrokerService broker_service(&registry);
  ScriptedTransport transport;
  coordinator.attach_rpc_service(&broker_service, HostId{0}, &transport);
  ContentionMonitor monitor(&registry, {a, b});
  BasicPlanner admit_planner;
  TradeoffPlanner degrade_planner;
  ReservationAuditor auditor(&registry);
  AdaptationEngine engine(&coordinator, &monitor, &admit_planner,
                          &degrade_planner);
  engine.set_auditor(&auditor);
  Rng rng(7);

  // Calls 1-2 are the phase-1 polls to hosts 1 and 2; call 3 dispatches
  // segment a (reserves); call 4 dispatches segment b (denied -> abort);
  // call 5 is the rollback release of a (denied -> stranded).
  transport.deny = [&transport](HostId, HostId to) {
    if (transport.calls == 4 && to == HostId{2}) return true;
    if (transport.calls >= 5 && to == HostId{1}) return true;
    return false;
  };
  const EstablishResult r =
      engine.admit(SessionId{1}, 2.0, SessionPriority::kStandard, 1.0, rng);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.outcome, EstablishOutcome::kUnreachable);
  EXPECT_FALSE(engine.live(SessionId{1}));
  ASSERT_EQ(engine.zombies().size(), 1u);
  EXPECT_EQ(engine.zombies().front().resource, a);
  EXPECT_EQ(engine.zombies().front().amount, 20.0);
  EXPECT_EQ(registry.broker(a).held_by(SessionId{1}), 20.0);
  EXPECT_TRUE(auditor.audit_hosts().empty());  // model expects the zombie

  // The cleanup release is an RPC too: while host 1 stays unreachable it
  // cannot be delivered, and the zombie stays booked.
  EXPECT_EQ(engine.release_zombies(2.5), 0u);
  ASSERT_EQ(engine.zombies().size(), 1u);
  EXPECT_TRUE(auditor.audit_hosts().empty());

  // Once the control plane heals, explicit cleanup (modelling lease
  // expiry) settles the books.
  transport.deny = nullptr;
  EXPECT_EQ(engine.release_zombies(3.0), 1u);
  EXPECT_TRUE(engine.zombies().empty());
  EXPECT_TRUE(auditor.model_empty());
  EXPECT_TRUE(auditor.audit_hosts().empty());
  EXPECT_EQ(registry.broker(a).available(), 100.0);
}

}  // namespace
}  // namespace qres::adapt
