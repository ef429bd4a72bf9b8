// Coordination protocols under control-plane faults: unreachable proxies,
// replanning around dead hosts, leaked rollbacks reclaimed by leases. A
// scripted IControlTransport makes each failure deterministic instead of
// seed-hunted.
#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "../test_helpers.hpp"
#include "proxy/qos_proxy.hpp"

namespace qres {
namespace {

using test::rv;

/// Deterministic control plane: named hosts are down, and `deny` can veto
/// individual exchanges (e.g. "the third RPC of this establishment").
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

// One component, two output levels: the preferred level runs on host 1's
// cpu, the degraded fallback on host 2's. The main proxy is host 0.
struct Fixture {
  BrokerRegistry registry;
  ResourceId cpu1 =
      registry.add_resource("cpu1", ResourceKind::kCpu, HostId{1}, 100.0);
  ResourceId cpu2 =
      registry.add_resource("cpu2", ResourceKind::kCpu, HostId{2}, 100.0);
  ServiceDefinition service = make_service();
  SessionCoordinator coordinator{&service, {cpu1, cpu2}, &registry};
  rpc::BrokerService broker_service{&registry};
  ScriptedTransport transport;
  BasicPlanner planner;
  Rng rng{7};
  HostId main_host{0};

  ServiceDefinition make_service() {
    TranslationTable t;
    t.set(0, 0, rv({{cpu1, 20.0}}));
    t.set(0, 1, rv({{cpu2, 20.0}}));
    return test::make_chain({{2, t}});
  }
};

TEST(FaultedCoordinator, AttachContracts) {
  Fixture f;
  EXPECT_THROW(f.coordinator.attach_rpc_service(nullptr, f.main_host),
               ContractViolation);
  EXPECT_THROW(f.coordinator.attach_rpc_service(&f.broker_service, HostId{}),
               ContractViolation);
  EXPECT_THROW(f.coordinator.enable_leases(0.0), ContractViolation);
}

TEST(FaultedCoordinator, PerfectTransportIsInvisible) {
  Fixture plain;
  const EstablishResult expected =
      plain.coordinator.establish(SessionId{1}, 1.0, plain.planner, plain.rng);

  Fixture f;
  f.coordinator.attach_rpc_service(&f.broker_service, f.main_host,
                                  &f.transport);
  const EstablishResult result =
      f.coordinator.establish(SessionId{1}, 1.0, f.planner, f.rng);

  ASSERT_TRUE(expected.success);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.plan->end_to_end_rank, expected.plan->end_to_end_rank);
  EXPECT_EQ(result.holdings, expected.holdings);
  EXPECT_EQ(result.stats.unreachable_proxies, 0u);
  EXPECT_EQ(result.stats.retransmissions, 0u);
  EXPECT_EQ(f.registry.broker(f.cpu1).available(),
            plain.registry.broker(f.cpu1).available());
  // Phase 1 polled both remote owner hosts, phase 3 dispatched one segment.
  EXPECT_EQ(f.transport.calls, 3);
}

TEST(FaultedCoordinator, Phase1UnreachableHostIsPlannedAround) {
  Fixture f;
  f.coordinator.attach_rpc_service(&f.broker_service, f.main_host,
                                  &f.transport);
  f.transport.down.insert(1);  // host 1 (cpu1) never reports
  const EstablishResult result =
      f.coordinator.establish(SessionId{1}, 1.0, f.planner, f.rng);
  // No report means zero observed availability: the planner routes to the
  // degraded level on host 2 instead of reserving blind.
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.plan->end_to_end_rank, 1u);
  EXPECT_EQ(result.stats.unreachable_proxies, 1u);
  EXPECT_EQ(f.registry.broker(f.cpu1).available(), 100.0);
  EXPECT_EQ(f.registry.broker(f.cpu2).available(), 80.0);
}

TEST(FaultedCoordinator, DispatchFailureTriggersReplanAroundDeadHost) {
  Fixture f;
  f.coordinator.attach_rpc_service(&f.broker_service, f.main_host,
                                  &f.transport);
  // Host 1 answers the phase-1 poll (calls 1, 2) but dies before the
  // phase-3 dispatch (call 3): the preferred plan fails with kUnreachable
  // and the recovery round must re-plan onto host 2.
  f.transport.deny = [&f](HostId, HostId to) {
    return f.transport.calls >= 3 && to == HostId{1};
  };
  const EstablishResult result = f.coordinator.establish(
      SessionId{1}, 1.0, f.planner, f.rng, 1.0, nullptr, {.max_replans = 2});
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.outcome, EstablishOutcome::kOk);
  EXPECT_EQ(result.stats.replans, 1u);
  EXPECT_EQ(result.plan->end_to_end_rank, 1u);  // degraded QoS, but live
  // One dispatch failure plus the round-2 poll of the now-dead host.
  EXPECT_EQ(result.stats.unreachable_proxies, 2u);
  EXPECT_TRUE(result.leaked.empty());
  EXPECT_EQ(f.registry.broker(f.cpu1).available(), 100.0);
  EXPECT_EQ(f.registry.broker(f.cpu2).available(), 80.0);
}

TEST(FaultedCoordinator, ReplanBudgetExhaustsIntoNoPlan) {
  Fixture f;
  f.coordinator.attach_rpc_service(&f.broker_service, f.main_host,
                                  &f.transport);
  // Every phase-3 dispatch is denied (calls 3 and 6); once both hosts are
  // marked dead the third round has nothing left to plan with.
  f.transport.deny = [&f](HostId, HostId) {
    return f.transport.calls == 3 || f.transport.calls == 6;
  };
  const EstablishResult result = f.coordinator.establish(
      SessionId{1}, 1.0, f.planner, f.rng, 1.0, nullptr, {.max_replans = 2});
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.outcome, EstablishOutcome::kNoPlan);
  EXPECT_EQ(result.stats.replans, 2u);
  EXPECT_EQ(f.registry.broker(f.cpu1).available(), 100.0);
  EXPECT_EQ(f.registry.broker(f.cpu2).available(), 100.0);
}

TEST(FaultedCoordinator, UnreachableRollbackLeaksUntilTheLeaseExpires) {
  // Two-segment plan on two hosts. cpu1 reserves, cpu2 is rejected (its
  // observation was stale), and by rollback time host 1 is unreachable:
  // the cpu1 holding leaks — but it was leased, so the broker reclaims it.
  BrokerRegistry registry;
  const ResourceId cpu1 =
      registry.add_resource("cpu1", ResourceKind::kCpu, HostId{1}, 100.0);
  const ResourceId cpu2 =
      registry.add_resource("cpu2", ResourceKind::kCpu, HostId{2}, 100.0);
  TranslationTable t0, t1;
  t0.set(0, 0, rv({{cpu1, 20.0}}));
  t1.set(0, 0, rv({{cpu2, 30.0}}));
  ServiceDefinition service = test::make_chain({{1, t0}, {1, t1}});
  SessionCoordinator coordinator(&service, {cpu1, cpu2}, &registry);
  rpc::BrokerService broker_service(&registry);
  ScriptedTransport transport;
  coordinator.attach_rpc_service(&broker_service, HostId{0}, &transport);
  coordinator.enable_leases(5.0);
  registry.broker(cpu1).enable_expiry_log();

  // cpu2 filled at t=1; the main proxy's observation of it is 1.5 TU old,
  // so planning at t=2 still sees it empty and the reservation bounces.
  ASSERT_TRUE(registry.broker(cpu2).reserve(1.0, SessionId{99}, 90.0));
  const auto staleness = [cpu2](ResourceId id) {
    return id == cpu2 ? 1.5 : 0.0;
  };
  // Calls 1-4 (polls + both dispatches) succeed; call 5 is the rollback
  // release to host 1, which is denied.
  transport.deny = [&transport](HostId, HostId to) {
    return transport.calls >= 5 && to == HostId{1};
  };

  BasicPlanner planner;
  Rng rng(7);
  const SessionId session{1};
  const EstablishResult result = coordinator.establish(
      session, 2.0, planner, rng, 1.0, staleness);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.outcome, EstablishOutcome::kAdmission);
  EXPECT_EQ(result.failed_resource, cpu2);
  ASSERT_EQ(result.leaked.size(), 1u);
  EXPECT_EQ(result.leaked.front().first, cpu1);
  EXPECT_EQ(result.leaked.front().second, 20.0);
  EXPECT_EQ(result.stats.reservations_rolled_back, 0u);
  EXPECT_EQ(registry.broker(cpu1).held_by(session), 20.0);

  // The leak is bounded by the lease: once it runs out the broker
  // reclaims, and the expiry log reports the session to the accountant.
  EXPECT_EQ(registry.broker(cpu1).expire_due(2.0 + 5.0 + 0.1, nullptr),
            20.0);
  EXPECT_EQ(registry.broker(cpu1).available(), 100.0);
  std::vector<SessionId> reclaimed;
  registry.broker(cpu1).take_expired(&reclaimed);
  ASSERT_EQ(reclaimed.size(), 1u);
  EXPECT_EQ(reclaimed.front(), session);
}

}  // namespace
}  // namespace qres
