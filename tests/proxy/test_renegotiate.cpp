// Make-before-break renegotiation semantics of SessionCoordinator.
//
// The old break-before-make loop (teardown, then re-establish) had a
// window in which a session held nothing while still counted as live;
// renegotiate() reserves the new plan's deltas first and releases the old
// excess only after the commit point, so the session covers a complete
// plan at every instant — including when the control plane fails mid-way.
#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "../test_helpers.hpp"
#include "proxy/qos_proxy.hpp"

namespace qres {
namespace {

using test::rv;

// Same two-component chain as test_coordinator: rank-0 plan is
// cpu 20 + bw 30, rank-1 plan is cpu 10 + bw 10.
struct Fixture {
  BrokerRegistry registry;
  ResourceId cpu =
      registry.add_resource("cpu", ResourceKind::kCpu, HostId{0}, 100.0);
  ResourceId bw = registry.add_resource(
      "bw", ResourceKind::kNetworkBandwidth, HostId{}, 50.0);
  ServiceDefinition service = make_service();
  SessionCoordinator coordinator{&service, {cpu, bw}, &registry};
  BasicPlanner planner;
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
};

TEST(Renegotiate, UpgradesWhenCapacityReturns) {
  Fixture f;
  // Establish degraded: a hog keeps only the rank-1 plan feasible.
  ASSERT_TRUE(f.registry.broker(f.bw).reserve(0.5, SessionId{99}, 35.0));
  const SessionId s{1};
  EstablishResult first =
      f.coordinator.establish(s, 1.0, f.planner, f.rng);
  ASSERT_TRUE(first.success);
  ASSERT_EQ(first.plan->end_to_end_rank, 1u);

  // The hog leaves; renegotiating reaches rank 0 and replaces holdings.
  f.registry.broker(f.bw).release(2.0, SessionId{99});
  const EstablishResult upgraded = f.coordinator.renegotiate(
      s, 3.0, f.planner, f.rng, 1.0, first.holdings);
  ASSERT_TRUE(upgraded.success);
  EXPECT_EQ(upgraded.outcome, EstablishOutcome::kOk);
  EXPECT_EQ(upgraded.plan->end_to_end_rank, 0u);
  EXPECT_TRUE(upgraded.leaked.empty());
  EXPECT_EQ(f.registry.broker(f.cpu).held_by(s), 20.0);
  EXPECT_EQ(f.registry.broker(f.bw).held_by(s), 30.0);
  EXPECT_EQ(f.registry.broker(f.cpu).available(), 80.0);
  EXPECT_EQ(f.registry.broker(f.bw).available(), 20.0);
}

TEST(Renegotiate, CreditsOwnHoldingsIntoTheSnapshot) {
  Fixture f;
  const SessionId s{1};
  EstablishResult first =
      f.coordinator.establish(s, 1.0, f.planner, f.rng);
  ASSERT_TRUE(first.success);
  ASSERT_EQ(first.plan->end_to_end_rank, 0u);
  // Someone else takes every remaining bw unit: raw availability can no
  // longer host the rank-0 plan — but the session already holds it, and
  // the credited snapshot keeps it feasible with zero new reservations.
  ASSERT_TRUE(f.registry.broker(f.bw).reserve(2.0, SessionId{99}, 20.0));
  const EstablishResult again = f.coordinator.renegotiate(
      s, 3.0, f.planner, f.rng, 1.0, first.holdings);
  ASSERT_TRUE(again.success);
  EXPECT_EQ(again.plan->end_to_end_rank, 0u);
  EXPECT_EQ(again.stats.reservations_attempted, 0u);  // pure reuse
  EXPECT_EQ(f.registry.broker(f.cpu).held_by(s), 20.0);
  EXPECT_EQ(f.registry.broker(f.bw).held_by(s), 30.0);
}

TEST(Renegotiate, MinRankClampForcesDegradation) {
  Fixture f;
  const SessionId s{1};
  EstablishResult first =
      f.coordinator.establish(s, 1.0, f.planner, f.rng);
  ASSERT_TRUE(first.success);
  ASSERT_EQ(first.plan->end_to_end_rank, 0u);
  // Rank 0 is still the planner's choice; min_rank = 1 (forced shedding)
  // must clamp to the degraded plan and release the difference.
  const EstablishResult shed = f.coordinator.renegotiate(
      s, 2.0, f.planner, f.rng, 1.0, first.holdings, /*min_rank=*/1);
  ASSERT_TRUE(shed.success);
  EXPECT_EQ(shed.plan->end_to_end_rank, 1u);
  EXPECT_EQ(f.registry.broker(f.cpu).held_by(s), 10.0);
  EXPECT_EQ(f.registry.broker(f.bw).held_by(s), 10.0);
  EXPECT_EQ(f.registry.broker(f.cpu).available(), 90.0);
  EXPECT_EQ(f.registry.broker(f.bw).available(), 40.0);
}

TEST(Renegotiate, InfeasibleReplanKeepsTheOldPlanUntouched) {
  Fixture f;
  ASSERT_TRUE(f.registry.broker(f.bw).reserve(0.5, SessionId{99}, 35.0));
  const SessionId s{1};
  EstablishResult first =
      f.coordinator.establish(s, 1.0, f.planner, f.rng);
  ASSERT_TRUE(first.success);
  ASSERT_EQ(first.plan->end_to_end_rank, 1u);
  // Even credited, bw availability (5 + 10) cannot host a rank-0 plan:
  // the renegotiation must fail without touching a single reservation.
  const EstablishResult failed = f.coordinator.renegotiate(
      s, 2.0, f.planner, f.rng, 1.0, first.holdings, /*min_rank=*/0);
  ASSERT_TRUE(failed.success);  // planner settles for rank 1 again
  EXPECT_EQ(failed.plan->end_to_end_rank, 1u);
  EXPECT_EQ(failed.stats.reservations_attempted, 0u);
  EXPECT_EQ(f.registry.broker(f.cpu).held_by(s), 10.0);
  EXPECT_EQ(f.registry.broker(f.bw).held_by(s), 10.0);
}

TEST(Renegotiate, StaleObservationAbortRollsDeltasBack) {
  Fixture f;
  // Establish degraded (rank 1: cpu 10, bw 10) behind a hog.
  ASSERT_TRUE(f.registry.broker(f.bw).reserve(0.5, SessionId{99}, 35.0));
  const SessionId s{1};
  EstablishResult first =
      f.coordinator.establish(s, 1.0, f.planner, f.rng);
  ASSERT_TRUE(first.success);
  ASSERT_EQ(first.plan->end_to_end_rank, 1u);
  // The hog looks gone through a 3-TU-stale observation (t=9 falls in
  // the hog-free [8, 10] window) although it re-reserved at t=10:
  // planning reaches rank 0, the bw delta bounces against the real
  // broker, and the abort leaves exactly the old holdings.
  f.registry.broker(f.bw).release(8.0, SessionId{99});
  ASSERT_TRUE(f.registry.broker(f.bw).reserve(10.0, SessionId{99}, 35.0));
  const EstablishResult aborted = f.coordinator.renegotiate(
      s, 12.0, f.planner, f.rng, 1.0, first.holdings, 0,
      [](ResourceId) { return 3.0; });
  EXPECT_FALSE(aborted.success);
  EXPECT_EQ(aborted.outcome, EstablishOutcome::kAdmission);
  EXPECT_EQ(aborted.failed_resource, f.bw);
  EXPECT_TRUE(aborted.holdings.empty());
  EXPECT_TRUE(aborted.leaked.empty());
  EXPECT_GT(aborted.stats.reservations_rolled_back, 0u);
  // The make-before-break guarantee: the old plan never stopped being
  // fully held.
  EXPECT_EQ(f.registry.broker(f.cpu).held_by(s), 10.0);
  EXPECT_EQ(f.registry.broker(f.bw).held_by(s), 10.0);
}

TEST(Renegotiate, CommitHookFiresWithTheNewTotalsExactlyOnce) {
  Fixture f;
  const SessionId s{1};
  EstablishResult first =
      f.coordinator.establish(s, 1.0, f.planner, f.rng);
  ASSERT_TRUE(first.success);
  std::vector<std::vector<std::pair<ResourceId, double>>> commits;
  const EstablishResult shed = f.coordinator.renegotiate(
      s, 2.0, f.planner, f.rng, 1.0, first.holdings, /*min_rank=*/1,
      nullptr,
      [&commits](const std::vector<std::pair<ResourceId, double>>& total) {
        commits.push_back(total);
      });
  ASSERT_TRUE(shed.success);
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_EQ(commits.front(),
            (std::vector<std::pair<ResourceId, double>>{{f.cpu, 10.0},
                                                        {f.bw, 10.0}}));
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

// One component, two levels on two hosts: the preferred level needs
// host 1's cpu1, the degraded one host 2's cpu2. Main proxy is host 0.
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
  BasicPlanner planner;
  Rng rng{7};

  ServiceDefinition make_service() {
    TranslationTable t;
    t.set(0, 0, rv({{cpu1, 20.0}}));
    t.set(0, 1, rv({{cpu2, 20.0}}));
    return test::make_chain({{2, t}});
  }

  /// Establishes at the degraded rank by keeping host 1 down, then
  /// brings it back. Returns the (rank-1) holdings.
  EstablishResult establish_degraded(SessionId s) {
    coordinator.attach_rpc_service(&broker_service, HostId{0}, &transport);
    transport.down.insert(1);
    EstablishResult r = coordinator.establish(s, 1.0, planner, rng);
    transport.down.erase(1);
    return r;
  }
};

TEST(RenegotiateFaults, UnreachableDeltaAbortNeverStrandsTheSession) {
  FaultedFixture f;
  const SessionId s{1};
  const EstablishResult first = f.establish_degraded(s);
  ASSERT_TRUE(first.success);
  ASSERT_EQ(first.plan->end_to_end_rank, 1u);
  ASSERT_EQ(f.registry.broker(f.cpu2).held_by(s), 20.0);

  // Renegotiation toward rank 0: the poll round (calls 1-2) succeeds but
  // the delta dispatch to host 1 (call 3) finds it dead again. This is
  // the regression the break-before-make loop failed: the session must
  // never be left with zero holdings while still counted as live.
  f.transport.calls = 0;
  f.transport.deny = [&f](HostId, HostId to) {
    return f.transport.calls >= 3 && to == HostId{1};
  };
  const EstablishResult aborted = f.coordinator.renegotiate(
      s, 3.0, f.planner, f.rng, 1.0, first.holdings);
  EXPECT_FALSE(aborted.success);
  EXPECT_EQ(aborted.outcome, EstablishOutcome::kUnreachable);
  EXPECT_TRUE(aborted.holdings.empty());
  EXPECT_TRUE(aborted.leaked.empty());  // nothing was reserved yet
  EXPECT_EQ(f.registry.broker(f.cpu2).held_by(s), 20.0);  // old plan intact
  EXPECT_EQ(f.registry.broker(f.cpu1).held_by(s), 0.0);
}

TEST(RenegotiateFaults, StrandedExcessReleaseIsReportedAndKeptOnTheBooks) {
  FaultedFixture f;
  const SessionId s{1};
  const EstablishResult first = f.establish_degraded(s);
  ASSERT_TRUE(first.success);

  // Poll (calls 1-2) and the cpu1 delta dispatch (call 3) succeed; the
  // transition commits, but the excess release to host 2 (call 4) cannot
  // be dispatched. The session keeps the stranded amount on its books so
  // they still match the broker.
  f.transport.calls = 0;
  f.transport.deny = [&f](HostId, HostId to) {
    return f.transport.calls >= 4 && to == HostId{2};
  };
  const EstablishResult upgraded = f.coordinator.renegotiate(
      s, 3.0, f.planner, f.rng, 1.0, first.holdings);
  ASSERT_TRUE(upgraded.success);
  EXPECT_EQ(upgraded.plan->end_to_end_rank, 0u);
  ASSERT_EQ(upgraded.leaked.size(), 1u);
  EXPECT_EQ(upgraded.leaked.front().first, f.cpu2);
  EXPECT_EQ(upgraded.leaked.front().second, 20.0);
  // holdings = new plan + the stranded excess.
  EXPECT_EQ(upgraded.holdings,
            (std::vector<std::pair<ResourceId, double>>{{f.cpu1, 20.0},
                                                        {f.cpu2, 20.0}}));
  EXPECT_EQ(f.registry.broker(f.cpu1).held_by(s), 20.0);
  EXPECT_EQ(f.registry.broker(f.cpu2).held_by(s), 20.0);
  // A later teardown with those books, once host 2 is reachable again,
  // settles everything.
  f.transport.deny = nullptr;
  EXPECT_TRUE(f.coordinator.teardown(upgraded.holdings, s, 4.0).empty());
  EXPECT_EQ(f.registry.broker(f.cpu1).available(), 100.0);
  EXPECT_EQ(f.registry.broker(f.cpu2).available(), 100.0);
}

}  // namespace
}  // namespace qres
