// Post-restart session reconciliation (SessionCoordinator::reconcile_broker,
// DESIGN.md §9): sessions re-assert their holdings against a broker that
// recovered from its journal, and every divergence is resolved toward the
// journal's truth — claims matching the recovery are confirmed (and their
// leases renewed), claims the lost journal tail no longer backs are
// forfeit, recovered holdings nobody claims are orphans and released, and
// a lost re-sync RPC leaves the holding untouched under the restart lease
// grace. Also covers the typed kBrokerUnavailable establishment outcome.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_helpers.hpp"
#include "broker/journal.hpp"
#include "proxy/qos_proxy.hpp"

namespace qres {
namespace {

using test::rv;
using Claim = SessionCoordinator::ReconcileClaim;
using Resolution = SessionCoordinator::ReconcileResolution;

const SessionId s1{1}, s2{2}, s9{9};

/// Scriptable control transport: every exchange succeeds (or fails) by
/// decree, so each reconciliation RPC path is reachable deterministically.
struct StubTransport final : IControlTransport {
  int result = 1;  // transmissions used; 0 = exchange failed
  int calls = 0;
  ExchangeResult exchange(HostId, HostId, double,
                          const RetryPolicy*) override {
    ++calls;
    if (result == 0) return {ExchangeStatus::kTimeout, 0};
    return {ExchangeStatus::kOk, result};
  }
  bool reachable(HostId, double) const override { return true; }
};

// Same two-component chain as test_renegotiate: rank-0 plan is
// cpu 20 + bw 30, rank-1 plan is cpu 10 + bw 10. cpu lives on host 0 (so
// re-sync RPCs from other hosts cross the transport); bw is main-local.
struct Fixture {
  BrokerRegistry registry;
  ResourceId cpu =
      registry.add_resource("cpu", ResourceKind::kCpu, HostId{0}, 100.0);
  ResourceId bw = registry.add_resource(
      "bw", ResourceKind::kNetworkBandwidth, HostId{}, 50.0);
  ServiceDefinition service = make_service();
  SessionCoordinator coordinator{&service, {cpu, bw}, &registry};
  rpc::BrokerService broker_service{&registry};
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

  ResourceBroker& leaf(ResourceId id) { return *registry.leaf(id); }
};

TEST(Reconcile, ConfirmedClaimRenewsItsLease) {
  Fixture f;
  f.coordinator.enable_leases(10.0);
  ASSERT_TRUE(f.leaf(f.cpu).reserve_leased(0.0, s1, 20.0, 5.0));
  const auto report = f.coordinator.reconcile_broker(
      f.cpu, 2.0, {{s1, HostId{0}, 20.0}});
  EXPECT_EQ(report.confirmed, 1u);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].resolution, Resolution::kConfirmed);
  EXPECT_EQ(report.events[0].claimed, 20.0);
  EXPECT_EQ(report.events[0].held, 20.0);
  EXPECT_EQ(f.leaf(f.cpu).held_by(s1), 20.0);
  // Re-assertion is a sign of life: the lease hands over from the restart
  // grace back to normal keeping.
  EXPECT_EQ(f.leaf(f.cpu).lease_deadline(s1), 12.0);
}

TEST(Reconcile, LostClaimIsForfeitAndTheBrokerKeepsItsTruth) {
  Fixture f;
  // The journal tail holding most of this claim was lost in the crash:
  // the broker recovered only 5 of the claimed 20.
  ASSERT_TRUE(f.leaf(f.cpu).reserve(0.0, s1, 5.0));
  const auto report = f.coordinator.reconcile_broker(
      f.cpu, 2.0, {{s1, HostId{0}, 20.0}});
  EXPECT_EQ(report.lost_claims, 1u);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].resolution, Resolution::kLostClaim);
  EXPECT_EQ(report.events[0].claimed, 20.0);
  EXPECT_EQ(report.events[0].held, 5.0);
  // The journal is the truth: the recovered 5 stand, the other 15 are
  // gone (the caller drops them from the session's books).
  EXPECT_EQ(f.leaf(f.cpu).held_by(s1), 5.0);
}

TEST(Reconcile, ExcessAboveTheClaimIsReleased) {
  Fixture f;
  // The journal restored more than the session re-asserts (a pre-crash
  // rollback whose release record was lost): the excess is orphan
  // capacity and is released on the spot.
  ASSERT_TRUE(f.leaf(f.cpu).reserve(0.0, s1, 30.0));
  const auto report = f.coordinator.reconcile_broker(
      f.cpu, 2.0, {{s1, HostId{0}, 20.0}});
  EXPECT_EQ(report.excess_released, 1u);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].resolution, Resolution::kExcessReleased);
  EXPECT_EQ(f.leaf(f.cpu).held_by(s1), 20.0);
  EXPECT_EQ(f.leaf(f.cpu).available(), 80.0);
}

TEST(Reconcile, UnclaimedHoldingsAreOrphansAndReleased) {
  Fixture f;
  ASSERT_TRUE(f.leaf(f.cpu).reserve(0.0, s1, 20.0));
  ASSERT_TRUE(f.leaf(f.cpu).reserve(0.0, s9, 15.0));  // claimant died
  const auto report = f.coordinator.reconcile_broker(
      f.cpu, 2.0, {{s1, HostId{0}, 20.0}});
  EXPECT_EQ(report.confirmed, 1u);
  EXPECT_EQ(report.orphans_released, 1u);
  EXPECT_EQ(f.leaf(f.cpu).held_by(s1), 20.0);
  EXPECT_EQ(f.leaf(f.cpu).held_by(s9), 0.0);
  EXPECT_EQ(f.leaf(f.cpu).available(), 80.0);
}

TEST(Reconcile, ClaimsAggregatePerSession) {
  Fixture f;
  ASSERT_TRUE(f.leaf(f.cpu).reserve(0.0, s1, 25.0));
  // Two logically distinct reservations of one session on the same
  // broker re-assert as one merged claim (10 + 15 = the held 25).
  const auto report = f.coordinator.reconcile_broker(
      f.cpu, 2.0, {{s1, HostId{0}, 10.0}, {s1, HostId{0}, 15.0}});
  EXPECT_EQ(report.confirmed, 1u);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].claimed, 25.0);
  EXPECT_EQ(f.leaf(f.cpu).held_by(s1), 25.0);
}

TEST(Reconcile, FailedResyncRpcLeavesTheHoldingUntouched) {
  Fixture f;
  f.coordinator.enable_leases(10.0);
  StubTransport transport;
  transport.result = 0;  // every exchange is lost
  f.coordinator.attach_rpc_service(&f.broker_service, HostId{0}, &transport);
  ASSERT_TRUE(f.leaf(f.cpu).reserve_leased(0.0, s1, 20.0, 5.0));
  // The claim owner (host 2) cannot reach the broker host (host 0): the
  // recovered holding stays as-is — no renewal, no forfeit — protected by
  // the restart lease grace until a later pass or expiry settles it.
  const auto report = f.coordinator.reconcile_broker(
      f.cpu, 2.0, {{s1, HostId{2}, 20.0}});
  EXPECT_EQ(report.rpc_failures, 1u);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].resolution, Resolution::kRpcFailed);
  EXPECT_GT(transport.calls, 0);
  EXPECT_EQ(f.leaf(f.cpu).held_by(s1), 20.0);
  EXPECT_EQ(f.leaf(f.cpu).lease_deadline(s1), 5.0);  // not renewed
}

TEST(Reconcile, FailedOrphanSweepRpcLeavesTheOrphanForTheNextPass) {
  Fixture f;
  StubTransport transport;
  transport.result = 0;
  // The coordinator itself runs on host 5; releasing an orphan needs a
  // coordinator-to-broker-host RPC, which is down too.
  f.coordinator.attach_rpc_service(&f.broker_service, HostId{5}, &transport);
  ASSERT_TRUE(f.leaf(f.cpu).reserve(0.0, s9, 15.0));
  const auto report = f.coordinator.reconcile_broker(f.cpu, 2.0, {});
  EXPECT_EQ(report.orphans_released, 0u);
  EXPECT_EQ(report.rpc_failures, 1u);
  EXPECT_EQ(f.leaf(f.cpu).held_by(s9), 15.0);
  // Control plane heals: the next pass reclaims it.
  transport.result = 1;
  const auto retry = f.coordinator.reconcile_broker(f.cpu, 3.0, {});
  EXPECT_EQ(retry.orphans_released, 1u);
  EXPECT_EQ(f.leaf(f.cpu).held_by(s9), 0.0);
}

TEST(Reconcile, MainLocalBrokerNeedsNoTransport) {
  Fixture f;
  StubTransport transport;
  transport.result = 0;
  f.coordinator.attach_rpc_service(&f.broker_service, HostId{0}, &transport);
  // bw's catalog host is invalid (main-local): reconciliation never
  // crosses the transport, so a dead control plane cannot block it.
  ASSERT_TRUE(f.leaf(f.bw).reserve(0.0, s1, 30.0));
  const auto report = f.coordinator.reconcile_broker(
      f.bw, 2.0, {{s1, HostId{3}, 30.0}});
  EXPECT_EQ(report.confirmed, 1u);
  EXPECT_EQ(report.rpc_failures, 0u);
}

TEST(Reconcile, EstablishmentAgainstADownBrokerIsTypedUnavailable) {
  Fixture f;
  f.leaf(f.cpu).crash(0.5);
  // Every plan needs cpu; with its broker down there is no way around the
  // outage, and the outcome says so — a fault to retry after restart, not
  // a capacity rejection.
  const EstablishResult result =
      f.coordinator.establish(s1, 1.0, f.planner, f.rng);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.outcome, EstablishOutcome::kBrokerUnavailable);
  EXPECT_EQ(result.failed_resource, f.cpu);
}

TEST(Reconcile, TeardownDuringOutageLeavesAnOrphanForReconciliation) {
  Fixture f;
  MemoryJournal journal;
  f.leaf(f.cpu).attach_journal(&journal, 64, 0.0);
  const EstablishResult result =
      f.coordinator.establish(s1, 1.0, f.planner, f.rng);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(f.leaf(f.cpu).held_by(s1), 20.0);
  f.leaf(f.cpu).crash(2.0);
  // The release toward the down broker is undeliverable and skipped; the
  // up broker (bw) releases normally.
  f.coordinator.teardown(result.holdings, s1, 3.0);
  EXPECT_EQ(f.leaf(f.bw).held_by(s1), 0.0);
  // Restart recovers the holding from the journal; the session is gone,
  // so reconciliation (no claims) reclaims it as an orphan.
  f.leaf(f.cpu).restart(4.0);
  EXPECT_EQ(f.leaf(f.cpu).held_by(s1), 20.0);
  const auto report = f.coordinator.reconcile_broker(f.cpu, 4.0, {});
  EXPECT_EQ(report.orphans_released, 1u);
  EXPECT_EQ(f.leaf(f.cpu).held_by(s1), 0.0);
  EXPECT_EQ(f.leaf(f.cpu).available(), 100.0);
}

}  // namespace
}  // namespace qres
