// FailoverCoordinator tests (DESIGN.md §14): heartbeat miss counting up
// to the promotion threshold, most-caught-up candidate selection with
// the earliest-host tie-break, directory re-homing (seed, refresh after
// an external promotion, update after a failover), the no-candidate
// holding pattern, the typed-link promotion path with lost acks retried
// across ticks, and leases that survive a failover and renew against the
// new primary.
#include "sim/failover.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "broker/registry.hpp"
#include "rpc/channel.hpp"
#include "rpc/replication_link.hpp"
#include "util/assert.hpp"

namespace qres {
namespace {

const SessionId s1{1};
const HostId hA{1}, hB{2}, hC{3};
const HostId kCoordinator{9};

/// Control transport whose health the test toggles; frames and pings
/// both fail while unhealthy.
struct FlakyTransport final : IControlTransport {
  bool healthy = true;

  ExchangeResult exchange(HostId, HostId, double,
                          const RetryPolicy* budget) override {
    if (healthy) return {ExchangeStatus::kOk, 1};
    return {ExchangeStatus::kTimeout,
            budget != nullptr ? budget->max_attempts : 1};
  }
  bool reachable(HostId, double) const override { return true; }
};

ResourceId add_group(BrokerRegistry* registry) {
  return registry->add_replicated_resource("cpu0", ResourceKind::kCpu,
                                           {hA, hB, hC}, 100.0);
}

TEST(Failover, WatchSeedsTheDirectoryAndRequiresAReplicatedGroup) {
  BrokerRegistry registry;
  const ResourceId rid = add_group(&registry);
  const ResourceId plain =
      registry.add_resource("disk0", ResourceKind::kDiskBandwidth, hA, 50.0);
  ReplicationDirectory directory;
  FailoverCoordinator coordinator(&registry, &directory, kCoordinator);

  coordinator.watch(rid);
  const ReplicationDirectory::Entry* entry = directory.find(rid);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->primary, hA);
  EXPECT_EQ(entry->epoch, 1u);
  EXPECT_THROW(coordinator.watch(plain), ContractViolation);
}

TEST(Failover, PromotesTheMostCaughtUpStandbyAtTheMissThreshold) {
  BrokerRegistry registry;
  const ResourceId rid = add_group(&registry);
  ReplicatedBroker* group = registry.replicated(rid);
  ReplicationDirectory directory;
  FailoverCoordinator coordinator(&registry, &directory, kCoordinator);
  coordinator.watch(rid);

  struct Seen {
    ResourceId resource;
    HostId host;
    std::uint64_t epoch = 0;
    double when = 0.0;
  };
  std::vector<Seen> seen;
  coordinator.on_failover(
      [&seen](ResourceId r, HostId h, std::uint64_t e, double t) {
        seen.push_back({r, h, e, t});
      });

  // Make hB strictly more caught up than hC: grant while hC is down (the
  // majority quorum holds via hA + hB), then bring hC back lagging.
  group->crash_replica(hC, 0.5);
  ASSERT_TRUE(group->reserve(1.0, s1, 25.0));
  group->restart_replica(hC, 1.5);
  ASSERT_GT(group->watermark_of(hB), group->watermark_of(hC));

  group->crash_replica(hA, 2.0);
  coordinator.tick(3.0);
  coordinator.tick(4.0);
  EXPECT_EQ(coordinator.misses(rid), 2);
  EXPECT_EQ(coordinator.stats().failovers, 0u);
  EXPECT_FALSE(group->primary_host().valid());

  // The third consecutive miss fails over to hB — promoting the lagging
  // hC would drop the confirmed grant.
  coordinator.tick(5.0);
  EXPECT_EQ(coordinator.stats().failovers, 1u);
  EXPECT_EQ(coordinator.misses(rid), 0);
  EXPECT_EQ(group->primary_host(), hB);
  EXPECT_EQ(group->held_by(s1), 25.0);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].resource, rid);
  EXPECT_EQ(seen[0].host, hB);
  EXPECT_EQ(seen[0].epoch, 2u);
  EXPECT_EQ(seen[0].when, 5.0);
  // Re-homing: clients consulting the directory land on the new primary.
  ASSERT_NE(directory.find(rid), nullptr);
  EXPECT_EQ(directory.find(rid)->primary, hB);
  EXPECT_EQ(directory.find(rid)->epoch, 2u);
}

TEST(Failover, EqualWatermarksBreakTheTieTowardTheEarliestHost) {
  BrokerRegistry registry;
  const ResourceId rid = add_group(&registry);
  ReplicatedBroker* group = registry.replicated(rid);
  ReplicationDirectory directory;
  FailoverCoordinator coordinator(&registry, &directory, kCoordinator,
                                  FailoverConfig{1});
  coordinator.watch(rid);

  group->crash_replica(hA, 1.0);  // hB and hC both at watermark 0
  coordinator.tick(2.0);
  // Racing coordinators make the same deterministic pick: group order.
  EXPECT_EQ(group->primary_host(), hB);
  EXPECT_EQ(coordinator.stats().failovers, 1u);
}

TEST(Failover, HealthyPrimaryResetsMissesAndRefreshesTheDirectory) {
  BrokerRegistry registry;
  const ResourceId rid = add_group(&registry);
  ReplicatedBroker* group = registry.replicated(rid);
  ReplicationDirectory directory;
  FailoverCoordinator coordinator(&registry, &directory, kCoordinator);
  FlakyTransport transport;
  rpc::RpcChannel channel(&transport, nullptr, nullptr);
  coordinator.attach_channel(&channel, nullptr);
  coordinator.watch(rid);

  // Two missed probes, then the network heals: the count starts over, so
  // a transient blip never promotes.
  transport.healthy = false;
  coordinator.tick(1.0);
  coordinator.tick(2.0);
  EXPECT_EQ(coordinator.misses(rid), 2);
  transport.healthy = true;
  coordinator.tick(3.0);
  EXPECT_EQ(coordinator.misses(rid), 0);
  EXPECT_EQ(coordinator.stats().missed, 2u);
  EXPECT_EQ(coordinator.stats().failovers, 0u);

  // A promotion this coordinator did not perform still re-homes its
  // clients on the next healthy tick.
  ASSERT_TRUE(group->promote(hB, group->next_epoch(), 4.0));
  coordinator.tick(5.0);
  ASSERT_NE(directory.find(rid), nullptr);
  EXPECT_EQ(directory.find(rid)->primary, hB);
  EXPECT_EQ(directory.find(rid)->epoch, 2u);
}

TEST(Failover, HeadlessGroupWithNoStandbyWaitsForARestart) {
  BrokerRegistry registry;
  const ResourceId rid = add_group(&registry);
  ReplicatedBroker* group = registry.replicated(rid);
  ReplicationDirectory directory;
  FailoverCoordinator coordinator(&registry, &directory, kCoordinator,
                                  FailoverConfig{1});
  coordinator.watch(rid);

  group->crash_replica(hA, 1.0);
  group->crash_replica(hB, 1.0);
  group->crash_replica(hC, 1.0);
  coordinator.tick(2.0);
  coordinator.tick(3.0);
  EXPECT_EQ(coordinator.stats().no_candidate, 2u);
  EXPECT_EQ(coordinator.stats().failovers, 0u);
  EXPECT_FALSE(group->up());

  // One standby recovers from its journal; the next tick promotes it.
  group->restart_replica(hC, 4.0);
  coordinator.tick(5.0);
  EXPECT_EQ(coordinator.stats().failovers, 1u);
  EXPECT_EQ(group->primary_host(), hC);
}

TEST(Failover, TypedPromotionRetriesAcrossTicksWhenTheAckIsLost) {
  BrokerRegistry registry;
  const ResourceId rid = add_group(&registry);
  ReplicatedBroker* group = registry.replicated(rid);
  ReplicationDirectory directory;
  FailoverCoordinator coordinator(&registry, &directory, kCoordinator,
                                  FailoverConfig{1});
  rpc::ReplicationService service(&registry);
  FlakyTransport transport;
  rpc::RpcChannel channel(&transport, &service, nullptr);
  rpc::ReplicationLink link(&channel, &registry);
  coordinator.attach_channel(&channel, &link);
  coordinator.watch(rid);

  group->crash_replica(hA, 1.0);
  // The promotion RPC is lost in the partition: no failover yet, the
  // coordinator keeps retrying on its own tick cadence.
  transport.healthy = false;
  coordinator.tick(2.0);
  coordinator.tick(3.0);
  EXPECT_EQ(coordinator.stats().promote_lost, 2u);
  EXPECT_EQ(coordinator.stats().failovers, 0u);
  EXPECT_FALSE(group->primary_host().valid());

  // The partition heals: the same promotion lands as a typed frame.
  transport.healthy = true;
  coordinator.tick(4.0);
  EXPECT_EQ(coordinator.stats().failovers, 1u);
  EXPECT_EQ(group->primary_host(), hB);
  EXPECT_EQ(service.stats().promotions, 1u);
  EXPECT_EQ(link.stats().promotes, 3u);
  ASSERT_NE(directory.find(rid), nullptr);
  EXPECT_EQ(directory.find(rid)->primary, hB);
}

TEST(Failover, LeasesSurviveAFailoverAndRenewOnTheNewPrimary) {
  BrokerRegistry registry;
  const ResourceId rid = add_group(&registry);
  ReplicatedBroker* group = registry.replicated(rid);
  ReplicationDirectory directory;
  FailoverCoordinator coordinator(&registry, &directory, kCoordinator,
                                  FailoverConfig{1});
  coordinator.watch(rid);

  // Leased grant, replicated to the quorum before confirmation.
  ASSERT_TRUE(group->reserve_leased(1.0, s1, 25.0, 5.0));
  group->crash_replica(hA, 2.0);
  coordinator.tick(3.0);
  ASSERT_EQ(group->primary_host(), hB);

  // The re-homed client renews against the new primary before the old
  // deadline (t = 6) and the lease keeps the grant alive past it.
  EXPECT_EQ(group->lease_deadline(s1), 6.0);
  ASSERT_TRUE(group->renew_lease(4.0, s1, 5.0));
  EXPECT_EQ(group->lease_deadline(s1), 9.0);
  std::vector<SessionId> expired;
  EXPECT_EQ(group->expire_due(8.0, &expired), 0.0);
  EXPECT_TRUE(expired.empty());
  EXPECT_EQ(group->held_by(s1), 25.0);
  // Without another renewal the lease expires on the new primary too.
  EXPECT_EQ(group->expire_due(9.5, &expired), 25.0);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], s1);
  EXPECT_EQ(group->held_by(s1), 0.0);
}

}  // namespace
}  // namespace qres
