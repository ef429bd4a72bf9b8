// ReplicatedBroker protocol tests (DESIGN.md §14): sync quorum
// confirmation and compensation, async lag-bounded shipping, epoch
// fencing on and off (the split-brain demonstration), promotion rules
// (strictly-newer epoch, most-caught-up candidate, tail truncation,
// fencing the deposed primary), batch grouping of reply-cache records,
// gap/idempotent redelivery acks, and crash–restart of group members.
#include "broker/replication.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "broker/journal.hpp"

namespace qres {
namespace {

const ResourceId rid{0};
const SessionId s1{1}, s2{2}, s3{3};
const HostId hA{1}, hB{2}, hC{3};

ReplicatedBroker make_group(ReplicationConfig config,
                            std::size_t replicas = 3) {
  std::vector<HostId> hosts;
  for (std::size_t i = 0; i < replicas; ++i)
    hosts.push_back(HostId{static_cast<std::uint32_t>(i + 1)});
  return ReplicatedBroker(rid, "cpu_group", 100.0, hosts, config);
}

/// Scripted transport: per-host partitions, a record of every batch, and
/// in-process delivery for everything it lets through.
struct ScriptedTransport final : IShipTransport {
  ReplicatedBroker* group = nullptr;
  std::vector<HostId> partitioned;
  std::vector<std::pair<HostId, ShipBatch>> batches;

  std::optional<ShipAckInfo> ship(HostId to, const ShipBatch& batch,
                                  double now) override {
    batches.emplace_back(to, batch);
    for (const HostId h : partitioned)
      if (h == to) return std::nullopt;
    return group->apply_ship(to, batch, now);
  }
};

TEST(Replication, ConstructionRolesEpochAndQuorum) {
  ReplicatedBroker group = make_group({});
  EXPECT_TRUE(group.up());
  EXPECT_EQ(group.replica_count(), 3u);
  EXPECT_EQ(group.primary_host(), hA);
  EXPECT_EQ(group.role_of(hA), ReplicaRole::kPrimary);
  EXPECT_EQ(group.role_of(hB), ReplicaRole::kStandby);
  EXPECT_EQ(group.epoch(), 1u);
  EXPECT_EQ(group.epoch_of(hA), 1u);
  EXPECT_EQ(group.next_epoch(), 2u);
  // Majority quorum by default; an explicit quorum overrides it.
  EXPECT_EQ(group.quorum(), 2u);
  ReplicationConfig all;
  all.quorum = 3;
  EXPECT_EQ(make_group(all).quorum(), 3u);
}

TEST(Replication, SyncGrantReplicatesBeforeConfirmation) {
  ReplicatedBroker group = make_group({});
  ASSERT_TRUE(group.reserve(1.0, s1, 25.0));
  EXPECT_EQ(group.held_by(s1), 25.0);
  // The grant is on every standby's shadow broker before the caller saw
  // true — not merely promised.
  EXPECT_EQ(group.replica_broker(hB).held_by(s1), 25.0);
  EXPECT_EQ(group.replica_broker(hC).held_by(s1), 25.0);
  EXPECT_EQ(group.watermark_of(hB), group.watermark_of(hA));
  EXPECT_EQ(group.watermark_of(hC), group.watermark_of(hA));
  const ReplicationStats& stats = group.stats();
  EXPECT_EQ(stats.grants_local, 1u);
  EXPECT_EQ(stats.grants_confirmed, 1u);
  EXPECT_EQ(stats.quorum_failures, 0u);
  EXPECT_GT(stats.acks, 0u);
}

TEST(Replication, SyncQuorumFailureCompensatesTheGrant) {
  ReplicationConfig config;
  config.quorum = 3;  // every replica must hold the record
  ReplicatedBroker group = make_group(config);
  group.crash_replica(hC, 1.0);

  // Two of three cannot meet a quorum of three: the grant is refused and
  // compensated — primary state and journal agree there is no grant.
  EXPECT_FALSE(group.reserve(2.0, s1, 25.0));
  EXPECT_EQ(group.held_by(s1), 0.0);
  EXPECT_EQ(group.available(), 100.0);
  EXPECT_EQ(group.stats().quorum_failures, 1u);
  EXPECT_EQ(group.stats().grants_confirmed, 0u);

  // The reachable standby converged to the same no-grant outcome (it
  // applied the grant and then its compensating release).
  EXPECT_EQ(group.replica_broker(hB).held_by(s1), 0.0);

  // With the third replica back, the same grant confirms.
  group.restart_replica(hC, 3.0);
  EXPECT_TRUE(group.reserve(4.0, s1, 25.0));
  EXPECT_EQ(group.replica_broker(hC).held_by(s1), 25.0);
}

TEST(Replication, AsyncConfirmsImmediatelyAndShipsOnTheLagBound) {
  ReplicationConfig config;
  config.mode = ReplicationMode::kAsync;
  config.max_async_lag = 4;
  ReplicatedBroker group = make_group(config);

  // The first grant confirms with nothing shipped: the standbys lag.
  ASSERT_TRUE(group.reserve(1.0, s1, 10.0));
  EXPECT_EQ(group.stats().grants_confirmed, 1u);
  EXPECT_LT(group.watermark_of(hB), group.watermark_of(hA));

  // Crossing the lag bound triggers a ship; an explicit flush converges
  // the rest and reports the quorum holding everything.
  ASSERT_TRUE(group.reserve(2.0, s2, 10.0));
  ASSERT_TRUE(group.reserve(3.0, s3, 10.0));
  EXPECT_TRUE(group.flush(4.0));
  EXPECT_EQ(group.watermark_of(hB), group.watermark_of(hA));
  EXPECT_EQ(group.replica_broker(hB).held_by(s3), 10.0);
}

TEST(Replication, ReserveAtRefusesStandbysAndFencedReplicas) {
  ReplicatedBroker group = make_group({});
  // Standbys never grant, fenced or not.
  EXPECT_FALSE(group.reserve_at(hB, 1.0, s1, 10.0));
  EXPECT_EQ(group.stats().grants_local, 0u);

  // Depose the primary: crash it, promote the most-caught-up standby.
  group.crash_replica(hA, 2.0);
  ASSERT_TRUE(group.promote(hB, group.next_epoch(), 3.0));
  EXPECT_EQ(group.primary_host(), hB);
  EXPECT_EQ(group.epoch(), 2u);

  // The old primary comes back fenced: it refuses grants and batches.
  group.restart_replica(hA, 4.0);
  EXPECT_EQ(group.role_of(hA), ReplicaRole::kFenced);
  EXPECT_FALSE(group.reserve_at(hA, 5.0, s1, 10.0));
  ShipBatch stale;
  stale.resource = rid;
  stale.epoch = 1;  // the deposed epoch
  stale.seq_first = 0;
  EXPECT_EQ(group.apply_ship(hA, stale, 5.0).code, ShipAckCode::kFenced);
}

TEST(Replication, FencingOffLetsADeposedPrimaryGrantSplitBrain) {
  ReplicationConfig config;
  config.fencing = false;
  ReplicatedBroker group = make_group(config);
  ASSERT_TRUE(group.reserve(1.0, s1, 10.0));

  // Promote hB while hA still runs: with fencing disabled the old
  // primary keeps its role and keeps granting — two replicas both
  // believe they serve. This is the model checker's split-brain demo
  // (mc topology failover-nofence-splitbrain), pinned here as unit
  // behavior.
  ASSERT_TRUE(group.promote(hB, group.next_epoch(), 2.0));
  EXPECT_EQ(group.role_of(hA), ReplicaRole::kPrimary);
  EXPECT_EQ(group.primary_host(), hB);  // highest epoch wins reads
  EXPECT_TRUE(group.reserve_at(hA, 3.0, s2, 90.0));
  EXPECT_TRUE(group.reserve_at(hB, 3.0, s3, 90.0));
  // Confirmed grants across the two primaries exceed capacity — the
  // conservation violation fencing exists to prevent.
  EXPECT_GT(group.replica_broker(hA).held_by(s2) +
                group.replica_broker(hB).held_by(s3) +
                group.replica_broker(hB).held_by(s1),
            100.0);
}

TEST(Replication, PromoteRefusesDownCandidatesAndStaleEpochs) {
  ReplicatedBroker group = make_group({});
  group.crash_replica(hB, 1.0);
  // A down candidate cannot serve.
  EXPECT_FALSE(group.promote(hB, group.next_epoch(), 2.0));
  // An epoch that is not strictly newer loses the tie — the second of
  // two racing promotions must never install a second primary.
  EXPECT_FALSE(group.promote(hC, group.epoch(), 2.0));
  EXPECT_EQ(group.stats().promotions, 0u);
  EXPECT_TRUE(group.promote(hC, group.next_epoch(), 2.0));
  EXPECT_EQ(group.stats().promotions, 1u);
}

TEST(Replication, PromoteRefusesALaggingCandidate) {
  ScriptedTransport transport;
  ReplicatedBroker group = make_group({});
  transport.group = &group;
  group.set_transport(&transport);
  // Partition hC: it receives nothing while hB stays caught up.
  transport.partitioned.push_back(hC);
  ASSERT_TRUE(group.reserve(1.0, s1, 25.0));  // quorum 2 via hA + hB
  ASSERT_GT(group.watermark_of(hB), group.watermark_of(hC));

  group.crash_replica(hA, 2.0);
  // Promoting the stale partitioned standby would drop the confirmed
  // grant (the lost update the mc failover-sync-partition topology
  // demonstrates); only the most-caught-up live standby may take over.
  EXPECT_FALSE(group.promote(hC, group.next_epoch(), 3.0));
  ASSERT_TRUE(group.promote(hB, group.next_epoch(), 3.0));
  EXPECT_EQ(group.held_by(s1), 25.0);  // the confirmed grant survived
}

TEST(Replication, PromotionTruncatesTheUnackedTail) {
  ReplicationConfig config;
  config.mode = ReplicationMode::kAsync;
  config.max_async_lag = 64;  // nothing ships on its own
  ScriptedTransport transport;
  ReplicatedBroker group = make_group(config);
  transport.group = &group;
  group.set_transport(&transport);
  transport.partitioned = {hB, hC};  // every ship is lost

  ASSERT_TRUE(group.reserve(1.0, s1, 10.0));
  ASSERT_TRUE(group.reserve(2.0, s2, 10.0));
  group.crash_replica(hA, 3.0);

  // Nothing was acknowledged, so the async grants die with the primary:
  // promotion truncates the tail only the dead primary held.
  transport.partitioned.clear();
  ASSERT_TRUE(group.promote(hB, group.next_epoch(), 4.0));
  EXPECT_GT(group.stats().truncated_records, 0u);
  EXPECT_EQ(group.held_by(s1), 0.0);
  EXPECT_EQ(group.held_by(s2), 0.0);

  // The new primary line ships cleanly from the truncated point.
  ASSERT_TRUE(group.reserve(5.0, s3, 10.0));
  EXPECT_TRUE(group.flush(6.0));
  EXPECT_EQ(group.replica_broker(hC).held_by(s3), 10.0);
}

TEST(Replication, ApplyShipRefusesGapsAndReacksRedelivery) {
  ScriptedTransport transport;
  ReplicatedBroker group = make_group({});
  transport.group = &group;
  group.set_transport(&transport);
  ASSERT_TRUE(group.reserve(1.0, s1, 25.0));
  ASSERT_FALSE(transport.batches.empty());

  // A batch from the future is refused kGap with the real watermark, so
  // the primary rewinds instead of leaving a hole.
  ShipBatch ahead = transport.batches.front().second;
  ahead.seq_first = group.watermark_of(hB) + 10;
  const ShipAckInfo gap = group.apply_ship(hB, ahead, 2.0);
  EXPECT_EQ(gap.code, ShipAckCode::kGap);
  EXPECT_EQ(gap.watermark, group.watermark_of(hB));

  // Redelivering an already-applied batch re-acks idempotently: same
  // watermark, no double-applied state.
  const std::uint64_t before = group.watermark_of(hB);
  const auto& [host, batch] = transport.batches.front();
  const ShipAckInfo again = group.apply_ship(host, batch, 2.0);
  EXPECT_EQ(again.code, ShipAckCode::kApplied);
  EXPECT_EQ(group.watermark_of(hB), before);
  EXPECT_EQ(group.replica_broker(hB).held_by(s1), 25.0);
}

TEST(Replication, GroupedReplyRecordsNeverSplitAcrossBatches) {
  ReplicationConfig config;
  config.ship_batch_max = 1;  // force the smallest possible batches
  ScriptedTransport transport;
  ReplicatedBroker group = make_group(config);
  transport.group = &group;
  group.set_transport(&transport);

  // Two-phase, as the broker service drives it: the grant applies
  // locally, the grouped reply record is appended, then the flush ships
  // and commits both together.
  group.set_auto_commit(false);
  ASSERT_TRUE(group.reserve(1.0, s1, 25.0));
  JournalRecord reply;
  reply.op = JournalOp::kReplyCache;
  reply.time = 1.0;
  reply.resource = rid;
  reply.request_id = 42;
  reply.grouped = true;
  reply.reply = {0xde, 0xad};
  ASSERT_TRUE(group.append_aux(reply));
  EXPECT_TRUE(group.flush(2.0));
  group.set_auto_commit(true);

  // Despite ship_batch_max = 1, no batch ends with the mutation while
  // its grouped reply waits in the next one: a standby promoted between
  // the two would re-execute a retried request against surviving
  // holdings (the double grant drop_tail exists to prevent).
  for (const auto& [host, batch] : transport.batches) {
    ASSERT_FALSE(batch.records.empty());
    const JournalRecord& last = batch.records.back();
    if (last.op == JournalOp::kReserve) {
      // The very next shipped record to this host must not be a grouped
      // reply — grouping extends the batch instead.
      FAIL() << "batch to host " << host.value()
             << " ends with a mutation whose grouped reply was split off";
    }
  }
  // The standbys hold both halves.
  EXPECT_EQ(group.replica_broker(hB).held_by(s1), 25.0);
}

TEST(Replication, CrashLeavesTheGroupHeadlessUntilRestartOrPromotion) {
  ReplicatedBroker group = make_group({});
  ASSERT_TRUE(group.reserve(1.0, s1, 25.0));
  group.crash_replica(hA, 2.0);

  EXPECT_FALSE(group.up());
  EXPECT_FALSE(group.primary_host().valid());
  EXPECT_FALSE(group.reserve(3.0, s2, 10.0));
  EXPECT_EQ(group.held_by(s2), 0.0);
  EXPECT_FALSE(group.flush(3.0));
  EXPECT_FALSE(group.append_aux(JournalRecord{}));

  // Restarting the crashed primary recovers it from its own journal —
  // same holdings, same role, standby watermarks untouched.
  const std::uint64_t wb = group.watermark_of(hB);
  group.restart_replica(hA, 4.0);
  EXPECT_TRUE(group.up());
  EXPECT_EQ(group.primary_host(), hA);
  EXPECT_EQ(group.held_by(s1), 25.0);
  EXPECT_EQ(group.watermark_of(hB), wb);
}

TEST(Replication, DirectoryUpdatesAreMonotone) {
  ReplicationDirectory directory;
  EXPECT_EQ(directory.find(rid), nullptr);
  directory.update(rid, 2, hB);
  ASSERT_NE(directory.find(rid), nullptr);
  EXPECT_EQ(directory.find(rid)->primary, hB);
  // A stale coordinator cannot roll the directory back...
  directory.update(rid, 1, hA);
  EXPECT_EQ(directory.find(rid)->primary, hB);
  EXPECT_EQ(directory.find(rid)->epoch, 2u);
  // ...and an equal-epoch update refreshes the primary hint.
  directory.update(rid, 2, hC);
  EXPECT_EQ(directory.find(rid)->primary, hC);
}

TEST(Replication, EnumNamesAreStable) {
  EXPECT_STREQ(to_string(ReplicationMode::kSync), "sync");
  EXPECT_STREQ(to_string(ReplicationMode::kAsync), "async");
  EXPECT_STREQ(to_string(ReplicaRole::kPrimary), "primary");
  EXPECT_STREQ(to_string(ReplicaRole::kStandby), "standby");
  EXPECT_STREQ(to_string(ReplicaRole::kFenced), "fenced");
  EXPECT_STREQ(to_string(ShipAckCode::kApplied), "applied");
  EXPECT_STREQ(to_string(ShipAckCode::kGap), "gap");
  EXPECT_STREQ(to_string(ShipAckCode::kFenced), "fenced");
  EXPECT_STREQ(to_string(ShipAckCode::kDown), "down");
}

}  // namespace
}  // namespace qres
