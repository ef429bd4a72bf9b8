// ReplicationService / ReplicationLink tests (DESIGN.md §14): the
// lossless RpcCode <-> ShipAckCode mapping, journal shipping end-to-end
// through the typed wire plane, the service's typed refusals (gap, bad
// resource, unknown replica), its tolerance of non-replication and
// undecodable frames, and promotion over the wire — including the
// idempotent re-ack that keeps a lost PromoteReply from wedging the
// failover coordinator. A shipped record whose bytes do not decode makes
// the whole frame a decode reject, never a throw out of the service.
#include "rpc/replication_link.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "broker/journal.hpp"
#include "broker/registry.hpp"
#include "rpc/channel.hpp"
#include "rpc/wire.hpp"
#include "util/codec.hpp"

namespace qres::rpc {
namespace {

const SessionId s1{1};
const HostId hA{1}, hB{2}, hC{3};
constexpr double kInf = RpcChannel::kNoDeadline;

/// Transport whose every exchange times out: frames never move, so typed
/// calls end without a reply and the link must report the batch lost.
struct DeadTransport final : IControlTransport {
  ExchangeResult exchange(HostId, HostId, double,
                          const RetryPolicy* budget) override {
    return {ExchangeStatus::kTimeout,
            budget != nullptr ? budget->max_attempts : 1};
  }
  bool reachable(HostId, double) const override { return true; }
};

/// One replicated resource (id 0) across hosts 1..3.
ResourceId add_group(BrokerRegistry* registry,
                     ReplicationConfig config = {}) {
  return registry->add_replicated_resource("cpu0", ResourceKind::kCpu,
                                           {hA, hB, hC}, 100.0, config);
}

TEST(ReplicationLink, CodeMappingIsLosslessBothWays) {
  const ShipAckCode codes[] = {ShipAckCode::kApplied, ShipAckCode::kGap,
                               ShipAckCode::kFenced, ShipAckCode::kDown};
  for (const ShipAckCode code : codes) {
    const std::optional<ShipAckCode> back =
        rpc_to_ship_ack(ship_ack_to_rpc(code));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, code);
  }
  // Codes that do not name a ship outcome read as "batch lost".
  EXPECT_FALSE(rpc_to_ship_ack(RpcCode::kAdmissionReject).has_value());
  EXPECT_FALSE(rpc_to_ship_ack(RpcCode::kBackpressure).has_value());
  EXPECT_FALSE(rpc_to_ship_ack(RpcCode::kDeadlineExceeded).has_value());
}

TEST(ReplicationLink, ShipsJournalRecordsThroughTheTypedPlane) {
  BrokerRegistry registry;
  const ResourceId rid = add_group(&registry);
  ReplicatedBroker* group = registry.replicated(rid);
  ASSERT_NE(group, nullptr);

  ReplicationService service(&registry);
  RpcChannel channel(nullptr, &service, nullptr);  // lossless transport
  ReplicationLink link(&channel, &registry);
  group->set_transport(&link);

  // A sync grant confirms only after the quorum acked over the wire: the
  // standbys' shadow brokers hold the grant via real JournalShip frames.
  ASSERT_TRUE(group->reserve(1.0, s1, 25.0));
  EXPECT_EQ(group->replica_broker(hB).held_by(s1), 25.0);
  EXPECT_EQ(group->replica_broker(hC).held_by(s1), 25.0);
  EXPECT_EQ(group->watermark_of(hB), group->watermark_of(hA));
  EXPECT_GE(link.stats().ships, 2u);
  EXPECT_EQ(link.stats().ship_lost, 0u);
  EXPECT_GE(service.stats().ships_applied, 2u);
  EXPECT_EQ(service.stats().decode_rejects, 0u);
}

TEST(ReplicationLink, ServiceAnswersAGapShipWithTheRealWatermark) {
  BrokerRegistry registry;
  const ResourceId rid = add_group(&registry);
  ReplicationService service(&registry);

  // A batch from far ahead of hB's watermark: typed kBadRequest (the
  // kGap mapping) carrying the watermark the primary must rewind to.
  const JournalShip ship{{7, hB.value(), kInf, 1}, rid.value(), 1, 40, {}};
  std::vector<std::vector<std::uint8_t>> replies;
  service.handle_frame(encode(ship), 1.0, &replies);
  ASSERT_EQ(replies.size(), 1u);
  const Decoded decoded = decode_frame(replies.front());
  ASSERT_TRUE(decoded.ok());
  const auto* ack = std::get_if<ShipAck>(&decoded.message);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->request_id, 7u);
  EXPECT_EQ(ack->code, RpcCode::kBadRequest);
  EXPECT_EQ(ack->watermark, registry.replicated(rid)->watermark_of(hB));
  EXPECT_EQ(service.stats().ships_refused, 1u);
  EXPECT_EQ(service.stats().ships_applied, 0u);
}

TEST(ReplicationLink, ServiceRefusesUnknownResourcesAndReplicas) {
  BrokerRegistry registry;
  const ResourceId rid = add_group(&registry);
  ReplicationService service(&registry);
  std::vector<std::vector<std::uint8_t>> replies;

  // Unknown resource id, then a resource that exists but a host outside
  // the replica set: both are typed kBadRequest, not crashes or drops.
  service.handle_frame(encode(JournalShip{{1, hB.value(), kInf, 1}, 9, 1, 0,
                                          {}}),
                       1.0, &replies);
  service.handle_frame(encode(JournalShip{{2, 77, kInf, 1}, rid.value(), 1,
                                          0, {}}),
                       1.0, &replies);
  service.handle_frame(encode(PromoteRequest{{3, 77, kInf, 2}, rid.value(),
                                             2}),
                       1.0, &replies);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(service.stats().bad_requests, 3u);
  const Decoded ship_reply = decode_frame(replies[0]);
  ASSERT_TRUE(ship_reply.ok());
  EXPECT_EQ(std::get<ShipAck>(ship_reply.message).code,
            RpcCode::kBadRequest);
  const Decoded promote_reply = decode_frame(replies[2]);
  ASSERT_TRUE(promote_reply.ok());
  EXPECT_EQ(std::get<PromoteReply>(promote_reply.message).code,
            RpcCode::kBadRequest);
}

TEST(ReplicationLink, ServiceToleratesForeignAndUndecodableFrames) {
  BrokerRegistry registry;
  add_group(&registry);
  ReplicationService service(&registry);
  std::vector<std::vector<std::uint8_t>> replies;

  // A well-formed non-replication frame is counted and left to other
  // services; it gets no reply here.
  service.handle_frame(encode(ReserveRequest{{1, 1, kInf}, 0, 10.0, 0.0}),
                       1.0, &replies);
  EXPECT_TRUE(replies.empty());
  EXPECT_EQ(service.stats().non_replication, 1u);

  // A corrupted frame is dropped without a reply: the primary's channel
  // retries and the watermark protocol absorbs the redelivery.
  std::vector<std::uint8_t> frame =
      encode(JournalShip{{2, hB.value(), kInf, 1}, 0, 1, 0, {}});
  frame[frame.size() - 1] ^= 0xff;
  service.handle_frame(frame, 1.0, &replies);
  EXPECT_TRUE(replies.empty());
  EXPECT_EQ(service.stats().decode_rejects, 1u);
}

TEST(ReplicationLink, MalformedShippedRecordIsADecodeReject) {
  BrokerRegistry registry;
  const ResourceId rid = add_group(&registry);
  const ReplicatedBroker* group = registry.replicated(rid);
  ReplicationService service(&registry);

  JournalRecord grant;
  grant.op = JournalOp::kReserve;
  grant.time = 1.0;
  grant.resource = rid;
  grant.session = s1;
  grant.amount = 10.0;
  const std::uint64_t before = group->watermark_of(hB);
  const JournalShip ship{{1, hB.value(), kInf, 1}, rid.value(),
                         group->epoch_of(hB), before, {grant, grant}};
  // The second record's op byte: payload offset 52 (request header 28,
  // resource 4, epoch 8, seq_first 8, record count 4) plus the first
  // reserve record's 33 bytes.
  constexpr std::size_t kSecondOp = kHeaderSize + 52 + 33;
  for (const std::uint8_t bad : {std::uint8_t{9}, std::uint8_t{0xff}}) {
    std::vector<std::uint8_t> frame = encode(ship);
    ASSERT_EQ(frame[kSecondOp], static_cast<std::uint8_t>(JournalOp::kReserve));
    frame[kSecondOp] = bad;
    // A checksum-valid frame, so the record layout is what rejects it.
    codec::store_le(frame.data() + 12,
                    codec::fnv1a64(frame.data() + kHeaderSize,
                                   frame.size() - kHeaderSize,
                                   codec::fnv1a64(frame.data(), 12)));
    EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kMalformedPayload);
    std::vector<std::vector<std::uint8_t>> replies;
    EXPECT_NO_THROW(service.handle_frame(frame, 1.0, &replies));
    // No reply and nothing applied: the primary re-ships the batch.
    EXPECT_TRUE(replies.empty());
  }
  EXPECT_EQ(service.stats().decode_rejects, 2u);
  EXPECT_EQ(group->watermark_of(hB), before);
  EXPECT_EQ(group->replica_broker(hB).held_by(s1), 0.0);
}

TEST(ReplicationLink, PromoteOverTheWireReacksWhenTheEpochIsInForce) {
  BrokerRegistry registry;
  const ResourceId rid = add_group(&registry);
  ReplicatedBroker* group = registry.replicated(rid);
  ReplicationService service(&registry);
  group->crash_replica(hA, 1.0);

  const PromoteRequest promote{{5, hB.value(), kInf, 2}, rid.value(), 2};
  std::vector<std::vector<std::uint8_t>> replies;
  service.handle_frame(encode(promote), 2.0, &replies);
  ASSERT_EQ(replies.size(), 1u);
  {
    const Decoded decoded = decode_frame(replies.front());
    ASSERT_TRUE(decoded.ok());
    const auto& reply = std::get<PromoteReply>(decoded.message);
    EXPECT_EQ(reply.code, RpcCode::kOk);
    EXPECT_EQ(reply.epoch, 2u);
  }
  EXPECT_EQ(group->primary_host(), hB);

  // The coordinator lost the ack and resends: the epoch is already in
  // force at a serving hB, so the service re-acks kOk instead of letting
  // the (idempotence-refused) promote wedge the failover.
  replies.clear();
  service.handle_frame(encode(promote), 3.0, &replies);
  ASSERT_EQ(replies.size(), 1u);
  const Decoded decoded = decode_frame(replies.front());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<PromoteReply>(decoded.message).code, RpcCode::kOk);
  EXPECT_EQ(service.stats().promotions, 2u);

  // A genuinely stale promotion (hC under the same epoch) is refused.
  replies.clear();
  service.handle_frame(
      encode(PromoteRequest{{6, hC.value(), kInf, 2}, rid.value(), 2}), 4.0,
      &replies);
  const Decoded refused = decode_frame(replies.front());
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(std::get<PromoteReply>(refused.message).code,
            RpcCode::kNotPrimary);
  EXPECT_EQ(service.stats().promote_refusals, 1u);
}

TEST(ReplicationLink, SendPromoteDrivesAFailoverThroughTheChannel) {
  BrokerRegistry registry;
  const ResourceId rid = add_group(&registry);
  ReplicatedBroker* group = registry.replicated(rid);
  ReplicationService service(&registry);
  RpcChannel channel(nullptr, &service, nullptr);
  ReplicationLink link(&channel, &registry);

  group->crash_replica(hA, 1.0);
  const std::optional<PromoteReply> reply =
      link.send_promote(hC, hB, rid, group->next_epoch(), 2.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->code, RpcCode::kOk);
  EXPECT_EQ(group->primary_host(), hB);
  EXPECT_EQ(link.stats().promotes, 1u);
  EXPECT_EQ(link.stats().promote_lost, 0u);
}

TEST(ReplicationLink, LostCallsReadAsLostBatchesAndLostPromotes) {
  BrokerRegistry registry;
  const ResourceId rid = add_group(&registry);
  ReplicationService service(&registry);
  DeadTransport transport;
  RpcChannel channel(&transport, &service, nullptr);
  ReplicationLink link(&channel, &registry);

  ShipBatch batch;
  batch.resource = rid;
  batch.epoch = 1;
  batch.seq_first = 0;
  EXPECT_FALSE(link.ship(hB, batch, 1.0).has_value());
  EXPECT_EQ(link.stats().ships, 1u);
  EXPECT_EQ(link.stats().ship_lost, 1u);
  EXPECT_FALSE(link.send_promote(hA, hB, rid, 2, 2.0).has_value());
  EXPECT_EQ(link.stats().promote_lost, 1u);

  // A batch addressed at a resource that is not replicated is lost
  // without ever reaching the channel.
  ShipBatch foreign = batch;
  foreign.resource =
      registry.add_resource("disk0", ResourceKind::kDiskBandwidth, hA, 50.0);
  EXPECT_FALSE(link.ship(hB, foreign, 3.0).has_value());
  EXPECT_EQ(link.stats().ships, 1u);
}

}  // namespace
}  // namespace qres::rpc
