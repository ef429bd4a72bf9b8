#include "rpc/replication_link.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace qres::rpc {

RpcCode ship_ack_to_rpc(ShipAckCode code) noexcept {
  switch (code) {
    case ShipAckCode::kApplied: return RpcCode::kOk;
    case ShipAckCode::kGap: return RpcCode::kBadRequest;
    case ShipAckCode::kFenced: return RpcCode::kNotPrimary;
    case ShipAckCode::kDown: return RpcCode::kBrokerDown;
  }
  return RpcCode::kBadRequest;
}

std::optional<ShipAckCode> rpc_to_ship_ack(RpcCode code) noexcept {
  switch (code) {
    case RpcCode::kOk: return ShipAckCode::kApplied;
    case RpcCode::kBadRequest: return ShipAckCode::kGap;
    case RpcCode::kNotPrimary: return ShipAckCode::kFenced;
    case RpcCode::kBrokerDown: return ShipAckCode::kDown;
    case RpcCode::kAdmissionReject:
    case RpcCode::kDeadlineExceeded:
    case RpcCode::kBackpressure:
      return std::nullopt;  // not a ship-ack outcome
  }
  return std::nullopt;
}

namespace {

bool known_replica(const ReplicatedBroker& rep, HostId host) {
  const std::vector<HostId>& hosts = rep.hosts();
  return std::find(hosts.begin(), hosts.end(), host) != hosts.end();
}

}  // namespace

ReplicationService::ReplicationService(BrokerRegistry* registry)
    : registry_(registry) {
  QRES_REQUIRE(registry != nullptr, "ReplicationService: null registry");
}

void ReplicationService::handle_frame(
    const std::vector<std::uint8_t>& frame, double now,
    std::vector<std::vector<std::uint8_t>>* replies) {
  QRES_REQUIRE(replies != nullptr, "ReplicationService: null reply sink");
  ++stats_.frames;
  Decoded decoded = decode_frame(frame);
  if (!decoded.ok()) {
    // No reply: the primary's channel retries under the same request id
    // and the watermark protocol absorbs the redelivery.
    ++stats_.decode_rejects;
    return;
  }

  if (auto* ship = std::get_if<JournalShip>(&decoded.message)) {
    const ResourceId resource{ship->resource};
    const HostId target{ship->header.session};
    ReplicatedBroker* rep = resource.valid() &&
                                    resource.value() < registry_->size()
                                ? registry_->replicated(resource)
                                : nullptr;
    if (rep == nullptr || !known_replica(*rep, target)) {
      ++stats_.bad_requests;
      replies->push_back(encode(
          ShipAck{ship->header.request_id, RpcCode::kBadRequest, 0, 0}));
      return;
    }
    const ShipAckInfo ack = rep->apply_ship(
        target,
        ShipBatch{resource, ship->epoch, ship->seq_first,
                  std::move(ship->records)},
        now);
    if (ack.code == ShipAckCode::kApplied)
      ++stats_.ships_applied;
    else
      ++stats_.ships_refused;
    replies->push_back(encode(ShipAck{ship->header.request_id,
                                      ship_ack_to_rpc(ack.code), ack.epoch,
                                      ack.watermark}));
    return;
  }

  if (const auto* promote = std::get_if<PromoteRequest>(&decoded.message)) {
    const ResourceId resource{promote->resource};
    const HostId target{promote->header.session};
    ReplicatedBroker* rep = resource.valid() &&
                                    resource.value() < registry_->size()
                                ? registry_->replicated(resource)
                                : nullptr;
    if (rep == nullptr || !known_replica(*rep, target)) {
      ++stats_.bad_requests;
      replies->push_back(encode(
          PromoteReply{promote->header.request_id, RpcCode::kBadRequest, 0,
                       0}));
      return;
    }
    const bool promoted = rep->promote(target, promote->epoch, now);
    // A redelivered promote (its first ack was lost) finds the epoch
    // already in force at a serving target: answer kOk so the
    // coordinator converges instead of wedging on the lost ack.
    const bool in_force = rep->role_of(target) == ReplicaRole::kPrimary &&
                          rep->epoch_of(target) >= promote->epoch &&
                          rep->replica_up(target);
    if (promoted || in_force)
      ++stats_.promotions;
    else
      ++stats_.promote_refusals;
    replies->push_back(encode(PromoteReply{
        promote->header.request_id,
        (promoted || in_force) ? RpcCode::kOk : RpcCode::kNotPrimary,
        rep->epoch_of(target), rep->watermark_of(target)}));
    return;
  }

  ++stats_.non_replication;
}

ReplicationLink::ReplicationLink(RpcChannel* channel, BrokerRegistry* registry)
    : channel_(channel), registry_(registry) {
  QRES_REQUIRE(channel != nullptr && registry != nullptr,
               "ReplicationLink: null channel/registry");
}

std::optional<ShipAckInfo> ReplicationLink::ship(HostId to,
                                                 const ShipBatch& batch,
                                                 double now) {
  ReplicatedBroker* rep = registry_->replicated(batch.resource);
  if (rep == nullptr) return std::nullopt;
  const HostId from = rep->primary_host();
  if (!from.valid()) return std::nullopt;
  JournalShip msg;
  msg.header.session = to.value();  // replication requests address a replica
  msg.header.deadline = RpcChannel::kNoDeadline;
  msg.header.epoch = batch.epoch;
  msg.resource = batch.resource.value();
  msg.epoch = batch.epoch;
  msg.seq_first = batch.seq_first;
  msg.records = batch.records;
  ++stats_.ships;
  const CallResult res = channel_->call(from, to, AnyMessage{msg}, now);
  if (!res.ok()) {
    ++stats_.ship_lost;
    return std::nullopt;
  }
  const auto* ack = std::get_if<ShipAck>(&res.reply);
  if (ack == nullptr) {
    ++stats_.ship_lost;
    return std::nullopt;
  }
  const std::optional<ShipAckCode> code = rpc_to_ship_ack(ack->code);
  if (!code.has_value()) {
    ++stats_.ship_lost;
    return std::nullopt;
  }
  return ShipAckInfo{*code, ack->epoch, ack->watermark};
}

std::optional<PromoteReply> ReplicationLink::send_promote(
    HostId from, HostId to, ResourceId resource, std::uint64_t epoch,
    double now) {
  PromoteRequest msg;
  msg.header.session = to.value();
  msg.header.deadline = RpcChannel::kNoDeadline;
  msg.header.epoch = epoch;
  msg.resource = resource.value();
  msg.epoch = epoch;
  ++stats_.promotes;
  const CallResult res = channel_->call(from, to, AnyMessage{msg}, now);
  if (!res.ok()) {
    ++stats_.promote_lost;
    return std::nullopt;
  }
  const auto* reply = std::get_if<PromoteReply>(&res.reply);
  if (reply == nullptr) {
    ++stats_.promote_lost;
    return std::nullopt;
  }
  return *reply;
}

}  // namespace qres::rpc
