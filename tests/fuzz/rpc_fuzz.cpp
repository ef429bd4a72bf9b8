#include "rpc_fuzz.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "broker/journal.hpp"
#include "broker/registry.hpp"
#include "broker/resource_broker.hpp"
#include "rpc/broker_service.hpp"
#include "rpc/channel.hpp"
#include "rpc/wire.hpp"
#include "signal/fault_plane.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace qres::fuzz {

namespace {

std::string str(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

// ---------------------------------------------------------------------------
// Random wire messages. Field values mix mundane magnitudes with the
// extremes the codec must round-trip bit-exactly (±inf, denormal-ish
// tiny, huge); NaN is excluded only because NaN != NaN breaks the
// equality oracle, not because the codec cares.

double random_field(Rng& rng) {
  const int shape = rng.uniform_int(0, 5);
  switch (shape) {
    case 0: return 0.0;
    case 1: return rng.uniform(-1e-9, 1e-9);
    case 2: return rng.uniform(-1e12, 1e12);
    case 3: return std::numeric_limits<double>::infinity();
    case 4: return -std::numeric_limits<double>::infinity();
    default: return rng.uniform(-100.0, 100.0);
  }
}

rpc::RequestHeader random_header(Rng& rng) {
  rpc::RequestHeader header;
  header.request_id = rng();
  header.session = static_cast<std::uint32_t>(rng());
  header.deadline = random_field(rng);
  return header;
}

rpc::RpcCode random_code(Rng& rng) {
  return static_cast<rpc::RpcCode>(
      rng.uniform_int(0, static_cast<int>(rpc::RpcCode::kNotPrimary)));
}

std::uint32_t random_u32(Rng& rng) { return static_cast<std::uint32_t>(rng()); }

std::vector<std::pair<std::uint32_t, double>> random_session_values(
    Rng& rng, int count) {
  std::vector<std::pair<std::uint32_t, double>> values;
  for (int i = 0; i < count; ++i)
    values.push_back({random_u32(rng), random_field(rng)});
  return values;
}

/// One random journal record of the given op, with exactly the fields
/// that op's layout carries set.
JournalRecord random_record(Rng& rng, JournalOp op) {
  JournalRecord record;
  record.op = op;
  record.time = random_field(rng);
  record.resource = ResourceId{random_u32(rng)};
  if (op == JournalOp::kSnapshot) {
    const int length = rng.uniform_int(1, 8);
    for (int i = 0; i < length; ++i)
      record.name.push_back(static_cast<char>('a' + rng.uniform_int(0, 25)));
    record.capacity = random_field(rng);
    record.alpha_window = random_field(rng);
    record.history_keep = random_field(rng);
    record.alpha_mode = static_cast<AlphaMode>(rng.uniform_int(0, 1));
    record.expiry_log_enabled = rng.uniform_int(0, 1) == 1;
    record.expiry_log_capacity = rng();
    record.reserved = random_field(rng);
    record.holdings = random_session_values(rng, rng.uniform_int(0, 5));
    record.lease_deadlines = random_session_values(rng, rng.uniform_int(0, 5));
    const int history = rng.uniform_int(0, 5);
    for (int i = 0; i < history; ++i)
      record.history.push_back({random_field(rng), random_field(rng)});
  } else if (op == JournalOp::kReplyCache) {
    record.request_id = rng();
    record.grouped = rng.uniform_int(0, 1) == 1;
    record.reply.resize(static_cast<std::size_t>(rng.uniform_int(0, 16)));
    for (std::uint8_t& byte : record.reply)
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  } else {
    record.session = SessionId{random_u32(rng)};
    record.amount = random_field(rng);
    record.lease = random_field(rng);
  }
  return record;
}

/// One random message of the given wire type.
rpc::AnyMessage random_message(Rng& rng, rpc::MessageType type) {
  using namespace rpc;
  switch (type) {
    case MessageType::kReserveRequest:
      return ReserveRequest{random_header(rng), random_u32(rng),
                            random_field(rng), random_field(rng)};
    case MessageType::kReserveReply:
      return ReserveReply{rng(), random_code(rng), random_field(rng)};
    case MessageType::kReleaseRequest:
      return ReleaseRequest{random_header(rng), random_u32(rng),
                            static_cast<std::uint8_t>(rng.uniform_int(0, 1)),
                            random_field(rng)};
    case MessageType::kReleaseReply:
      return ReleaseReply{rng(), random_code(rng), random_field(rng)};
    case MessageType::kRenewRequest:
      return RenewRequest{random_header(rng), random_u32(rng),
                          random_field(rng)};
    case MessageType::kRenewReply:
      return RenewReply{rng(), random_code(rng),
                        static_cast<std::uint8_t>(rng.uniform_int(0, 1))};
    case MessageType::kReconcileRequest:
      return ReconcileRequest{random_header(rng), random_u32(rng),
                              random_field(rng)};
    case MessageType::kReconcileReply:
      return ReconcileReply{rng(), random_code(rng), random_field(rng)};
    case MessageType::kQueryRequest: {
      QueryRequest request{random_header(rng), {}};
      const int entries = rng.uniform_int(0, 5);
      for (int e = 0; e < entries; ++e)
        request.entries.push_back({random_u32(rng), random_field(rng)});
      return request;
    }
    case MessageType::kQueryReply: {
      QueryReply reply{rng(), random_code(rng), {}};
      const int samples = rng.uniform_int(0, 5);
      for (int s = 0; s < samples; ++s)
        reply.samples.push_back(
            {random_u32(rng), random_field(rng), random_field(rng),
             static_cast<std::uint8_t>(rng.uniform_int(0, 1))});
      return reply;
    }
    case MessageType::kJournalShip: {
      // One record of every op, in op order.
      JournalShip ship{random_header(rng), random_u32(rng), rng(), rng(), {}};
      for (int op = 0; op <= static_cast<int>(JournalOp::kReplyCache); ++op)
        ship.records.push_back(random_record(rng, static_cast<JournalOp>(op)));
      return ship;
    }
    case MessageType::kShipAck:
      return ShipAck{rng(), random_code(rng), rng(), rng()};
    case MessageType::kPromoteRequest:
      return PromoteRequest{random_header(rng), random_u32(rng), rng()};
    case MessageType::kPromoteReply:
      return PromoteReply{rng(), random_code(rng), rng(), rng()};
    case MessageType::kRedirectReply:
      return RedirectReply{rng(), random_code(rng), rng(), random_u32(rng)};
  }
  return rpc::RedirectReply{};
}

/// Encodes `original` and checks the decode is equal and re-encodes
/// bit-identically; returns the frame, or an empty one with `*failure`
/// set.
std::vector<std::uint8_t> roundtrip(const rpc::AnyMessage& original,
                                    const std::string& what,
                                    std::string* failure) {
  std::vector<std::uint8_t> frame = rpc::encode(original);
  const rpc::Decoded decoded = rpc::decode_frame(frame);
  if (!decoded.ok())
    *failure = what + " failed to decode its own encoding: " +
               rpc::to_string(decoded.status);
  else if (!(decoded.message == original))
    *failure = what + " round-trip is not equal to the original";
  else if (rpc::encode(decoded.message) != frame)
    *failure = what + " re-encoding is not bit-identical";
  if (!failure->empty()) frame.clear();
  return frame;
}

/// A JournalShip carrying one snapshot with more holdings than any
/// message-level list may have: record-level counts are bounded by the
/// payload, so a busy broker's snapshot ships. Too large to flip every
/// byte, it gets 64 random flips and 64 random truncations.
std::string big_snapshot_roundtrip(Rng& rng, RpcFuzzStats* stats) {
  JournalRecord snap = random_record(rng, JournalOp::kSnapshot);
  const int holdings =
      static_cast<int>(rpc::kMaxVectorEntries) + rng.uniform_int(1, 64);
  snap.holdings = random_session_values(rng, holdings);
  const rpc::JournalShip ship{random_header(rng), random_u32(rng), rng(),
                              rng(), {snap}};
  const std::string what = "codec: journal-ship with a " +
                           std::to_string(holdings) + "-holding snapshot";
  std::string failure;
  const std::vector<std::uint8_t> frame = roundtrip(ship, what, &failure);
  if (!failure.empty()) return failure;
  ++stats->messages_roundtripped;
  for (int i = 0; i < 64; ++i) {
    std::vector<std::uint8_t> mutant = frame;
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(frame.size()) - 1));
    mutant[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    if (rpc::decode_frame(mutant).ok())
      return what + " accepted a flipped byte at offset " + std::to_string(at);
    ++stats->flips_rejected;
    const auto len = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(frame.size()) - 1));
    if (rpc::decode_frame({frame.begin(), frame.begin() + len}).ok())
      return what + " accepted a truncation to " + std::to_string(len) +
             " bytes";
    ++stats->truncations_rejected;
  }
  return "";
}

/// Round-trips every message type, then proves every single-byte flip and
/// every truncation/extension of one frame per type is rejected.
std::string codec_roundtrip(Rng& rng, RpcFuzzStats* stats) {
  for (const rpc::MessageType type : rpc::kMessageTypes) {
    const std::string what = "codec: " + std::string(rpc::to_string(type));
    std::string failure;
    const std::vector<std::uint8_t> frame =
        roundtrip(random_message(rng, type), what, &failure);
    if (!failure.empty()) return failure;
    ++stats->messages_roundtripped;

    // Strict rejection: ANY single-byte change breaks the frame (the
    // checksum covers header prefix + payload; the checksum field itself
    // then mismatches the recomputation).
    for (std::size_t i = 0; i < frame.size(); ++i) {
      std::vector<std::uint8_t> mutant = frame;
      mutant[i] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
      if (rpc::decode_frame(mutant).ok())
        return what + " accepted a flipped byte at offset " +
               std::to_string(i);
      ++stats->flips_rejected;
    }
    // Every strict prefix is kTruncated territory; one trailing byte is
    // kTrailingBytes. Either way: typed rejection, no partial message.
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const std::vector<std::uint8_t> prefix(frame.begin(),
                                             frame.begin() + len);
      if (rpc::decode_frame(prefix).ok())
        return what + " accepted a truncation to " + std::to_string(len) +
               " bytes";
      ++stats->truncations_rejected;
    }
    std::vector<std::uint8_t> extended = frame;
    extended.push_back(0);
    const rpc::Decoded trailing = rpc::decode_frame(extended);
    if (trailing.status != rpc::DecodeStatus::kTrailingBytes)
      return what + " trailing byte not rejected as kTrailingBytes (got " +
             rpc::to_string(trailing.status) + ")";
    ++stats->truncations_rejected;
  }
  return big_snapshot_roundtrip(rng, stats);
}

// ---------------------------------------------------------------------------
// Frame-fault storms with a client-side ledger as the conservation
// oracle.

/// Re-calls under the SAME request id until a usable reply arrives. After
/// `max_tries` faulted attempts the storm is lifted for one clean call
/// (at-least-once delivery eventually succeeds; the dedup cache keeps the
/// effect exactly-once either way).
rpc::CallResult call_until_ok(rpc::RpcChannel& channel, FaultPlane& plane,
                              const rpc::FrameFaultConfig& storm,
                              rpc::AnyMessage request, double now,
                              RpcFuzzStats* stats) {
  constexpr int kMaxTries = 32;
  for (int attempt = 0;; ++attempt) {
    ++stats->storm_calls;
    rpc::CallResult result =
        channel.call(HostId{0}, HostId{1}, request, now);
    if (result.ok()) return result;
    ++stats->storm_retries;
    if (attempt >= kMaxTries) {
      // Lift the storm: flush any held-back frame, deliver cleanly, then
      // restore the weather.
      plane.set_frame_config(rpc::FrameFaultConfig{});
      std::vector<std::vector<std::uint8_t>> flushed;
      plane.flush_frames(&flushed);
      result = channel.call(HostId{0}, HostId{1}, request, now);
      plane.set_frame_config(storm);
      return result;
    }
  }
}

std::string frame_storm(Rng& rng, RpcFuzzStats* stats) {
  BrokerRegistry registry;
  std::vector<ResourceId> resources;
  std::vector<double> capacities;
  const int broker_count = rng.uniform_int(2, 4);
  for (int r = 0; r < broker_count; ++r) {
    capacities.push_back(rng.uniform(60.0, 150.0));
    resources.push_back(registry.add_resource(
        "s" + std::to_string(r), ResourceKind::kCpu,
        HostId{1}, capacities.back()));
  }
  rpc::BrokerService service(&registry);

  FaultPlane plane(rng(), FaultConfig{});
  rpc::FrameFaultConfig storm;
  storm.corrupt_prob = rng.uniform(0.0, 0.4);
  storm.duplicate_prob = rng.uniform(0.0, 0.4);
  storm.reorder_prob = rng.uniform(0.0, 0.4);
  plane.set_frame_config(storm);

  // No transport: the storm rages at the frame level only, so every
  // failed call is a lost/corrupted frame round, never a transport drop.
  rpc::RpcChannel channel(nullptr, &service, &plane);

  // ledger[session][resource] = what the client believes it holds.
  constexpr std::uint32_t kSessions = 4;
  FlatMap<SessionId, FlatMap<ResourceId, double>> ledger;
  constexpr double kEps = 1e-9;

  const int ops = rng.uniform_int(20, 50);
  for (int op = 0; op < ops; ++op) {
    const double now = 1.0 + 0.1 * static_cast<double>(op);
    const SessionId session{
        1u + static_cast<std::uint32_t>(rng.uniform_int(0, kSessions - 1))};
    const ResourceId resource =
        resources[static_cast<std::size_t>(
            rng.uniform_int(0, broker_count - 1))];
    const std::string where = "frame storm: op " + std::to_string(op);
    const int kind = rng.uniform_int(0, 3);
    if (kind == 0 || kind == 1) {  // reserve (weighted: most common)
      const double amount = rng.uniform(5.0, 40.0);
      rpc::ReserveRequest request;
      request.header.request_id = 1'000'000u + static_cast<std::uint64_t>(op);
      request.header.session = session.value();
      request.resource = resource.value();
      request.amount = amount;
      const rpc::CallResult result = call_until_ok(
          channel, plane, storm, request, now, stats);
      if (!result.ok())
        return where + " reserve never delivered (" +
               std::string(to_string(result.status)) + ")";
      const auto& reply = std::get<rpc::ReserveReply>(result.reply);
      if (reply.code == rpc::RpcCode::kOk)
        ledger[session][resource] += amount;
      else if (reply.code != rpc::RpcCode::kAdmissionReject)
        return where + " reserve replied " + rpc::to_string(reply.code);
    } else if (kind == 2) {  // release
      const double amount = rng.uniform(5.0, 40.0);
      rpc::ReleaseRequest request;
      request.header.request_id = 2'000'000u + static_cast<std::uint64_t>(op);
      request.header.session = session.value();
      request.resource = resource.value();
      request.amount = amount;
      const rpc::CallResult result = call_until_ok(
          channel, plane, storm, request, now, stats);
      if (!result.ok())
        return where + " release never delivered (" +
               std::string(to_string(result.status)) + ")";
      const auto& reply = std::get<rpc::ReleaseReply>(result.reply);
      if (reply.code != rpc::RpcCode::kOk)
        return where + " release replied " + rpc::to_string(reply.code);
      double& held = ledger[session][resource];
      const double expect = std::min(held, amount);
      if (std::abs(reply.released - expect) > kEps)
        return where + " released " + str(reply.released) + ", ledger says " +
               str(expect);
      held -= expect;
    } else {  // reconcile: the service tells us what it holds — must match
      rpc::ReconcileRequest request;
      request.header.request_id = 3'000'000u + static_cast<std::uint64_t>(op);
      request.header.session = session.value();
      request.resource = resource.value();
      request.claimed = ledger[session][resource];
      const rpc::CallResult result = call_until_ok(
          channel, plane, storm, request, now, stats);
      if (!result.ok())
        return where + " reconcile never delivered (" +
               std::string(to_string(result.status)) + ")";
      const auto& reply = std::get<rpc::ReconcileReply>(result.reply);
      if (reply.code != rpc::RpcCode::kOk)
        return where + " reconcile replied " + rpc::to_string(reply.code);
      if (std::abs(reply.held - ledger[session][resource]) > kEps)
        return where + " reconcile held " + str(reply.held) +
               ", ledger says " + str(ledger[session][resource]);
      ++stats->conservation_checks;
    }
  }

  // Conservation: despite corruption, duplication and reordering, every
  // operation executed exactly once — the broker books equal the ledger.
  for (int r = 0; r < broker_count; ++r) {
    double total = 0.0;
    for (std::uint32_t s = 1; s <= kSessions; ++s) {
      const double client = ledger[SessionId{s}][resources[
          static_cast<std::size_t>(r)]];
      const double broker = registry.broker(resources[
          static_cast<std::size_t>(r)]).held_by(SessionId{s});
      if (std::abs(client - broker) > kEps)
        return "frame storm: session " + std::to_string(s) + " resource " +
               std::to_string(r) + " ledger " + str(client) + " != broker " +
               str(broker);
      ++stats->conservation_checks;
      total += broker;
    }
    const double available =
        registry.broker(resources[static_cast<std::size_t>(r)]).available();
    if (std::abs((capacities[static_cast<std::size_t>(r)] - total) -
                 available) > 1e-6)
      return "frame storm: resource " + std::to_string(r) +
             " capacity leak (held " + str(total) + ", available " +
             str(available) + ")";
  }
  stats->frames_corrupted += plane.frame_totals().corrupted;
  stats->frames_duplicated += plane.frame_totals().duplicated;
  stats->frames_reordered += plane.frame_totals().held_back;
  stats->dedup_replays += service.stats().duplicates;
  return "";
}

// ---------------------------------------------------------------------------
// Backpressure: tiny queue, auto_drain off — overflow must fast-reject
// with typed kBackpressure and drain_all must execute exactly the queued
// prefix.

std::string backpressure_arm(Rng& rng, RpcFuzzStats* stats) {
  BrokerRegistry registry;
  const double capacity = 1000.0;
  const ResourceId resource = registry.add_resource(
      "bp", ResourceKind::kCpu, HostId{1}, capacity);

  rpc::BrokerService::Config config;
  config.queue_capacity = static_cast<std::size_t>(rng.uniform_int(1, 3));
  config.auto_drain = false;
  rpc::BrokerService service(&registry, config);

  rpc::RpcChannel::Config channel_config;
  channel_config.policy.max_attempts = 1;  // one frame round per call
  rpc::RpcChannel channel(nullptr, &service, nullptr, channel_config);

  const int posts =
      static_cast<int>(config.queue_capacity) + rng.uniform_int(2, 5);
  int queued = 0, rejected = 0;
  for (int p = 0; p < posts; ++p) {
    rpc::ReserveRequest request;
    request.header.session = 7;
    request.resource = resource.value();
    request.amount = 10.0;
    const rpc::CallResult result =
        channel.call(HostId{0}, HostId{1}, request, 1.0);
    if (!result.ok()) {
      // Queued without a reply: the post landed, execution is deferred.
      ++queued;
      continue;
    }
    const auto& reply = std::get<rpc::ReserveReply>(result.reply);
    if (reply.code != rpc::RpcCode::kBackpressure)
      return "backpressure: overflow post " + std::to_string(p) +
             " replied " + rpc::to_string(reply.code);
    ++rejected;
    ++stats->backpressure_rejects;
  }
  if (queued != static_cast<int>(config.queue_capacity))
    return "backpressure: queued " + std::to_string(queued) + " of " +
           std::to_string(config.queue_capacity) + " capacity";
  if (rejected != posts - queued)
    return "backpressure: " + std::to_string(rejected) +
           " rejects for " + std::to_string(posts - queued) + " overflows";
  if (service.stats().backpressure != static_cast<std::uint64_t>(rejected))
    return "backpressure: service counted " +
           std::to_string(service.stats().backpressure) + " rejects";
  if (service.max_queue_high_water() != config.queue_capacity)
    return "backpressure: high water " +
           std::to_string(service.max_queue_high_water());

  std::vector<std::vector<std::uint8_t>> replies;
  service.drain_all(2.0, &replies);
  if (replies.size() != static_cast<std::size_t>(queued))
    return "backpressure: drained " + std::to_string(replies.size()) +
           " replies for " + std::to_string(queued) + " queued posts";
  for (const auto& frame : replies) {
    const rpc::Decoded decoded = rpc::decode_frame(frame);
    if (!decoded.ok() ||
        std::get<rpc::ReserveReply>(decoded.message).code !=
            rpc::RpcCode::kOk)
      return "backpressure: a drained reserve did not execute kOk";
  }
  const double held = registry.broker(resource).held_by(SessionId{7});
  if (held != 10.0 * queued)
    return "backpressure: broker holds " + str(held) + ", expected " +
           str(10.0 * queued);
  return "";
}

}  // namespace

std::string run_rpc_iteration(std::uint64_t seed, RpcFuzzStats* stats) {
  Rng rng(seed);
  const auto tag = [seed](std::string message) {
    return message.empty()
               ? message
               : "seed " + std::to_string(seed) + ": " + message;
  };
  std::string failure = codec_roundtrip(rng, stats);
  if (failure.empty()) failure = frame_storm(rng, stats);
  if (failure.empty()) failure = backpressure_arm(rng, stats);
  return tag(std::move(failure));
}

}  // namespace qres::fuzz
