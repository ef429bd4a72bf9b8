#include "rpc/wire.hpp"

#include "util/assert.hpp"
#include "util/codec.hpp"

namespace qres::rpc {

namespace {

// ---------------------------------------------------------------------------
// Payload layouts, one function per message, used both to encode (const
// message, codec::Writer) and to decode (mutable message, codec::Reader).

void fields(auto& io, codec::Is<RequestHeader> auto& h) {
  io.u64(h.request_id);
  io.u32(h.session);
  io.f64(h.deadline);
  io.u64(h.epoch);
}

void code(auto& io, auto& c) { io.enumeration(c, RpcCode::kNotPrimary); }

void fields(auto& io, codec::Is<ReserveRequest> auto& m) {
  fields(io, m.header);
  io.u32(m.resource);
  io.f64(m.amount);
  io.f64(m.lease);
}

void fields(auto& io, codec::Is<ReserveReply> auto& m) {
  io.u64(m.request_id);
  code(io, m.code);
  io.f64(m.available_after);
  io.f64(m.lease_deadline);
}

void fields(auto& io, codec::Is<ReleaseRequest> auto& m) {
  fields(io, m.header);
  io.u32(m.resource);
  io.flag(m.release_all);
  io.f64(m.amount);
}

void fields(auto& io, codec::Is<ReleaseReply> auto& m) {
  io.u64(m.request_id);
  code(io, m.code);
  io.f64(m.released);
}

void fields(auto& io, codec::Is<RenewRequest> auto& m) {
  fields(io, m.header);
  io.u32(m.resource);
  io.f64(m.lease);
}

void fields(auto& io, codec::Is<RenewReply> auto& m) {
  io.u64(m.request_id);
  code(io, m.code);
  io.flag(m.renewed);
  io.f64(m.lease_deadline);
}

void fields(auto& io, codec::Is<ReconcileRequest> auto& m) {
  fields(io, m.header);
  io.u32(m.resource);
  io.f64(m.claimed);
}

void fields(auto& io, codec::Is<ReconcileReply> auto& m) {
  io.u64(m.request_id);
  code(io, m.code);
  io.f64(m.held);
}

void fields(auto& io, codec::Is<QueryRequest> auto& m) {
  fields(io, m.header);
  io.list(
      m.entries,
      [&io](auto& e) {
        io.u32(e.resource);
        io.f64(e.observe_at);
      },
      kMaxVectorEntries);
}

void fields(auto& io, codec::Is<QueryReply> auto& m) {
  io.u64(m.request_id);
  code(io, m.code);
  io.list(
      m.samples,
      [&io](auto& s) {
        io.u32(s.resource);
        io.f64(s.available);
        io.f64(s.alpha);
        io.flag(s.up);
      },
      kMaxVectorEntries);
}

void fields(auto& io, codec::Is<JournalShip> auto& m) {
  fields(io, m.header);
  io.u32(m.resource);
  io.u64(m.epoch);
  io.u64(m.seq_first);
  io.list(
      m.records, [&io](auto& r) { record_fields(io, r); },
      kMaxVectorEntries);
}

void fields(auto& io, codec::Is<ShipAck> auto& m) {
  io.u64(m.request_id);
  code(io, m.code);
  io.u64(m.epoch);
  io.u64(m.watermark);
}

void fields(auto& io, codec::Is<PromoteRequest> auto& m) {
  fields(io, m.header);
  io.u32(m.resource);
  io.u64(m.epoch);
}

void fields(auto& io, codec::Is<PromoteReply> auto& m) {
  io.u64(m.request_id);
  code(io, m.code);
  io.u64(m.epoch);
  io.u64(m.watermark);
}

void fields(auto& io, codec::Is<RedirectReply> auto& m) {
  io.u64(m.request_id);
  code(io, m.code);
  io.u64(m.epoch);
  io.u32(m.primary_host);
}

/// Decodes a payload as AnyMessage alternative I, or the next one whose
/// tag is `type`. The caller has checked that some alternative has it.
template <std::size_t I = 0>
Decoded decode_payload(MessageType type, const std::uint8_t* data,
                       std::size_t size) {
  if constexpr (I + 1 < kMessageTypes.size())
    if (kMessageTypes[I] != type)
      return decode_payload<I + 1>(type, data, size);
  codec::Reader r(data, size);
  std::variant_alternative_t<I, AnyMessage> m;
  fields(r, m);
  if (!r.done()) return {DecodeStatus::kMalformedPayload, {}};
  return {DecodeStatus::kOk, std::move(m)};
}

bool known_type(std::uint8_t raw) noexcept {
  for (const MessageType type : kMessageTypes)
    if (static_cast<std::uint8_t>(type) == raw) return true;
  return false;
}

}  // namespace

const char* to_string(MessageType type) noexcept {
  switch (type) {
    case MessageType::kReserveRequest: return "reserve-request";
    case MessageType::kReserveReply: return "reserve-reply";
    case MessageType::kReleaseRequest: return "release-request";
    case MessageType::kReleaseReply: return "release-reply";
    case MessageType::kRenewRequest: return "renew-request";
    case MessageType::kRenewReply: return "renew-reply";
    case MessageType::kReconcileRequest: return "reconcile-request";
    case MessageType::kReconcileReply: return "reconcile-reply";
    case MessageType::kQueryRequest: return "query-request";
    case MessageType::kQueryReply: return "query-reply";
    case MessageType::kJournalShip: return "journal-ship";
    case MessageType::kShipAck: return "ship-ack";
    case MessageType::kPromoteRequest: return "promote-request";
    case MessageType::kPromoteReply: return "promote-reply";
    case MessageType::kRedirectReply: return "redirect-reply";
  }
  return "?";
}

const char* to_string(RpcCode code) noexcept {
  switch (code) {
    case RpcCode::kOk: return "ok";
    case RpcCode::kAdmissionReject: return "admission-reject";
    case RpcCode::kBrokerDown: return "broker-down";
    case RpcCode::kBackpressure: return "backpressure";
    case RpcCode::kDeadlineExceeded: return "deadline-exceeded";
    case RpcCode::kBadRequest: return "bad-request";
    case RpcCode::kNotPrimary: return "not-primary";
  }
  return "?";
}

const char* to_string(DecodeStatus status) noexcept {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kTruncated: return "truncated";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadType: return "bad-type";
    case DecodeStatus::kBadLength: return "bad-length";
    case DecodeStatus::kChecksumMismatch: return "checksum-mismatch";
    case DecodeStatus::kMalformedPayload: return "malformed-payload";
    case DecodeStatus::kTrailingBytes: return "trailing-bytes";
  }
  return "?";
}

MessageType message_type(const AnyMessage& message) noexcept {
  return kMessageTypes[message.index()];
}

std::uint64_t request_id_of(const AnyMessage& message) noexcept {
  return std::visit(
      [](const auto& m) -> std::uint64_t {
        if constexpr (requires { m.header.request_id; })
          return m.header.request_id;
        else
          return m.request_id;
      },
      message);
}

bool is_request(MessageType type) noexcept {
  switch (type) {
    case MessageType::kReserveRequest:
    case MessageType::kReleaseRequest:
    case MessageType::kRenewRequest:
    case MessageType::kReconcileRequest:
    case MessageType::kQueryRequest:
      return true;
    case MessageType::kReserveReply:
    case MessageType::kReleaseReply:
    case MessageType::kRenewReply:
    case MessageType::kReconcileReply:
    case MessageType::kQueryReply:
    case MessageType::kJournalShip:
    case MessageType::kShipAck:
    case MessageType::kPromoteRequest:
    case MessageType::kPromoteReply:
    case MessageType::kRedirectReply:
      return false;
  }
  return false;
}

bool is_replication_request(MessageType type) noexcept {
  return type == MessageType::kJournalShip ||
         type == MessageType::kPromoteRequest;
}

std::vector<std::uint8_t> encode(const AnyMessage& message) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderSize + 64);  // every fixed-size message fits
  codec::Writer w(&frame);
  for (const char magic : {'Q', 'R', 'P', 'C'})
    w.u8(static_cast<std::uint8_t>(magic));
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(message_type(message)));
  w.u16(0);  // flags, reserved
  w.u32(0);  // payload length, patched below
  w.u64(0);  // checksum, patched below
  std::visit([&w](const auto& m) { fields(w, m); }, message);
  const std::size_t length = frame.size() - kHeaderSize;
  QRES_REQUIRE(length <= kMaxPayloadBytes,
               "rpc::encode: payload exceeds kMaxPayloadBytes");
  codec::store_le(frame.data() + 8, static_cast<std::uint32_t>(length));
  // Checksum covers the header prefix [0, 12) and the payload.
  const std::uint64_t sum = codec::fnv1a64(
      frame.data() + kHeaderSize, length, codec::fnv1a64(frame.data(), 12));
  codec::store_le(frame.data() + 12, sum);
  return frame;
}

Decoded decode_frame(const std::vector<std::uint8_t>& frame) {
  const auto fail = [](DecodeStatus status) { return Decoded{status, {}}; };
  if (frame.size() < kHeaderSize) return fail(DecodeStatus::kTruncated);
  const std::uint8_t* d = frame.data();
  if (d[0] != 'Q' || d[1] != 'R' || d[2] != 'P' || d[3] != 'C')
    return fail(DecodeStatus::kBadMagic);
  if (d[4] != kWireVersion) return fail(DecodeStatus::kBadVersion);
  if (!known_type(d[5])) return fail(DecodeStatus::kBadType);
  const auto length = codec::load_le<std::uint32_t>(d + 8);
  if (length > kMaxPayloadBytes) return fail(DecodeStatus::kBadLength);
  if (frame.size() < kHeaderSize + length)
    return fail(DecodeStatus::kTruncated);
  if (frame.size() > kHeaderSize + length)
    return fail(DecodeStatus::kTrailingBytes);
  const std::uint64_t sum =
      codec::fnv1a64(d + kHeaderSize, length, codec::fnv1a64(d, 12));
  if (sum != codec::load_le<std::uint64_t>(d + 12))
    return fail(DecodeStatus::kChecksumMismatch);
  if (d[6] != 0 || d[7] != 0) return fail(DecodeStatus::kMalformedPayload);
  return decode_payload(static_cast<MessageType>(d[5]), d + kHeaderSize,
                        length);
}

}  // namespace qres::rpc
