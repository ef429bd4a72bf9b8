// Versioned wire format for the broker/proxy control plane (DESIGN.md §12).
//
// Every control-plane message — the broker service vocabulary
// (reserve/release/renew/reconcile/query) and the replication vocabulary
// (journal shipping, promotion, redirects) — has an explicit serialized
// form: a length-prefixed frame with a fixed little-endian header followed
// by a typed payload.
//
//   offset  size  field
//        0     4  magic "QRPC"
//        4     1  wire version (kWireVersion)
//        5     1  MessageType
//        6     2  flags (reserved, must be zero)
//        8     4  payload length in bytes
//       12     8  FNV-1a 64 checksum of header bytes [0, 12) + payload
//       20   ...  payload
//
// The checksum covers the header prefix (magic through length), not just
// the payload: a single flipped type byte must fail the checksum rather
// than silently decode as a different message type whose payload happens
// to share the same layout.
//
// Each payload layout is written once (wire.cpp), in the util/codec field
// language that journal records use too. Decoding is strict: truncated
// frames, bad magic, unknown versions or message types, checksum
// mismatches, malformed payloads (bad counts, short fields, out-of-range
// enum or boolean bytes) and trailing bytes are all rejected as *typed*
// DecodeStatus errors — never UB, never a best-effort partial message.
// Doubles are serialized as their IEEE-754 bit patterns, so every value
// (including ±inf) round-trips bit-exactly; this is what lets the typed
// transport be bit-identical to the legacy implicit exchange
// (tests/fuzz/rpc_fuzz.cpp).
//
// Versioning: kWireVersion is bumped on any layout change; decoders
// reject frames from other versions (kBadVersion). The golden-bytes tests
// in tests/rpc/test_wire.cpp pin the exact encoding of every message
// type so accidental wire breaks fail loudly. v2 added the authoritative
// `lease_deadline` to ReserveReply/RenewReply: the model checker showed
// that a client deriving the deadline from its own receive time believes
// a lease lives longer than the broker does and keeps acting on a
// reclaimed holding (DESIGN.md §13). v3 added broker replication
// (DESIGN.md §14): a fencing `epoch` in every RequestHeader, the
// kNotPrimary code + RedirectReply redirect hint, and the replication
// vocabulary (JournalShip/ShipAck, PromoteRequest/PromoteReply). v4 ships
// JournalShip records in the journal's binary record layout instead of
// text lines; every other payload is byte-identical to v3.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <variant>
#include <vector>

#include "broker/journal.hpp"
#include "core/ids.hpp"
#include "util/annotations.hpp"

namespace qres::rpc {

inline constexpr std::uint8_t kWireVersion = 4;
inline constexpr std::size_t kHeaderSize = 20;
/// Upper bound on one frame's payload; larger length fields are rejected
/// before any allocation is sized from attacker-controlled input.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;
/// Upper bound on a message's repeated field (query entries and samples,
/// shipped records). Counts inside a journal record are bounded by the
/// payload bytes left instead: a busy broker's snapshot must still ship.
inline constexpr std::uint32_t kMaxVectorEntries = 4096;

enum class MessageType : std::uint8_t {
  kReserveRequest = 1,
  kReserveReply = 2,
  kReleaseRequest = 3,
  kReleaseReply = 4,
  kRenewRequest = 5,
  kRenewReply = 6,
  kReconcileRequest = 7,
  kReconcileReply = 8,
  kQueryRequest = 9,
  kQueryReply = 10,
  // 11..13 were the RSVP Path/Resv/Tear messages, which nothing sent;
  // they decode as kBadType.
  kJournalShip = 14,
  kShipAck = 15,
  kPromoteRequest = 16,
  kPromoteReply = 17,
  kRedirectReply = 18,
};

/// Application-level outcome carried in every reply.
enum class QRES_NODISCARD RpcCode : std::uint8_t {
  kOk = 0,
  kAdmissionReject = 1,    ///< the broker rejected the amount (capacity)
  kBrokerDown = 2,         ///< the target broker process is down
  kBackpressure = 3,       ///< service execution queue full (fast-reject)
  kDeadlineExceeded = 4,   ///< the request's deadline passed before execution
  kBadRequest = 5,         ///< malformed/out-of-range request fields
  kNotPrimary = 6,         ///< peer is fenced/standby or the epoch is stale;
                           ///< the reply is a RedirectReply with the hint
};

/// Why a frame failed to decode. Strictly typed — every corruption mode
/// maps to exactly one of these, and decode never reads past the buffer.
enum class QRES_NODISCARD DecodeStatus : std::uint8_t {
  kOk = 0,
  kTruncated,         ///< shorter than the header or the declared payload
  kBadMagic,          ///< first four bytes are not "QRPC"
  kBadVersion,        ///< version byte != kWireVersion
  kBadType,           ///< unknown MessageType
  kBadLength,         ///< declared payload length exceeds kMaxPayloadBytes
  kChecksumMismatch,  ///< payload bytes do not match the header checksum
  kMalformedPayload,  ///< payload fields short, overlong or out of range
  kTrailingBytes,     ///< bytes left over after the declared payload
};

const char* to_string(MessageType type) noexcept;
const char* to_string(RpcCode code) noexcept;
const char* to_string(DecodeStatus status) noexcept;

/// Fields common to every request: the shim-assigned id (dedup key for
/// at-least-once redelivery), the session on whose behalf the call runs,
/// and the absolute deadline propagated from the caller's budget (+inf =
/// none; the service fast-rejects expired requests as kDeadlineExceeded).
struct RequestHeader {
  std::uint64_t request_id = 0;
  std::uint32_t session = SessionId::kInvalid;
  double deadline = 0.0;
  /// Replication fencing epoch the caller believes the target resource is
  /// in (v3). 0 = unreplicated / unknown — accepted by any serving
  /// replica. A non-zero stale value is rejected kNotPrimary with a
  /// RedirectReply so a client that re-homed once never silently lands a
  /// mutation on a deposed primary (DESIGN.md §14).
  std::uint64_t epoch = 0;

  friend bool operator==(const RequestHeader&, const RequestHeader&) = default;
};

struct ReserveRequest {
  RequestHeader header;
  std::uint32_t resource = ResourceId::kInvalid;
  double amount = 0.0;
  double lease = 0.0;  ///< 0 = permanent reservation

  friend bool operator==(const ReserveRequest&, const ReserveRequest&) =
      default;
};

struct ReserveReply {
  std::uint64_t request_id = 0;
  RpcCode code = RpcCode::kOk;
  double available_after = 0.0;
  /// The broker's authoritative lease deadline for the session after this
  /// grant (+inf for permanent reservations and non-grants). Clients must
  /// schedule renewals from this value, never from their own receive time:
  /// the grant executed before the reply travelled, so a receipt-derived
  /// deadline overshoots the broker's and the holding is reclaimed while
  /// the client still believes it is covered.
  double lease_deadline = std::numeric_limits<double>::infinity();

  friend bool operator==(const ReserveReply&, const ReserveReply&) = default;
};

struct ReleaseRequest {
  RequestHeader header;
  std::uint32_t resource = ResourceId::kInvalid;
  std::uint8_t release_all = 0;  ///< 1 = release everything the session holds
  double amount = 0.0;           ///< ignored when release_all

  friend bool operator==(const ReleaseRequest&, const ReleaseRequest&) =
      default;
};

struct ReleaseReply {
  std::uint64_t request_id = 0;
  RpcCode code = RpcCode::kOk;
  double released = 0.0;

  friend bool operator==(const ReleaseReply&, const ReleaseReply&) = default;
};

struct RenewRequest {
  RequestHeader header;
  std::uint32_t resource = ResourceId::kInvalid;
  double lease = 0.0;

  friend bool operator==(const RenewRequest&, const RenewRequest&) = default;
};

struct RenewReply {
  std::uint64_t request_id = 0;
  RpcCode code = RpcCode::kOk;
  std::uint8_t renewed = 0;  ///< renew_lease()'s boolean result
  /// The broker's lease deadline after the renewal (+inf when the session
  /// holds nothing leased here — renewed == 0). See ReserveReply.
  double lease_deadline = std::numeric_limits<double>::infinity();

  friend bool operator==(const RenewReply&, const RenewReply&) = default;
};

struct ReconcileRequest {
  RequestHeader header;
  std::uint32_t resource = ResourceId::kInvalid;
  double claimed = 0.0;

  friend bool operator==(const ReconcileRequest&, const ReconcileRequest&) =
      default;
};

struct ReconcileReply {
  std::uint64_t request_id = 0;
  RpcCode code = RpcCode::kOk;
  double held = 0.0;  ///< what the broker actually holds for the session

  friend bool operator==(const ReconcileReply&, const ReconcileReply&) =
      default;
};

struct QueryEntry {
  std::uint32_t resource = ResourceId::kInvalid;
  double observe_at = 0.0;  ///< observation time (now - staleness)

  friend bool operator==(const QueryEntry&, const QueryEntry&) = default;
};

struct QueryRequest {
  RequestHeader header;
  std::vector<QueryEntry> entries;

  friend bool operator==(const QueryRequest&, const QueryRequest&) = default;
};

struct QuerySample {
  std::uint32_t resource = ResourceId::kInvalid;
  double available = 0.0;
  double alpha = 1.0;
  std::uint8_t up = 1;

  friend bool operator==(const QuerySample&, const QuerySample&) = default;
};

struct QueryReply {
  std::uint64_t request_id = 0;
  RpcCode code = RpcCode::kOk;
  std::vector<QuerySample> samples;

  friend bool operator==(const QueryReply&, const QueryReply&) = default;
};

/// Primary -> standby: a contiguous batch of journal records, each in the
/// journal's binary record layout (broker/journal.hpp record_fields — the
/// layout FileJournal stores, so doubles round-trip bit-exactly).
/// `seq_first` is the journal sequence number of records[0]; a standby
/// applies the batch only when seq_first == its watermark (idempotent:
/// lower batches re-ack, gapped batches are refused so the primary
/// rewinds). `epoch` fences: a batch from a deposed primary is dropped.
struct JournalShip {
  RequestHeader header;
  std::uint32_t resource = ResourceId::kInvalid;
  std::uint64_t epoch = 0;
  std::uint64_t seq_first = 0;
  std::vector<JournalRecord> records;

  friend bool operator==(const JournalShip&, const JournalShip&) = default;
};

/// Standby -> primary: replication watermark after applying (or refusing)
/// a shipped batch. `watermark` = number of journal records durably
/// applied, i.e. the sequence number the standby expects next.
struct ShipAck {
  std::uint64_t request_id = 0;
  RpcCode code = RpcCode::kOk;
  std::uint64_t epoch = 0;
  std::uint64_t watermark = 0;

  friend bool operator==(const ShipAck&, const ShipAck&) = default;
};

/// Coordinator -> standby: adopt `epoch` and serve as primary. The
/// receiver refuses (kNotPrimary) when `epoch` is not strictly newer than
/// its own — double promotions tie-break on epoch, never on wall order.
struct PromoteRequest {
  RequestHeader header;
  std::uint32_t resource = ResourceId::kInvalid;
  std::uint64_t epoch = 0;

  friend bool operator==(const PromoteRequest&, const PromoteRequest&) =
      default;
};

struct PromoteReply {
  std::uint64_t request_id = 0;
  RpcCode code = RpcCode::kOk;
  std::uint64_t epoch = 0;      ///< the epoch now in force at the receiver
  std::uint64_t watermark = 0;  ///< its journal watermark at promotion

  friend bool operator==(const PromoteReply&, const PromoteReply&) = default;
};

/// Any-service -> client: typed kNotPrimary rejection with a re-homing
/// hint. `primary_host` names the replica the sender believes is serving
/// `epoch` (may itself be stale — clients re-probe, they do not trust it
/// transitively); kInvalid = sender has no hint, client must re-discover.
struct RedirectReply {
  std::uint64_t request_id = 0;
  RpcCode code = RpcCode::kNotPrimary;
  std::uint64_t epoch = 0;
  std::uint32_t primary_host = HostId::kInvalid;

  friend bool operator==(const RedirectReply&, const RedirectReply&) = default;
};

using AnyMessage =
    std::variant<ReserveRequest, ReserveReply, ReleaseRequest, ReleaseReply,
                 RenewRequest, RenewReply, ReconcileRequest, ReconcileReply,
                 QueryRequest, QueryReply, JournalShip, ShipAck,
                 PromoteRequest, PromoteReply, RedirectReply>;

/// Every MessageType, in AnyMessage's alternative order.
inline constexpr std::array<MessageType, std::variant_size_v<AnyMessage>>
    kMessageTypes = {
        MessageType::kReserveRequest, MessageType::kReserveReply,
        MessageType::kReleaseRequest, MessageType::kReleaseReply,
        MessageType::kRenewRequest,   MessageType::kRenewReply,
        MessageType::kReconcileRequest, MessageType::kReconcileReply,
        MessageType::kQueryRequest,   MessageType::kQueryReply,
        MessageType::kJournalShip,    MessageType::kShipAck,
        MessageType::kPromoteRequest, MessageType::kPromoteReply,
        MessageType::kRedirectReply,
};

/// The message's wire type tag.
MessageType message_type(const AnyMessage& message) noexcept;

/// The request id of any message (requests carry it in their header,
/// replies inline).
std::uint64_t request_id_of(const AnyMessage& message) noexcept;

/// True for the five *Request types the broker service executes.
bool is_request(MessageType type) noexcept;

/// True for the replication-plane requests (JournalShip, PromoteRequest)
/// the replication service executes. Disjoint from is_request: the broker
/// service's dedup/backpressure path never sees these.
bool is_replication_request(MessageType type) noexcept;

/// Serializes `message` into one framed buffer (header + payload).
std::vector<std::uint8_t> encode(const AnyMessage& message);

/// Result of a strict decode. `message` is meaningful only when
/// status == kOk.
struct QRES_NODISCARD Decoded {
  DecodeStatus status = DecodeStatus::kOk;
  AnyMessage message;

  bool ok() const noexcept { return status == DecodeStatus::kOk; }
};

/// Strictly decodes one frame. Never reads out of bounds, never throws on
/// malformed input: every failure is a typed DecodeStatus.
Decoded decode_frame(const std::vector<std::uint8_t>& frame);

}  // namespace qres::rpc
