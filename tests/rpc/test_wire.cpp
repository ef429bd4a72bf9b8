// Wire-format tests: encode/decode round-trips for every message type,
// pinned golden bytes for the current layout (an accidental wire break
// fails loudly here before any cross-version peer sees it), and one test
// per typed DecodeStatus proving strict rejection of malformed frames.
#include "rpc/wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "util/codec.hpp"

namespace qres::rpc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

/// Rewrites the checksum field after a test mutates header/payload bytes,
/// so the mutation under test (and not the stale checksum) is what the
/// decoder trips on.
void refresh_checksum(std::vector<std::uint8_t>& frame) {
  std::vector<std::uint8_t> covered(frame.begin(), frame.begin() + 12);
  covered.insert(covered.end(), frame.begin() + kHeaderSize, frame.end());
  const std::uint64_t sum = codec::fnv1a64(covered.data(), covered.size());
  for (int i = 0; i < 8; ++i)
    frame[12 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(sum >> (8 * i));
}

/// Two shipped records: a leased grant and a snapshot.
std::vector<JournalRecord> sample_records() {
  JournalRecord grant;
  grant.op = JournalOp::kReserveLeased;
  grant.time = 1.5;
  grant.resource = ResourceId{1};
  grant.session = SessionId{2};
  grant.amount = 4.5;
  grant.lease = 30.0;
  JournalRecord snap;
  snap.op = JournalOp::kSnapshot;
  snap.time = 2.0;
  snap.resource = ResourceId{1};
  snap.name = "cpu";
  snap.capacity = 100.0;
  snap.reserved = 4.5;
  snap.holdings = {{2, 4.5}};
  snap.history = {{0.0, 100.0}, {1.5, 95.5}};
  return {grant, snap};
}

void expect_roundtrip(const AnyMessage& message) {
  const std::vector<std::uint8_t> frame = encode(message);
  const Decoded decoded = decode_frame(frame);
  ASSERT_EQ(decoded.status, DecodeStatus::kOk)
      << to_string(message_type(message));
  EXPECT_TRUE(decoded.message == message)
      << to_string(message_type(message));
  // Re-encoding the decoded value must reproduce the frame bit-for-bit.
  EXPECT_EQ(encode(decoded.message), frame);
}

TEST(Wire, EveryMessageTypeRoundTrips) {
  expect_roundtrip(ReserveRequest{{7, 3, 12.5}, 2, 4.5, 30.0});
  expect_roundtrip(ReserveReply{7, RpcCode::kAdmissionReject, 95.5});
  expect_roundtrip(ReleaseRequest{{8, 3, kInf}, 2, 1, 0.0});
  expect_roundtrip(ReleaseReply{8, RpcCode::kOk, 4.5});
  expect_roundtrip(RenewRequest{{9, 3, 12.5}, 2, 30.0});
  expect_roundtrip(RenewReply{9, RpcCode::kOk, 1});
  expect_roundtrip(ReconcileRequest{{10, 3, 12.5}, 2, 4.5});
  expect_roundtrip(ReconcileReply{10, RpcCode::kBrokerDown, 0.0});
  expect_roundtrip(QueryRequest{{11, 3, 12.5}, {{2, 1.0}, {4, 2.0}}});
  expect_roundtrip(QueryReply{11, RpcCode::kOk, {{2, 80.0, 1.0, 1}}});
  // Replication vocabulary (DESIGN.md §14). The shipped records travel in
  // the journal's binary record layout (v4).
  expect_roundtrip(JournalShip{{20, 0, kInf, 7}, 1, 7, 3, sample_records()});
  expect_roundtrip(JournalShip{{20, 0, kInf, 7}, 1, 7, 0, {}});
  expect_roundtrip(ShipAck{20, RpcCode::kOk, 7, 5});
  expect_roundtrip(PromoteRequest{{21, 0, kInf, 8}, 1, 8});
  expect_roundtrip(PromoteReply{21, RpcCode::kNotPrimary, 9, 5});
  expect_roundtrip(RedirectReply{22, RpcCode::kNotPrimary, 8, 3});
}

TEST(Wire, ExtremeValuesRoundTripBitExactly) {
  // ±inf deadlines and amounts are the normal case (+inf = no deadline).
  expect_roundtrip(ReserveRequest{{1, 0, kInf}, 0, kInf, 0.0});
  expect_roundtrip(ReserveReply{1, RpcCode::kOk, -kInf});
  // -0.0 must survive with its sign bit (IEEE-754 bit-pattern encoding).
  const auto decoded = decode_frame(encode(ReserveReply{2, RpcCode::kOk, -0.0}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::signbit(std::get<ReserveReply>(decoded.message).available_after));
  // Empty repeated fields.
  expect_roundtrip(QueryRequest{{3, 0, kInf}, {}});
  // The largest permitted repeated field round-trips; one more is
  // rejected as malformed (count guard, not allocation failure).
  QueryRequest big{{5, 0, kInf}, std::vector<QueryEntry>(kMaxVectorEntries)};
  expect_roundtrip(big);
  big.entries.emplace_back();
  std::vector<std::uint8_t> frame = encode(big);
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kMalformedPayload);
  // Counts inside a journal record are bounded by the payload, not by
  // kMaxVectorEntries: a busy broker's snapshot still ships.
  JournalRecord snap = sample_records()[1];
  for (std::uint32_t s = 0; s <= kMaxVectorEntries; ++s)
    snap.holdings.push_back({s, 0.5});
  expect_roundtrip(JournalShip{{6, 0, kInf, 1}, 1, 1, 0, {snap}});
}

TEST(Wire, GoldenBytesV4) {
  // Pinned v4 encodings, each split into the 20-byte header and the
  // payload: any layout change must bump kWireVersion and regenerate
  // these, never silently reinterpret old frames. v2 added the
  // authoritative lease_deadline to ReserveReply/RenewReply; v3 added the
  // fencing epoch to every RequestHeader and the replication vocabulary
  // (DESIGN.md §14); v4 ships JournalShip records in the journal's binary
  // record layout. Every payload but JournalShip's is v3's, byte for byte.
  EXPECT_EQ(to_hex(encode(ReserveRequest{{7, 3, 12.5}, 2, 4.5, 0.0})),
            "515250430401000030000000bd33cd23dfc0200f"
            "0700000000000000030000000000000000002940000000000000000002000000"
            "00000000000012400000000000000000");
  // The same request pinned in epoch 5: only the epoch field (and the
  // checksum) may differ from the epoch-0 frame above.
  EXPECT_EQ(to_hex(encode(ReserveRequest{{7, 3, 12.5, 5}, 2, 4.5, 0.0})),
            "515250430401000030000000e8f9ced74389b748"
            "0700000000000000030000000000000000002940050000000000000002000000"
            "00000000000012400000000000000000");
  EXPECT_EQ(to_hex(encode(ReserveReply{7, RpcCode::kOk, 95.5, 42.0})),
            "5152504304020000190000006768c90147715353"
            "0700000000000000000000000000e057400000000000004540");
  EXPECT_EQ(to_hex(encode(ReleaseRequest{{8, 3, kInf}, 2, 1, 0.0})),
            "51525043040300002900000016fd71569dd2e9e4"
            "080000000000000003000000000000000000f07f000000000000000002000000"
            "010000000000000000");
  EXPECT_EQ(to_hex(encode(ReleaseReply{8, RpcCode::kOk, 4.5})),
            "515250430404000011000000a0853f0a1f99f58f"
            "0800000000000000000000000000001240");
  EXPECT_EQ(to_hex(encode(RenewRequest{{9, 3, 12.5}, 2, 30.0})),
            "5152504304050000280000005b22b1afb084989c"
            "0900000000000000030000000000000000002940000000000000000002000000"
            "0000000000003e40");
  EXPECT_EQ(to_hex(encode(RenewReply{9, RpcCode::kOk, 1, 42.0})),
            "5152504304060000120000006c5fab0702f6200f"
            "090000000000000000010000000000004540");
  EXPECT_EQ(to_hex(encode(ReconcileRequest{{10, 3, 12.5}, 2, 4.5})),
            "5152504304070000280000006a44c5a362845f71"
            "0a00000000000000030000000000000000002940000000000000000002000000"
            "0000000000001240");
  EXPECT_EQ(to_hex(encode(ReconcileReply{10, RpcCode::kOk, 4.5})),
            "515250430408000011000000d2a8a34f61ba7822"
            "0a00000000000000000000000000001240");
  EXPECT_EQ(to_hex(encode(QueryRequest{{11, 3, 12.5}, {{2, 1.0}, {4, 2.0}}})),
            "5152504304090000380000007844f3f3e1a79c61"
            "0b00000000000000030000000000000000002940000000000000000002000000"
            "02000000000000000000f03f040000000000000000000040");
  EXPECT_EQ(to_hex(encode(QueryReply{11, RpcCode::kOk, {{2, 80.0, 1.0, 1}}})),
            "51525043040a000022000000ad08482020ccfc14"
            "0b000000000000000001000000020000000000000000005440000000000000f0"
            "3f01");
  // Replication vocabulary: shipped records in the journal's binary
  // record layout (op, time, resource, then the op's fields), one after
  // another, batch-prefixed by a count.
  EXPECT_EQ(to_hex(encode(
                JournalShip{{20, 0, kInf, 7}, 1, 7, 3, sample_records()})),
            "51525043040e0000cb000000baad372dc21250ed"
            "140000000000000000000000000000000000f07f070000000000000001000000"
            "070000000000000003000000000000000200000002000000000000f83f010000"
            "000200000000000000000012400000000000003e400000000000000000400100"
            "0000030000006370750000000000005940000000000000000000000000000000"
            "0000000000000000000000000000000000124001000000020000000000000000"
            "0012400000000002000000000000000000000000000000000059400000000000"
            "00f83f0000000000e05740");
  EXPECT_EQ(to_hex(encode(ShipAck{20, RpcCode::kOk, 7, 5})),
            "51525043040f0000190000008f1a7237891d7eea"
            "14000000000000000007000000000000000500000000000000");
  EXPECT_EQ(to_hex(encode(PromoteRequest{{21, 0, kInf, 8}, 1, 8})),
            "5152504304100000280000007ee5ac2017e8c0e5"
            "150000000000000000000000000000000000f07f080000000000000001000000"
            "0800000000000000");
  EXPECT_EQ(to_hex(encode(PromoteReply{21, RpcCode::kOk, 8, 5})),
            "51525043041100001900000051bed85be011a2ef"
            "15000000000000000008000000000000000500000000000000");
  EXPECT_EQ(to_hex(encode(RedirectReply{22, RpcCode::kNotPrimary, 8, 3})),
            "515250430412000015000000bf1c533d2e102ba9"
            "160000000000000006080000000000000003000000");
}

TEST(Wire, RejectsTruncatedFrames) {
  std::vector<std::uint8_t> frame = encode(ReserveReply{7, RpcCode::kOk, 1.0});
  // Shorter than the fixed header.
  EXPECT_EQ(decode_frame({frame.begin(), frame.begin() + 10}).status,
            DecodeStatus::kTruncated);
  // Header intact but payload short of the declared length.
  frame.pop_back();
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kTruncated);
  EXPECT_EQ(decode_frame({}).status, DecodeStatus::kTruncated);
}

TEST(Wire, RejectsBadMagicVersionTypeLengthAndTrailing) {
  const std::vector<std::uint8_t> good =
      encode(ReserveReply{7, RpcCode::kOk, 1.0});

  std::vector<std::uint8_t> frame = good;
  frame[0] = 'X';
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kBadMagic);

  frame = good;
  frame[4] = kWireVersion + 1;
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kBadVersion);

  frame = good;
  frame[5] = 0;  // below the first MessageType
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kBadType);
  frame[5] = 19;  // past the last MessageType (kRedirectReply = 18)
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kBadType);
  for (const std::uint8_t retired : {11, 12, 13}) {  // RSVP Path/Resv/Tear
    frame[5] = retired;
    EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kBadType);
  }

  frame = good;
  frame[11] = 0x01;  // declared length 0x01000019 > kMaxPayloadBytes
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kBadLength);

  frame = good;
  frame.push_back(0);
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kTrailingBytes);
}

TEST(Wire, RejectsChecksumMismatchOnAnyFlip) {
  const std::vector<std::uint8_t> good =
      encode(ReconcileRequest{{10, 3, 12.5}, 2, 4.5});
  // A flipped payload byte fails the checksum...
  std::vector<std::uint8_t> frame = good;
  frame[kHeaderSize] ^= 0x40;
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kChecksumMismatch);
  // ...and so does a flipped checksum byte itself.
  frame = good;
  frame[12] ^= 0x01;
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kChecksumMismatch);
}

TEST(Wire, RejectsMalformedPayloadFields) {
  // Reserved flags must be zero even when the checksum is consistent.
  std::vector<std::uint8_t> frame = encode(ReserveReply{7, RpcCode::kOk, 1.0});
  frame[6] = 1;
  refresh_checksum(frame);
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kMalformedPayload);

  // An out-of-range RpcCode byte is malformed, not a new code.
  frame = encode(ReserveReply{7, RpcCode::kOk, 1.0});
  frame[kHeaderSize + 8] = 99;
  refresh_checksum(frame);
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kMalformedPayload);

  // A wire boolean must be 0 or 1.
  frame = encode(ReleaseRequest{{8, 3, kInf}, 2, 0, 1.0});
  // release_all byte after the request header (28 bytes incl. the v3
  // epoch) + resource (4).
  frame[kHeaderSize + 32] = 2;
  refresh_checksum(frame);
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kMalformedPayload);

  // Shipped journal records are checked as strictly: records start after
  // the request header (28) + resource (4) + epoch (8) + seq_first (8) +
  // record count (4), and the second (a snapshot) after the first's 33
  // bytes. An unknown op byte, a snapshot name whose length runs past the
  // payload, and an oversized record count are all malformed, never an
  // out-of-bounds read or an oversized allocation.
  constexpr std::size_t kRecords = kHeaderSize + 52;
  const JournalShip ship{{20, 0, kInf, 7}, 1, 7, 3, sample_records()};
  frame = encode(ship);
  frame[kRecords] = static_cast<std::uint8_t>(JournalOp::kReplyCache) + 1;
  refresh_checksum(frame);
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kMalformedPayload);
  frame = encode(ship);
  frame[kRecords + 33 + 13 + 3] = 0x7f;  // name length after op+time+resource
  refresh_checksum(frame);
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kMalformedPayload);
  frame = encode(ship);
  frame[kRecords - 2] = 0x01;  // record count 0x10002
  refresh_checksum(frame);
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kMalformedPayload);

  // A ShipAck with an out-of-range RpcCode byte is malformed too.
  frame = encode(ShipAck{20, RpcCode::kOk, 7, 5});
  frame[kHeaderSize + 8] = 99;
  refresh_checksum(frame);
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kMalformedPayload);
}

TEST(Wire, MessageMetadataHelpers) {
  const AnyMessage request = ReserveRequest{{42, 3, kInf}, 2, 1.0, 0.0};
  const AnyMessage reply = ReserveReply{42, RpcCode::kOk, 0.0};
  EXPECT_EQ(message_type(request), MessageType::kReserveRequest);
  EXPECT_EQ(message_type(reply), MessageType::kReserveReply);
  EXPECT_EQ(request_id_of(request), 42u);
  EXPECT_EQ(request_id_of(reply), 42u);
  EXPECT_TRUE(is_request(MessageType::kQueryRequest));
  EXPECT_FALSE(is_request(MessageType::kQueryReply));
  // The tags skip the retired 11..13, so they are mapped, not indexed.
  EXPECT_EQ(message_type(QueryReply{}), MessageType::kQueryReply);
  EXPECT_EQ(message_type(JournalShip{}), MessageType::kJournalShip);
  EXPECT_EQ(message_type(RedirectReply{}), MessageType::kRedirectReply);
  EXPECT_EQ(static_cast<int>(MessageType::kJournalShip), 14);

  // The replication plane is disjoint from the broker-service plane: its
  // requests never enter the service's dedup/backpressure path.
  EXPECT_TRUE(is_replication_request(MessageType::kJournalShip));
  EXPECT_TRUE(is_replication_request(MessageType::kPromoteRequest));
  EXPECT_FALSE(is_replication_request(MessageType::kShipAck));
  EXPECT_FALSE(is_replication_request(MessageType::kReserveRequest));
  EXPECT_FALSE(is_request(MessageType::kJournalShip));
  EXPECT_FALSE(is_request(MessageType::kPromoteRequest));

  // FNV-1a 64 reference vectors (empty string = offset basis, "a").
  EXPECT_EQ(codec::fnv1a64(nullptr, 0), 14695981039346656037ull);
  const std::uint8_t a = 'a';
  EXPECT_EQ(codec::fnv1a64(&a, 1), 0xaf63dc4c8601ec8cull);
}

}  // namespace
}  // namespace qres::rpc
