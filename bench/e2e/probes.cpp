#include "probes.hpp"

#include <optional>

#include "rpc/wire.hpp"
#include "trace.hpp"

namespace qres::e2e {

namespace {

/// The server span a request frame opens; none for replies and for
/// request types the establishment path does not send.
std::optional<SpanName> server_span(rpc::MessageType type) {
  switch (type) {
    case rpc::MessageType::kQueryRequest: return SpanName::kServerQuery;
    case rpc::MessageType::kReserveRequest: return SpanName::kServerReserve;
    case rpc::MessageType::kReleaseRequest: return SpanName::kServerRelease;
    default: return std::nullopt;
  }
}

}  // namespace

PlanResult TimedPlanner::plan(const Qrg& qrg, Rng& rng) const {
  Span span(SpanName::kCorePlan);
  span.set_count(qrg.edge_count());
  return inner_.plan(qrg, rng);
}

void FrameProbe::transmit_frame(
    const std::vector<std::uint8_t>& frame,
    std::vector<std::vector<std::uint8_t>>* delivered) {
  if (open_) {
    end_span();
    open_ = false;
  }
  delivered->push_back(frame);
  // Byte 5 of every frame is its MessageType (rpc/wire.hpp layout).
  if (frame.size() <= 5) return;
  const std::optional<SpanName> name =
      server_span(static_cast<rpc::MessageType>(frame[5]));
  if (!name) return;
  begin_span(*name);
  open_ = true;
}

JournalStatus TimedJournal::append(const JournalRecord& record) {
  const std::size_t bytes = to_line(record).size() + 1;  // line + newline
  Span span(SpanName::kJournalAppend);
  span.set_count(bytes);
  return inner_->append(record);
}

std::optional<ShipAckInfo> ShipProbe::ship(HostId to, const ShipBatch& batch,
                                           double now) {
  Span span(SpanName::kShip);
  return group_->apply_ship(to, batch, now);
}

}  // namespace qres::e2e
