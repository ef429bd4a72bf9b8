// Pass-through decorators that time a layer from outside, through the
// public interface the layer is called by. They are installed only in
// traced rounds; each forwards every call unchanged, so a traced round
// takes exactly the decisions of an untraced one (the run checks that
// their digests agree).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "broker/journal.hpp"
#include "broker/replication.hpp"
#include "core/planner.hpp"
#include "rpc/frame.hpp"

namespace qres::e2e {

/// IPlanner decorator: one core.plan span per plan() call, carrying the
/// QRG's edge count.
class TimedPlanner final : public IPlanner {
 public:
  explicit TimedPlanner(const IPlanner& inner) : inner_(inner) {}

  PlanResult plan(const Qrg& qrg, Rng& rng) const override;
  std::string name() const override { return inner_.name(); }

 private:
  const IPlanner& inner_;
};

/// Frame hook that delivers every frame once, unchanged. A request frame
/// opens an rpc.server.<type> span when it leaves the channel; the reply
/// frame closes it when it comes back, so the span covers the service's
/// decode, queueing, execution and reply encode. One thread at a time.
class FrameProbe final : public rpc::IFrameFaults {
 public:
  void transmit_frame(
      const std::vector<std::uint8_t>& frame,
      std::vector<std::vector<std::uint8_t>>* delivered) override;

 private:
  bool open_ = false;
};

/// IJournalSink decorator: one broker.journal_append span per record,
/// carrying the record's size in the sink's line format.
class TimedJournal final : public IJournalSink {
 public:
  explicit TimedJournal(IJournalSink* inner) : inner_(inner) {}

  JournalStatus append(const JournalRecord& record) override;
  std::vector<JournalRecord> load() const override { return inner_->load(); }
  std::uint64_t appended() const override { return inner_->appended(); }

 private:
  IJournalSink* inner_;
};

/// IShipTransport that applies each batch in process, exactly as a group
/// with no transport does, inside a broker.ship span.
class ShipProbe final : public IShipTransport {
 public:
  explicit ShipProbe(ReplicatedBroker* group) : group_(group) {}

  std::optional<ShipAckInfo> ship(HostId to, const ShipBatch& batch,
                                  double now) override;

 private:
  ReplicatedBroker* group_;
};

}  // namespace qres::e2e
