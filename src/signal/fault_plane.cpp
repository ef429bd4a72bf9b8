#include "signal/fault_plane.hpp"

#include <utility>

#include "util/assert.hpp"

namespace qres {

FaultPlane::FaultPlane(std::uint64_t seed, FaultConfig defaults)
    : rng_(seed), config_(defaults) {
  QRES_REQUIRE(defaults.drop_prob >= 0.0 && defaults.drop_prob <= 1.0,
               "FaultPlane: drop_prob must be in [0, 1]");
}

void FaultPlane::crash_host(HostId host, double from, double until) {
  QRES_REQUIRE(host.valid(), "FaultPlane: invalid host");
  QRES_REQUIRE(until > from, "FaultPlane: empty crash window");
  host_windows_.push_back({host.value(), from, until});
}

void FaultPlane::crash_broker(ResourceId resource, double from,
                              double until) {
  QRES_REQUIRE(resource.valid(), "FaultPlane: invalid resource");
  QRES_REQUIRE(until > from, "FaultPlane: empty broker crash window");
  for (const Window& w : broker_windows_)
    QRES_REQUIRE(w.id != resource.value() || until <= w.from ||
                     from >= w.until,
                 "FaultPlane: overlapping broker crash windows");
  broker_windows_.push_back({resource.value(), from, until});
}

bool FaultPlane::broker_up(ResourceId resource, double t) const {
  for (const Window& w : broker_windows_)
    if (resource.valid() && w.id == resource.value() && t >= w.from &&
        t < w.until)
      return false;
  return true;
}

std::vector<FaultPlane::BrokerOutage> FaultPlane::broker_outages() const {
  std::vector<BrokerOutage> outages;
  outages.reserve(broker_windows_.size());
  for (const Window& w : broker_windows_)
    outages.push_back({w.id, w.from, w.until});
  return outages;
}

bool FaultPlane::host_up(HostId host, double t) const {
  for (const Window& w : host_windows_)
    if (host.valid() && w.id == host.value() && t >= w.from && t < w.until)
      return false;
  return true;
}

ExchangeStatus FaultPlane::attempt(HostId from, HostId to, double t) {
  ++totals_.transmissions;
  if (!host_up(from, t) || !host_up(to, t)) {
    ++totals_.drops;
    return ExchangeStatus::kPeerDown;
  }
  // A zero probability draws nothing, so an all-zero plane leaves the RNG
  // stream untouched (part of the zero-fault equivalence contract).
  if (config_.drop_prob > 0.0 && rng_.bernoulli(config_.drop_prob)) {
    ++totals_.drops;
    return ExchangeStatus::kTimeout;
  }
  return ExchangeStatus::kOk;
}

void FaultPlane::set_rpc_policy(const RetryPolicy& policy) {
  QRES_REQUIRE(policy.max_attempts >= 1,
               "FaultPlane: malformed retry policy");
  rpc_policy_ = policy;
}

ExchangeResult FaultPlane::exchange(HostId from, HostId to, double now,
                                    const RetryPolicy* budget) {
  const RetryPolicy& policy = budget != nullptr ? *budget : rpc_policy_;
  QRES_REQUIRE(policy.max_attempts >= 1,
               "FaultPlane: malformed retry policy");
  ++totals_.messages;
  // The last attempt's failure cause types the whole exchange: a
  // scripted window means the peer was down; pure random loss is a
  // silent timeout.
  ExchangeStatus status = ExchangeStatus::kTimeout;
  for (int k = 0; k < policy.max_attempts; ++k) {
    status = attempt(from, to, now);
    if (status == ExchangeStatus::kOk) return {status, k + 1};
  }
  ++totals_.failed_messages;
  return {status, policy.max_attempts};
}

bool FaultPlane::reachable(HostId host, double t) const {
  return host_up(host, t);
}

void FaultPlane::set_frame_config(const rpc::FrameFaultConfig& config) {
  QRES_REQUIRE(config.corrupt_prob >= 0.0 && config.corrupt_prob <= 1.0 &&
                   config.duplicate_prob >= 0.0 &&
                   config.duplicate_prob <= 1.0 &&
                   config.reorder_prob >= 0.0 && config.reorder_prob <= 1.0,
               "FaultPlane: frame probabilities must be in [0, 1]");
  frame_config_ = config;
}

void FaultPlane::transmit_frame(
    const std::vector<std::uint8_t>& frame,
    std::vector<std::vector<std::uint8_t>>* delivered) {
  QRES_REQUIRE(delivered != nullptr, "FaultPlane: null delivery sink");
  ++frame_totals_.frames;
  // Fixed per-frame draw order: reorder gate, corrupt gate, corrupt
  // index, corrupt mask, duplicate gate. Zero probabilities draw nothing.
  const bool hold = frame_config_.reorder_prob > 0.0 &&
                    rng_.bernoulli(frame_config_.reorder_prob);
  std::vector<std::uint8_t> working = frame;
  if (frame_config_.corrupt_prob > 0.0 && !working.empty() &&
      rng_.bernoulli(frame_config_.corrupt_prob)) {
    const std::size_t index = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<int>(working.size()) - 1));
    const auto mask = static_cast<std::uint8_t>(rng_.uniform_int(1, 255));
    working[index] ^= mask;
    ++frame_totals_.corrupted;
  }
  const bool duplicate = frame_config_.duplicate_prob > 0.0 &&
                         rng_.bernoulli(frame_config_.duplicate_prob);
  if (hold) {
    // The frame is held back one slot; a previously held frame finally
    // goes out now. A duplicate copy still escapes ahead of the held
    // original (retransmission racing past it), which is exactly the
    // interleaving the at-least-once dedup has to survive.
    ++frame_totals_.held_back;
    if (held_frame_) delivered->push_back(std::move(*held_frame_));
    if (duplicate) {
      delivered->push_back(working);
      ++frame_totals_.duplicated;
    }
    held_frame_ = std::move(working);
    return;
  }
  delivered->push_back(working);
  if (duplicate) {
    delivered->push_back(working);
    ++frame_totals_.duplicated;
  }
  if (held_frame_) {  // the held frame arrives late, after this one
    delivered->push_back(std::move(*held_frame_));
    held_frame_.reset();
  }
}

void FaultPlane::flush_frames(
    std::vector<std::vector<std::uint8_t>>* delivered) {
  QRES_REQUIRE(delivered != nullptr, "FaultPlane: null delivery sink");
  if (!held_frame_) return;
  delivered->push_back(std::move(*held_frame_));
  held_frame_.reset();
}

}  // namespace qres
