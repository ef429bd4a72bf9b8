#include "signal/fault_plane.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace qres {

FaultPlane::FaultPlane(EventQueue* queue, std::uint64_t seed,
                       FaultConfig defaults)
    : queue_(queue), rng_(seed), default_config_(defaults) {
  QRES_REQUIRE(queue != nullptr, "FaultPlane: null event queue");
  set_default_config(defaults);
}

namespace {

void require_valid(const FaultConfig& config) {
  QRES_REQUIRE(config.drop_prob >= 0.0 && config.drop_prob <= 1.0 &&
                   config.duplicate_prob >= 0.0 &&
                   config.duplicate_prob <= 1.0 &&
                   config.delay_prob >= 0.0 && config.delay_prob <= 1.0,
               "FaultPlane: probabilities must be in [0, 1]");
  QRES_REQUIRE(config.delay_max >= 0.0,
               "FaultPlane: delay_max must be non-negative");
}

}  // namespace

void FaultPlane::set_default_config(const FaultConfig& config) {
  require_valid(config);
  default_config_ = config;
}

void FaultPlane::set_link_config(LinkId link, const FaultConfig& config) {
  QRES_REQUIRE(link.valid(), "FaultPlane: invalid link");
  require_valid(config);
  link_configs_[link] = config;
}

void FaultPlane::crash_host(HostId host, double from, double until) {
  QRES_REQUIRE(host.valid(), "FaultPlane: invalid host");
  QRES_REQUIRE(until > from, "FaultPlane: empty crash window");
  host_windows_.push_back({host.value(), from, until});
}

void FaultPlane::link_down(LinkId link, double from, double until) {
  QRES_REQUIRE(link.valid(), "FaultPlane: invalid link");
  QRES_REQUIRE(until > from, "FaultPlane: empty down window");
  link_windows_.push_back({link.value(), from, until});
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

bool FaultPlane::link_up(LinkId link, double t) const {
  for (const Window& w : link_windows_)
    if (link.valid() && w.id == link.value() && t >= w.from && t < w.until)
      return false;
  return true;
}

const FaultConfig& FaultPlane::config_for(
    std::optional<LinkId> link) const {
  if (link) {
    const auto it = link_configs_.find(*link);
    if (it != link_configs_.end()) return it->second;
  }
  return default_config_;
}

bool FaultPlane::attempt(const FaultConfig& config,
                         std::optional<LinkId> link, HostId from, HostId to,
                         double t, DeliveryFailure* why) {
  ++totals_.transmissions;
  if (!host_up(from, t) || !host_up(to, t)) {
    ++totals_.drops;
    *why = DeliveryFailure::kHostDown;
    return false;
  }
  if (link && !link_up(*link, t)) {
    ++totals_.drops;
    *why = DeliveryFailure::kLinkDown;
    return false;
  }
  // Zero probabilities draw nothing, so an all-zero plane leaves the RNG
  // stream untouched (part of the zero-fault equivalence contract).
  if (config.drop_prob > 0.0 && rng_.bernoulli(config.drop_prob)) {
    ++totals_.drops;
    *why = DeliveryFailure::kDropped;
    return false;
  }
  return true;
}

FaultPlane::MessagePlan FaultPlane::plan_message(std::optional<LinkId> link,
                                                 HostId from, HostId to,
                                                 double now, double latency,
                                                 const RetryPolicy& policy) {
  QRES_REQUIRE(latency >= 0.0, "FaultPlane: negative latency");
  QRES_REQUIRE(policy.max_attempts >= 1 && policy.timeout > 0.0 &&
                   policy.backoff >= 1.0 &&
                   policy.max_timeout >= policy.timeout,
               "FaultPlane: malformed retry policy");
  ++totals_.messages;
  const FaultConfig& config = config_for(link);

  MessagePlan plan;
  double attempt_time = now;
  double timeout = policy.timeout;
  for (int k = 0; k < policy.max_attempts; ++k) {
    plan.attempts = k + 1;
    DeliveryFailure why = DeliveryFailure::kDropped;
    if (attempt(config, link, from, to, attempt_time, &why)) {
      double extra = 0.0;
      if (config.delay_prob > 0.0 && rng_.bernoulli(config.delay_prob))
        extra = rng_.uniform(0.0, config.delay_max);
      plan.delivered = true;
      plan.at = attempt_time + latency + extra;
      if (config.duplicate_prob > 0.0 &&
          rng_.bernoulli(config.duplicate_prob)) {
        plan.duplicate = true;
        // The copy straggles behind the original by up to one delay_max
        // (or one latency when no delay distribution is configured).
        const double straggle =
            config.delay_max > 0.0 ? config.delay_max : latency;
        plan.duplicate_at = plan.at + rng_.uniform(0.0, straggle);
        ++totals_.duplicates;
      }
      return plan;
    }
    plan.failure = why;
    // A positive jitter stretches this wait by U(1, 1 + jitter); zero
    // jitter draws nothing (zero-fault equivalence contract).
    double wait = timeout;
    if (policy.jitter > 0.0)
      wait *= 1.0 + rng_.uniform(0.0, policy.jitter);
    plan.at = attempt_time + wait;  // give-up time if this was the last
    attempt_time += wait;
    timeout = std::min(timeout * policy.backoff, policy.max_timeout);
  }
  ++totals_.failed_messages;
  return plan;
}

void FaultPlane::set_rpc_policy(const RetryPolicy& policy) {
  QRES_REQUIRE(policy.max_attempts >= 1,
               "FaultPlane: malformed retry policy");
  rpc_policy_ = policy;
}

ExchangeResult FaultPlane::exchange(HostId from, HostId to, double now,
                                    const RetryPolicy* budget) {
  return try_message(from, to, now, budget != nullptr ? *budget : rpc_policy_);
}

bool FaultPlane::reachable(HostId host, double t) const {
  return host_up(host, t);
}

ExchangeResult FaultPlane::try_message(HostId from, HostId to, double now,
                                       const RetryPolicy& policy) {
  QRES_REQUIRE(policy.max_attempts >= 1,
               "FaultPlane: malformed retry policy");
  ++totals_.messages;
  const FaultConfig& config = config_for(std::nullopt);
  DeliveryFailure why = DeliveryFailure::kDropped;
  for (int k = 0; k < policy.max_attempts; ++k)
    if (attempt(config, std::nullopt, from, to, now, &why))
      return {ExchangeStatus::kOk, k + 1};
  ++totals_.failed_messages;
  // The last attempt's failure cause types the whole exchange: scripted
  // windows mean the peer (or its link) was down; pure random loss is a
  // silent timeout.
  const ExchangeStatus status = why == DeliveryFailure::kDropped
                                    ? ExchangeStatus::kTimeout
                                    : ExchangeStatus::kPeerDown;
  return {status, policy.max_attempts};
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
