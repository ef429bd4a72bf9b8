#include "rpc/channel.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/assert.hpp"

namespace qres::rpc {

namespace {

/// Worst-case wait after the k-th (1-indexed) transmission, jitter
/// included — what deadline truncation has to budget for.
double worst_case_wait(const RetryPolicy& policy, int k) {
  double timeout = policy.timeout;
  for (int i = 1; i < k; ++i)
    timeout = std::min(timeout * policy.backoff, policy.max_timeout);
  return timeout * (1.0 + std::max(0.0, policy.jitter));
}

/// Truncates the policy's attempt budget so the worst-case cumulative
/// waits before the last attempt fit into `budget`. Always allows at
/// least one attempt (the caller fast-fails a spent budget earlier).
RetryPolicy truncate_to_budget(const RetryPolicy& policy, double budget,
                               bool* truncated) {
  RetryPolicy out = policy;
  double spent = 0.0;
  int attempts = 1;
  while (attempts < policy.max_attempts) {
    spent += worst_case_wait(policy, attempts);
    if (spent > budget) break;
    ++attempts;
  }
  *truncated = attempts < policy.max_attempts;
  out.max_attempts = attempts;
  return out;
}

CallStatus to_call_status(ExchangeStatus status) noexcept {
  switch (status) {
    case ExchangeStatus::kOk: return CallStatus::kOk;
    case ExchangeStatus::kTimeout: return CallStatus::kTimeout;
    case ExchangeStatus::kPeerDown: return CallStatus::kPeerDown;
    case ExchangeStatus::kDeadlineExceeded:
      return CallStatus::kDeadlineExceeded;
  }
  return CallStatus::kTimeout;
}

/// Stamps the request id and deadline into a request's header.
void stamp_header(AnyMessage& request, std::uint64_t id, double deadline) {
  std::visit(
      [&](auto& m) {
        if constexpr (requires { m.header; }) {
          if (m.header.request_id == 0) m.header.request_id = id;
          if (m.header.deadline == 0.0) m.header.deadline = deadline;
        } else {
          if (m.request_id == 0) m.request_id = id;
        }
      },
      request);
}

double deadline_of(const AnyMessage& request) {
  return std::visit(
      [](const auto& m) -> double {
        if constexpr (requires { m.header; })
          return m.header.deadline;
        else
          return RpcChannel::kNoDeadline;
      },
      request);
}

}  // namespace

const char* to_string(BreakerState state) noexcept {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

const char* to_string(CallStatus status) noexcept {
  switch (status) {
    case CallStatus::kOk: return "ok";
    case CallStatus::kTimeout: return "timeout";
    case CallStatus::kPeerDown: return "peer-down";
    case CallStatus::kDeadlineExceeded: return "deadline-exceeded";
    case CallStatus::kBreakerOpen: return "breaker-open";
  }
  return "?";
}

RpcChannel::RpcChannel(IControlTransport* transport, IFrameServer* server,
                       IFrameFaults* faults, Config config)
    : transport_(transport),
      server_(server),
      faults_(faults),
      config_(config),
      next_request_id_(
          (server != nullptr ? server->claim_request_id_base() : 0) + 1) {
  QRES_REQUIRE(config.policy.max_attempts >= 1,
               "RpcChannel: malformed retry policy");
  QRES_REQUIRE(config.breaker.failure_threshold >= 0 &&
                   config.breaker.cooldown > 0.0 &&
                   config.breaker.cooldown_backoff >= 1.0 &&
                   config.breaker.max_cooldown >= config.breaker.cooldown,
               "RpcChannel: malformed breaker config");
}

BreakerState RpcChannel::breaker_state(HostId peer, double now) const {
  const auto it = breakers_.find(peer);
  if (it == breakers_.end() || !it->second.open) return BreakerState::kClosed;
  return now < it->second.open_until ? BreakerState::kOpen
                                     : BreakerState::kHalfOpen;
}

bool RpcChannel::breaker_refuses(HostId peer, double now) {
  if (config_.breaker.failure_threshold == 0) return false;
  const auto it = breakers_.find(peer);
  if (it == breakers_.end() || !it->second.open) return false;
  // Past the cooldown the call proceeds as the half-open probe.
  return now < it->second.open_until;
}

void RpcChannel::breaker_on_success(HostId peer) {
  if (config_.breaker.failure_threshold == 0) return;
  Breaker& b = breakers_[peer];
  b.consecutive_failures = 0;
  b.open = false;
}

void RpcChannel::breaker_on_failure(HostId peer, double now) {
  if (config_.breaker.failure_threshold == 0) return;
  Breaker& b = breakers_[peer];
  PeerStats& stats = stats_[peer];
  if (b.open) {
    // A failed half-open probe: re-open with a longer (capped) cooldown.
    b.current_cooldown = std::min(
        b.current_cooldown * config_.breaker.cooldown_backoff,
        config_.breaker.max_cooldown);
    b.open_until = now + b.current_cooldown;
    ++stats.breaker_trips;
    return;
  }
  if (++b.consecutive_failures >= config_.breaker.failure_threshold) {
    b.open = true;
    b.current_cooldown = config_.breaker.cooldown;
    b.open_until = now + b.current_cooldown;
    ++stats.breaker_trips;
  }
}

ExchangeResult RpcChannel::transport_leg(HostId from, HostId to, double now,
                                         double deadline, bool* truncated) {
  *truncated = false;
  // Loopback (from == to) spends no transport attempt: a coordinator
  // talking to its own host never crossed the network before the shim
  // existed either.
  if (transport_ == nullptr || from == to) return {ExchangeStatus::kOk, 0};
  if (std::isinf(deadline) && deadline > 0.0)
    // No deadline: the transport's own policy applies.
    return transport_->exchange(from, to, now, nullptr);
  const RetryPolicy policy =
      truncate_to_budget(config_.policy, deadline - now, truncated);
  return transport_->exchange(from, to, now, &policy);
}

ExchangeResult RpcChannel::ping(HostId from, HostId to, double now,
                                double deadline) {
  PeerStats& stats = stats_[to];
  ++stats.calls;
  if (breaker_refuses(to, now)) {
    ++stats.breaker_fast_fails;
    ++stats.failures;
    return {ExchangeStatus::kTimeout, 0};
  }
  if (!(now <= deadline)) {
    ++stats.deadline_exceeded;
    ++stats.failures;
    return {ExchangeStatus::kDeadlineExceeded, 0};
  }
  bool truncated = false;
  ExchangeResult result = transport_leg(from, to, now, deadline, &truncated);
  if (result.transmissions > 1) stats.retries += result.transmissions - 1;
  if (result.ok()) {
    breaker_on_success(to);
    return result;
  }
  // The deadline, not the retry budget, bound a truncated train.
  if (truncated && result.status == ExchangeStatus::kTimeout)
    result.status = ExchangeStatus::kDeadlineExceeded;
  switch (result.status) {
    case ExchangeStatus::kTimeout: ++stats.timeouts; break;
    case ExchangeStatus::kPeerDown: ++stats.peer_down; break;
    case ExchangeStatus::kDeadlineExceeded:
      ++stats.deadline_exceeded;
      break;
    case ExchangeStatus::kOk: break;
  }
  ++stats.failures;
  breaker_on_failure(to, now);
  return result;
}

CallResult RpcChannel::call(HostId from, HostId to, AnyMessage request,
                            double now) {
  QRES_REQUIRE(server_ != nullptr, "RpcChannel::call: no frame server");
  QRES_REQUIRE(is_request(message_type(request)) ||
                   is_replication_request(message_type(request)),
               "RpcChannel::call: not a request message");
  stamp_header(request, next_request_id(), kNoDeadline);
  const double deadline = deadline_of(request);
  const std::uint64_t id = request_id_of(request);

  PeerStats& stats = stats_[to];
  ++stats.calls;
  if (breaker_refuses(to, now)) {
    ++stats.breaker_fast_fails;
    ++stats.failures;
    return {CallStatus::kBreakerOpen, 0, {}};
  }
  if (!(now <= deadline)) {
    ++stats.deadline_exceeded;
    ++stats.failures;
    return {CallStatus::kDeadlineExceeded, 0, {}};
  }

  const std::vector<std::uint8_t> frame = encode(request);
  CallResult result;
  // At-least-once frame rounds: every round re-sends the SAME request id,
  // so a round whose reply was lost to corruption redelivers and the
  // server's dedup cache answers idempotently.
  for (int round = 0; round < config_.policy.max_attempts; ++round) {
    bool truncated = false;
    const ExchangeResult leg =
        transport_leg(from, to, now, deadline, &truncated);
    result.transmissions += leg.transmissions;
    if (leg.transmissions > 1) stats.retries += leg.transmissions - 1;
    if (!leg.ok()) {
      ExchangeStatus status = leg.status;
      if (truncated && status == ExchangeStatus::kTimeout)
        status = ExchangeStatus::kDeadlineExceeded;
      result.status = to_call_status(status);
      switch (result.status) {
        case CallStatus::kTimeout: ++stats.timeouts; break;
        case CallStatus::kPeerDown: ++stats.peer_down; break;
        case CallStatus::kDeadlineExceeded:
          ++stats.deadline_exceeded;
          break;
        case CallStatus::kOk:
        case CallStatus::kBreakerOpen:
          // kOk cannot reach the failure path; breaker fast-fails are
          // counted where the breaker rejects the call.
          break;
      }
      ++stats.failures;
      breaker_on_failure(to, now);
      return result;
    }

    // Request frames down through the fault hook to the server...
    std::vector<std::vector<std::uint8_t>> raw_replies;
    if (faults_ != nullptr) {
      std::vector<std::vector<std::uint8_t>> delivered;
      faults_->transmit_frame(frame, &delivered);
      for (const auto& f : delivered) {
        stats.bytes_sent += f.size();
        server_->handle_frame(f, now, &raw_replies);
      }
    } else {
      stats.bytes_sent += frame.size();
      server_->handle_frame(frame, now, &raw_replies);
    }
    // ...and reply frames back up through the same hook.
    std::vector<std::vector<std::uint8_t>> replies;
    if (faults_ != nullptr) {
      for (const auto& f : raw_replies) faults_->transmit_frame(f, &replies);
    } else {
      replies = std::move(raw_replies);
    }
    for (const auto& reply_frame : replies) {
      stats.bytes_received += reply_frame.size();
      const Decoded decoded = decode_frame(reply_frame);
      if (!decoded.ok()) continue;
      if (is_request(message_type(decoded.message))) continue;
      if (request_id_of(decoded.message) != id) continue;
      result.status = CallStatus::kOk;
      result.reply = decoded.message;
      breaker_on_success(to);
      return result;
    }
    // No usable reply this round (corrupted, held back, or mismatched):
    // go around again under the same request id.
    ++stats.corrupt_rounds;
  }
  result.status = CallStatus::kTimeout;
  ++stats.timeouts;
  ++stats.failures;
  breaker_on_failure(to, now);
  return result;
}

RoutedResult RpcChannel::call_routed(HostId from, HostId to,
                                     AnyMessage request, double now,
                                     int max_redirects) {
  // Stamp here so every hop re-sends the SAME request id (call() only
  // stamps zeros, so the id and original deadline survive the hops).
  stamp_header(request, next_request_id(), kNoDeadline);
  RoutedResult routed;
  routed.served_by = to;
  int transmissions = 0;
  for (;;) {
    CallResult leg = call(from, to, request, now);
    transmissions += leg.transmissions;
    routed.result = std::move(leg);
    routed.served_by = to;
    if (!routed.result.ok()) break;
    const auto* redirect = std::get_if<RedirectReply>(&routed.result.reply);
    if (redirect == nullptr) break;
    routed.epoch_hint = redirect->epoch;
    const HostId hint{redirect->primary_host};
    // A hint-less redirect or one pointing back at the refuser cannot be
    // followed — surface the redirect so the caller re-discovers.
    if (routed.redirects >= max_redirects || !hint.valid() || hint == to)
      break;
    // Adopt the redirect's epoch: re-sending the stale one would bounce
    // off the new primary's fence too.
    std::visit(
        [&](auto& m) {
          if constexpr (requires { m.header.epoch; })
            m.header.epoch = redirect->epoch;
        },
        request);
    to = hint;
    ++routed.redirects;
  }
  routed.result.transmissions = transmissions;
  return routed;
}

}  // namespace qres::rpc
