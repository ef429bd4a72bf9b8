// RpcChannel tests: per-peer circuit breaker state machine (trip,
// fast-fail, half-open probe, capped cooldown backoff), deadline
// propagation and budget truncation (capped backoff and jitter included),
// request-id stamping, and the typed call path end-to-end against a real
// BrokerService.
#include "rpc/channel.hpp"

#include <gtest/gtest.h>

#include "broker/registry.hpp"
#include "rpc/broker_service.hpp"
#include "util/assert.hpp"

namespace qres::rpc {
namespace {

/// Scripted transport: fails every exchange until `healthy` flips, and
/// records how it was driven.
struct FakeTransport : IControlTransport {
  bool healthy = false;
  int exchanges = 0;
  int budgeted = 0;
  RetryPolicy last_policy;

  ExchangeResult exchange(HostId, HostId, double,
                          const RetryPolicy* budget) override {
    ++exchanges;
    if (budget != nullptr) {
      ++budgeted;
      last_policy = *budget;
    }
    if (healthy) return {ExchangeStatus::kOk, 1};
    return {ExchangeStatus::kTimeout,
            budget != nullptr ? budget->max_attempts : 3};
  }
  bool reachable(HostId, double) const override { return true; }
};

RpcChannel::Config breaker_config(int threshold) {
  RpcChannel::Config config;
  config.breaker.failure_threshold = threshold;
  config.breaker.cooldown = 2.0;
  config.breaker.cooldown_backoff = 2.0;
  config.breaker.max_cooldown = 5.0;
  return config;
}

TEST(RpcChannel, Contracts) {
  RpcChannel::Config bad;
  bad.policy.max_attempts = 0;
  EXPECT_THROW(RpcChannel(nullptr, nullptr, nullptr, bad), ContractViolation);
  bad = RpcChannel::Config{};
  bad.breaker.cooldown = 0.0;
  EXPECT_THROW(RpcChannel(nullptr, nullptr, nullptr, bad), ContractViolation);
  RpcChannel no_server(nullptr, nullptr, nullptr);
  EXPECT_THROW(
      no_server.call(HostId{0}, HostId{1},
                     ReserveRequest{{0, 1, 0.0}, 0, 1.0, 0.0}, 0.0),
      ContractViolation);
}

TEST(RpcChannel, BreakerDisabledByDefaultNeverOpens) {
  FakeTransport transport;
  RpcChannel channel(&transport, nullptr, nullptr);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(channel.ping(HostId{0}, HostId{1}, 1.0).status,
              ExchangeStatus::kTimeout);
  // Every call reached the transport; none was fast-failed.
  EXPECT_EQ(transport.exchanges, 10);
  EXPECT_EQ(channel.breaker_state(HostId{1}, 1.0), BreakerState::kClosed);
  EXPECT_EQ(channel.peer_stats().at(HostId{1}).breaker_fast_fails, 0u);
}

TEST(RpcChannel, BreakerTripsFastFailsAndRecloses) {
  FakeTransport transport;
  RpcChannel channel(&transport, nullptr, nullptr, breaker_config(2));
  const HostId peer{1};

  // Two consecutive failures trip the breaker.
  EXPECT_EQ(channel.ping(HostId{0}, peer, 0.0).status,
            ExchangeStatus::kTimeout);
  EXPECT_EQ(channel.breaker_state(peer, 0.0), BreakerState::kClosed);
  EXPECT_EQ(channel.ping(HostId{0}, peer, 0.0).status,
            ExchangeStatus::kTimeout);
  EXPECT_EQ(channel.breaker_state(peer, 0.0), BreakerState::kOpen);
  EXPECT_EQ(channel.peer_stats().at(peer).breaker_trips, 1u);

  // While open: fast-fail with zero transmissions, no transport touch.
  const int before = transport.exchanges;
  const ExchangeResult refused = channel.ping(HostId{0}, peer, 1.0);
  EXPECT_EQ(refused.status, ExchangeStatus::kTimeout);
  EXPECT_EQ(refused.transmissions, 0);
  EXPECT_EQ(transport.exchanges, before);
  EXPECT_EQ(channel.peer_stats().at(peer).breaker_fast_fails, 1u);

  // Past the cooldown the breaker is half-open and the next call probes.
  EXPECT_EQ(channel.breaker_state(peer, 2.5), BreakerState::kHalfOpen);
  transport.healthy = true;
  EXPECT_TRUE(channel.ping(HostId{0}, peer, 2.5).ok());
  EXPECT_EQ(channel.breaker_state(peer, 2.5), BreakerState::kClosed);
}

TEST(RpcChannel, FailedProbeBacksOffWithCappedCooldown) {
  FakeTransport transport;
  RpcChannel channel(&transport, nullptr, nullptr, breaker_config(1));
  const HostId peer{1};

  // Trips immediately (threshold 1).
  EXPECT_EQ(channel.ping(HostId{0}, peer, 0.0).status,
            ExchangeStatus::kTimeout);
  EXPECT_EQ(channel.breaker_state(peer, 0.0), BreakerState::kOpen);

  // Failed half-open probe at t=2: cooldown doubles to 4 (open until 6).
  EXPECT_EQ(channel.ping(HostId{0}, peer, 2.0).status,
            ExchangeStatus::kTimeout);
  EXPECT_EQ(channel.peer_stats().at(peer).breaker_trips, 2u);
  EXPECT_EQ(channel.breaker_state(peer, 5.9), BreakerState::kOpen);
  EXPECT_EQ(channel.breaker_state(peer, 6.0), BreakerState::kHalfOpen);

  // Another failed probe at t=6: cooldown would be 8, capped at 5.
  EXPECT_EQ(channel.ping(HostId{0}, peer, 6.0).status,
            ExchangeStatus::kTimeout);
  EXPECT_EQ(channel.breaker_state(peer, 10.9), BreakerState::kOpen);
  EXPECT_EQ(channel.breaker_state(peer, 11.0), BreakerState::kHalfOpen);
}

TEST(RpcChannel, SpentDeadlineFastFailsWithoutTransport) {
  FakeTransport transport;
  transport.healthy = true;
  RpcChannel channel(&transport, nullptr, nullptr);
  const ExchangeResult r = channel.ping(HostId{0}, HostId{1}, 5.0, 4.0);
  EXPECT_EQ(r.status, ExchangeStatus::kDeadlineExceeded);
  EXPECT_EQ(r.transmissions, 0);
  EXPECT_EQ(transport.exchanges, 0);
  EXPECT_EQ(channel.peer_stats().at(HostId{1}).deadline_exceeded, 1u);
}

TEST(RpcChannel, InfiniteDeadlineUsesTheTransportsOwnPolicy) {
  FakeTransport transport;
  transport.healthy = true;
  RpcChannel channel(&transport, nullptr, nullptr);
  EXPECT_TRUE(channel.ping(HostId{0}, HostId{1}, 0.0).ok());
  // No deadline: no budget handed to the transport.
  EXPECT_EQ(transport.exchanges, 1);
  EXPECT_EQ(transport.budgeted, 0);
}

TEST(RpcChannel, FiniteDeadlineTruncatesTheRetryBudget) {
  FakeTransport transport;
  RpcChannel::Config config;
  config.policy.timeout = 1.0;
  config.policy.backoff = 2.0;
  config.policy.max_timeout = 4.0;
  config.policy.max_attempts = 4;
  RpcChannel channel(&transport, nullptr, nullptr, config);

  // Budget 1.5: only the first wait (1.0) fits, so 2 attempts remain.
  const ExchangeResult r = channel.ping(HostId{0}, HostId{1}, 10.0, 11.5);
  EXPECT_EQ(transport.budgeted, 1);
  EXPECT_EQ(transport.last_policy.max_attempts, 2);
  // The deadline, not the retry budget, was the binding constraint.
  EXPECT_EQ(r.status, ExchangeStatus::kDeadlineExceeded);
  EXPECT_EQ(channel.peer_stats().at(HostId{1}).deadline_exceeded, 1u);

  // A budget wide enough for every wait is not truncated: a timeout is
  // reported as a timeout.
  EXPECT_EQ(channel.ping(HostId{0}, HostId{1}, 10.0, 100.0).status,
            ExchangeStatus::kTimeout);
  EXPECT_EQ(transport.last_policy.max_attempts, 4);
}

TEST(RpcChannel, BudgetedBackoffSaturatesExactlyAtMaxTimeout) {
  FakeTransport transport;
  RpcChannel::Config config;
  config.policy.timeout = 1.0;
  config.policy.backoff = 2.0;
  config.policy.max_timeout = 4.0;  // == timeout * backoff^2: cap hit exactly
  config.policy.max_attempts = 5;
  RpcChannel channel(&transport, nullptr, nullptr, config);

  // Waits are 1, 2, 4, 4: the third reaches the cap and the fourth stays
  // there instead of growing to 8, so a budget of exactly 11 keeps every
  // attempt and one just below it loses the last.
  EXPECT_EQ(channel.ping(HostId{0}, HostId{1}, 0.0, 11.0).status,
            ExchangeStatus::kTimeout);
  EXPECT_EQ(transport.last_policy.max_attempts, 5);
  EXPECT_EQ(channel.ping(HostId{0}, HostId{1}, 0.0, 10.5).status,
            ExchangeStatus::kDeadlineExceeded);
  EXPECT_EQ(transport.last_policy.max_attempts, 4);

  // One notch below the cap boundary the schedule still saturates:
  // waits 1, 2, 3.5, 3.5 fit into 10.
  config.policy.max_timeout = 3.5;
  RpcChannel tight(&transport, nullptr, nullptr, config);
  EXPECT_EQ(tight.ping(HostId{0}, HostId{1}, 0.0, 10.0).status,
            ExchangeStatus::kTimeout);
  EXPECT_EQ(transport.last_policy.max_attempts, 5);
}

TEST(RpcChannel, JitterWidensTheBudgetedWait) {
  FakeTransport transport;
  RpcChannel::Config config;
  config.policy.timeout = 1.0;
  config.policy.backoff = 2.0;
  config.policy.max_timeout = 4.0;
  config.policy.max_attempts = 5;
  RpcChannel plain(&transport, nullptr, nullptr, config);
  (void)plain.ping(HostId{0}, HostId{1}, 0.0, 11.0);
  EXPECT_EQ(transport.last_policy.max_attempts, 5);

  // Jitter 0.25 budgets every wait at its worst case, 1.25x: 1.25, 2.5,
  // 5, 5. The same deadline now fits one attempt fewer.
  config.policy.jitter = 0.25;
  RpcChannel jittered(&transport, nullptr, nullptr, config);
  EXPECT_EQ(jittered.ping(HostId{0}, HostId{1}, 0.0, 11.0).status,
            ExchangeStatus::kDeadlineExceeded);
  EXPECT_EQ(transport.last_policy.max_attempts, 4);
  (void)jittered.ping(HostId{0}, HostId{1}, 0.0, 13.75);
  EXPECT_EQ(transport.last_policy.max_attempts, 5);
}

TEST(RpcChannel, LoopbackSpendsNoTransportAttempt) {
  FakeTransport transport;  // would time out if touched
  RpcChannel channel(&transport, nullptr, nullptr);
  const ExchangeResult r = channel.ping(HostId{2}, HostId{2}, 0.0);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.transmissions, 0);
  EXPECT_EQ(transport.exchanges, 0);
}

TEST(RpcChannel, TypedCallStampsIdsAndDeduplicates) {
  BrokerRegistry registry;
  const ResourceId cpu =
      registry.add_resource("cpu", ResourceKind::kCpu, HostId{1}, 100.0);
  BrokerService service(&registry);
  RpcChannel channel(nullptr, &service, nullptr);

  // Ids are stamped from a deterministic counter starting at 1; an unset
  // deadline is stamped to +inf (no deadline).
  ReserveRequest request{{0, 4, 0.0}, cpu.value(), 25.0, 0.0};
  const CallResult first = channel.call(HostId{0}, HostId{1}, request, 1.0);
  ASSERT_TRUE(first.ok());
  const auto& reply = std::get<ReserveReply>(first.reply);
  EXPECT_EQ(reply.request_id, 1u);
  EXPECT_EQ(reply.code, RpcCode::kOk);
  EXPECT_EQ(registry.broker(cpu).held_by(SessionId{4}), 25.0);

  // A pre-stamped id is preserved, and redelivery of the same id is
  // answered from the dedup cache instead of reserving twice.
  ReserveRequest replay{{77, 4, 0.0}, cpu.value(), 25.0, 0.0};
  ASSERT_TRUE(channel.call(HostId{0}, HostId{1}, replay, 1.0).ok());
  const CallResult second = channel.call(HostId{0}, HostId{1}, replay, 1.0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(std::get<ReserveReply>(second.reply).request_id, 77u);
  EXPECT_EQ(registry.broker(cpu).held_by(SessionId{4}), 50.0);
  EXPECT_EQ(service.stats().duplicates, 1u);
  EXPECT_EQ(service.stats().executed, 2u);

  // Bytes flowed both ways and were accounted per peer.
  const PeerStats& stats = channel.peer_stats().at(HostId{1});
  EXPECT_EQ(stats.calls, 3u);
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_GT(stats.bytes_received, 0u);
}

TEST(RpcChannel, ChannelsSharingAServerStampDisjointIdRanges) {
  BrokerRegistry registry;
  const ResourceId cpu =
      registry.add_resource("cpu", ResourceKind::kCpu, HostId{1}, 100.0);
  BrokerService service(&registry);
  RpcChannel first(nullptr, &service, nullptr);
  RpcChannel second(nullptr, &service, nullptr);

  // The first channel on a server keeps the plain 1, 2, 3 ... ids; the
  // second counts inside its own range, so the service's dedup cache —
  // keyed by the bare id — never answers one client with another's reply.
  const ReserveRequest reserve{{0, 4, 0.0}, cpu.value(), 25.0, 0.0};
  const CallResult a = first.call(HostId{0}, HostId{1}, reserve, 1.0);
  const CallResult b = second.call(HostId{0}, HostId{1}, reserve, 1.0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(std::get<ReserveReply>(a.reply).request_id, 1u);
  EXPECT_EQ(std::get<ReserveReply>(b.reply).request_id,
            (std::uint64_t{1} << IFrameServer::kRequestIdRangeBits) + 1);
  EXPECT_EQ(registry.broker(cpu).held_by(SessionId{4}), 50.0);
  EXPECT_EQ(service.stats().executed, 2u);
  EXPECT_EQ(service.stats().duplicates, 0u);
}

TEST(RpcChannel, TypedCallRejectsNonRequests) {
  BrokerRegistry registry;
  registry.add_resource("cpu", ResourceKind::kCpu, HostId{1}, 100.0);
  BrokerService service(&registry);
  RpcChannel channel(nullptr, &service, nullptr);
  EXPECT_THROW(channel.call(HostId{0}, HostId{1},
                            ReserveReply{1, RpcCode::kOk, 0.0}, 0.0),
               ContractViolation);
}

/// Fault hook that loses every frame while `lossy` is set: the typed
/// call's rounds all end with no usable reply — exactly what a half-open
/// probe whose frame is lost in the network looks like.
struct DropAllFaults : IFrameFaults {
  bool lossy = true;
  int dropped = 0;
  void transmit_frame(
      const std::vector<std::uint8_t>& frame,
      std::vector<std::vector<std::uint8_t>>* delivered) override {
    if (lossy) {
      ++dropped;
      return;
    }
    delivered->push_back(frame);
  }
};

TEST(RpcChannel, HalfOpenProbeFrameLostReopensWithCappedCooldown) {
  // The probe's failure mode here is frame loss, not a transport error:
  // every round burns with no usable reply, the call ends kTimeout, and
  // the half-open breaker must re-open with the backed-off (and capped)
  // cooldown — same as a refused probe.
  BrokerRegistry registry;
  const ResourceId cpu =
      registry.add_resource("cpu", ResourceKind::kCpu, HostId{1}, 100.0);
  BrokerService service(&registry);
  DropAllFaults faults;
  RpcChannel channel(nullptr, &service, &faults, breaker_config(1));
  const HostId peer{1};
  const ReserveRequest request{{0, 4, 0.0}, cpu.value(), 25.0, 0.0};

  // Threshold 1: the first lost call trips the breaker (cooldown 2).
  EXPECT_EQ(channel.call(HostId{0}, peer, request, 0.0).status,
            CallStatus::kTimeout);
  EXPECT_GT(channel.peer_stats().at(peer).corrupt_rounds, 0u);
  EXPECT_EQ(channel.peer_stats().at(peer).breaker_trips, 1u);
  EXPECT_EQ(channel.breaker_state(peer, 0.0), BreakerState::kOpen);

  // While open, the typed path fast-fails without touching the server.
  const int before = faults.dropped;
  EXPECT_EQ(channel.call(HostId{0}, peer, request, 1.0).status,
            CallStatus::kBreakerOpen);
  EXPECT_EQ(faults.dropped, before);
  EXPECT_EQ(channel.peer_stats().at(peer).breaker_fast_fails, 1u);

  // Half-open at t=2; the probe's frame is lost -> cooldown doubles to 4.
  EXPECT_EQ(channel.breaker_state(peer, 2.0), BreakerState::kHalfOpen);
  EXPECT_EQ(channel.call(HostId{0}, peer, request, 2.0).status,
            CallStatus::kTimeout);
  EXPECT_EQ(channel.peer_stats().at(peer).breaker_trips, 2u);
  EXPECT_EQ(channel.breaker_state(peer, 5.9), BreakerState::kOpen);
  EXPECT_EQ(channel.breaker_state(peer, 6.0), BreakerState::kHalfOpen);

  // Another lost probe at t=6: cooldown would be 8, capped at 5.
  EXPECT_EQ(channel.call(HostId{0}, peer, request, 6.0).status,
            CallStatus::kTimeout);
  EXPECT_EQ(channel.breaker_state(peer, 10.9), BreakerState::kOpen);
  EXPECT_EQ(channel.breaker_state(peer, 11.0), BreakerState::kHalfOpen);

  // The network heals: the half-open probe goes through, executes on the
  // real broker, and recloses the breaker.
  faults.lossy = false;
  const CallResult healed = channel.call(HostId{0}, peer, request, 11.0);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(channel.breaker_state(peer, 11.0), BreakerState::kClosed);
  EXPECT_EQ(registry.broker(cpu).held_by(SessionId{4}), 25.0);
}

TEST(RpcChannel, ProbeSuccessThenImmediateFailureFlapAccounting) {
  // A successful half-open probe recloses the breaker AND resets the
  // failure streak and the cooldown backoff: the immediately following
  // failure is failure #1 of a fresh streak, and when the breaker does
  // re-trip, its window is the base cooldown again, not the backed-off
  // one from before the flap.
  BrokerRegistry registry;
  const ResourceId cpu =
      registry.add_resource("cpu", ResourceKind::kCpu, HostId{1}, 100.0);
  BrokerService service(&registry);
  DropAllFaults faults;
  RpcChannel channel(nullptr, &service, &faults, breaker_config(2));
  const HostId peer{1};
  const ReserveRequest request{{0, 4, 0.0}, cpu.value(), 10.0, 0.0};

  // Two lost calls trip (cooldown 2); a lost probe at t=2 backs off to 4.
  EXPECT_EQ(channel.call(HostId{0}, peer, request, 0.0).status,
            CallStatus::kTimeout);
  EXPECT_EQ(channel.call(HostId{0}, peer, request, 0.0).status,
            CallStatus::kTimeout);
  EXPECT_EQ(channel.peer_stats().at(peer).breaker_trips, 1u);
  EXPECT_EQ(channel.call(HostId{0}, peer, request, 2.0).status,
            CallStatus::kTimeout);
  EXPECT_EQ(channel.peer_stats().at(peer).breaker_trips, 2u);

  // Successful probe at t=6 recloses.
  faults.lossy = false;
  ASSERT_TRUE(channel.call(HostId{0}, peer, request, 6.0).ok());
  EXPECT_EQ(channel.breaker_state(peer, 6.0), BreakerState::kClosed);

  // One failure right after the flap: a fresh streak, breaker stays
  // closed (threshold 2) and the next call still reaches the server.
  faults.lossy = true;
  EXPECT_EQ(channel.call(HostId{0}, peer, request, 6.0).status,
            CallStatus::kTimeout);
  EXPECT_EQ(channel.breaker_state(peer, 6.0), BreakerState::kClosed);
  EXPECT_EQ(channel.peer_stats().at(peer).breaker_trips, 2u);
  EXPECT_EQ(channel.peer_stats().at(peer).breaker_fast_fails, 0u);

  // The second failure re-trips — with the BASE cooldown (2), so the
  // breaker is half-open at t=8, not t=10 as the stale backoff would be.
  EXPECT_EQ(channel.call(HostId{0}, peer, request, 6.0).status,
            CallStatus::kTimeout);
  EXPECT_EQ(channel.peer_stats().at(peer).breaker_trips, 3u);
  EXPECT_EQ(channel.breaker_state(peer, 7.9), BreakerState::kOpen);
  EXPECT_EQ(channel.breaker_state(peer, 8.0), BreakerState::kHalfOpen);

  // Every failure was accounted: 5 lossy calls failed, 1 succeeded, and
  // none was ever fast-failed in this flap sequence.
  const PeerStats& stats = channel.peer_stats().at(peer);
  EXPECT_EQ(stats.calls, 6u);
  EXPECT_EQ(stats.failures, 5u);
  EXPECT_EQ(stats.breaker_fast_fails, 0u);
}

TEST(RpcChannel, TypedCallHonorsTheRequestDeadline) {
  BrokerRegistry registry;
  const ResourceId cpu =
      registry.add_resource("cpu", ResourceKind::kCpu, HostId{1}, 100.0);
  BrokerService service(&registry);
  RpcChannel channel(nullptr, &service, nullptr);

  // Deadline already behind `now`: fast-fail, nothing reaches the broker.
  ReserveRequest late{{0, 4, 2.0}, cpu.value(), 25.0, 0.0};
  const CallResult r = channel.call(HostId{0}, HostId{1}, late, 3.0);
  EXPECT_EQ(r.status, CallStatus::kDeadlineExceeded);
  EXPECT_EQ(registry.broker(cpu).held_by(SessionId{4}), 0.0);
  EXPECT_EQ(service.stats().frames, 0u);
}

/// Scripted deposed primary: refuses kNotPrimary (with a configurable
/// hint) until the request carries `serving_epoch`, then grants. Records
/// the epoch of every request it saw, so tests can prove the channel
/// adopted the redirect's epoch before re-sending.
struct RedirectingServer : IFrameServer {
  std::uint64_t serving_epoch = 5;
  std::uint32_t hint = 2;        ///< primary_host hint; kInvalid = none
  bool always_redirect = false;  ///< refuse even a matching epoch
  int redirects_sent = 0;
  int grants = 0;
  std::vector<std::uint64_t> seen_epochs;

  void handle_frame(const std::vector<std::uint8_t>& frame, double,
                    std::vector<std::vector<std::uint8_t>>* replies) override {
    const Decoded decoded = decode_frame(frame);
    if (!decoded.ok()) return;
    const auto* request = std::get_if<ReserveRequest>(&decoded.message);
    if (request == nullptr) return;
    seen_epochs.push_back(request->header.epoch);
    if (always_redirect || request->header.epoch != serving_epoch) {
      ++redirects_sent;
      // Alternate the hint when asked to redirect forever, so every hop
      // points away from the current target and the hop bound (not the
      // self-hint guard) is what stops the chain.
      const std::uint32_t host =
          always_redirect ? (redirects_sent % 2 == 1 ? 2u : 3u) : hint;
      replies->push_back(encode(RedirectReply{
          request->header.request_id, RpcCode::kNotPrimary, serving_epoch,
          host}));
      return;
    }
    ++grants;
    replies->push_back(
        encode(ReserveReply{request->header.request_id, RpcCode::kOk, 75.0}));
  }
};

TEST(RpcChannel, RoutedCallFollowsRedirectUnderOneRequestId) {
  RedirectingServer server;
  RpcChannel channel(nullptr, &server, nullptr);

  // The client believes epoch 0; host 1 is deposed and points at host 2.
  ReserveRequest request{{0, 4, 0.0}, 7, 25.0, 0.0};
  const RoutedResult routed =
      channel.call_routed(HostId{0}, HostId{1}, request, 1.0);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.redirects, 1);
  EXPECT_EQ(routed.served_by, HostId{2});
  EXPECT_EQ(routed.epoch_hint, 5u);
  // One redirect, then a grant — and the second leg carried the
  // redirect's epoch, not the stale one.
  EXPECT_EQ(server.redirects_sent, 1);
  EXPECT_EQ(server.grants, 1);
  EXPECT_EQ(server.seen_epochs, (std::vector<std::uint64_t>{0u, 5u}));
  // Both legs re-sent the SAME request id (stamped once, id 1): the new
  // primary's dedup cache sees one request, not two.
  EXPECT_EQ(std::get<ReserveReply>(routed.result.reply).request_id, 1u);
  // Each hop was accounted against the peer that actually served it.
  EXPECT_EQ(channel.peer_stats().at(HostId{1}).calls, 1u);
  EXPECT_EQ(channel.peer_stats().at(HostId{2}).calls, 1u);
}

TEST(RpcChannel, RoutedCallSurfacesAHintlessRedirect) {
  RedirectingServer server;
  server.hint = HostId::kInvalid;
  RpcChannel channel(nullptr, &server, nullptr);

  ReserveRequest request{{0, 4, 0.0}, 7, 25.0, 0.0};
  const RoutedResult routed =
      channel.call_routed(HostId{0}, HostId{1}, request, 1.0);
  // The call itself succeeded — the reply is the redirect, surfaced for
  // the caller to re-discover via its directory.
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.redirects, 0);
  EXPECT_EQ(routed.served_by, HostId{1});
  EXPECT_EQ(routed.epoch_hint, 5u);
  ASSERT_TRUE(std::holds_alternative<RedirectReply>(routed.result.reply));
  EXPECT_EQ(server.redirects_sent, 1);
  EXPECT_EQ(server.grants, 0);
}

TEST(RpcChannel, RoutedCallRefusesAHintPointingBackAtTheRefuser) {
  RedirectingServer server;
  server.hint = 1;  // "the primary is... me" — a stale or confused peer
  RpcChannel channel(nullptr, &server, nullptr);

  ReserveRequest request{{0, 4, 0.0}, 7, 25.0, 0.0};
  const RoutedResult routed =
      channel.call_routed(HostId{0}, HostId{1}, request, 1.0);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.redirects, 0);
  ASSERT_TRUE(std::holds_alternative<RedirectReply>(routed.result.reply));
  // Exactly one send: following the self-hint would loop forever.
  EXPECT_EQ(server.redirects_sent, 1);
}

TEST(RpcChannel, RoutedCallBoundsTheRedirectChain) {
  RedirectingServer server;
  server.always_redirect = true;  // every peer claims someone else serves
  RpcChannel channel(nullptr, &server, nullptr);

  ReserveRequest request{{0, 4, 0.0}, 7, 25.0, 0.0};
  const RoutedResult routed =
      channel.call_routed(HostId{0}, HostId{1}, request, 1.0, 2);
  ASSERT_TRUE(routed.ok());
  // Hops 1 -> 2 -> 3, then the bound stops the chain with the final
  // redirect surfaced (3 sends, 2 followed).
  EXPECT_EQ(routed.redirects, 2);
  EXPECT_EQ(routed.served_by, HostId{3});
  ASSERT_TRUE(std::holds_alternative<RedirectReply>(routed.result.reply));
  EXPECT_EQ(server.redirects_sent, 3);
  EXPECT_EQ(server.grants, 0);
}

TEST(RpcChannel, RedirectLegsDoNotTripTheRefusersBreaker) {
  // A kNotPrimary refusal is a *successful* call — the deposed peer is
  // healthy, just not serving. It must not accumulate breaker failures.
  RedirectingServer server;
  RpcChannel channel(nullptr, &server, nullptr, breaker_config(1));

  ReserveRequest request{{0, 4, 0.0}, 7, 25.0, 0.0};
  const RoutedResult routed =
      channel.call_routed(HostId{0}, HostId{1}, request, 1.0);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.redirects, 1);
  EXPECT_EQ(channel.breaker_state(HostId{1}, 1.0), BreakerState::kClosed);
  EXPECT_EQ(channel.peer_stats().at(HostId{1}).failures, 0u);
}

TEST(RpcChannel, RoutedCallFastFailsWhenTheHintedPeersBreakerIsOpen) {
  // Re-homing is not a breaker bypass: when the hinted primary's breaker
  // is already open, the redirected leg fast-fails like any other call.
  FakeTransport transport;
  RedirectingServer server;
  RpcChannel channel(&transport, &server, nullptr, breaker_config(1));

  // Trip host 2's breaker (threshold 1) while the transport is down.
  EXPECT_EQ(channel.ping(HostId{0}, HostId{2}, 0.0).status,
            ExchangeStatus::kTimeout);
  ASSERT_EQ(channel.breaker_state(HostId{2}, 0.0), BreakerState::kOpen);
  transport.healthy = true;

  ReserveRequest request{{0, 4, 0.0}, 7, 25.0, 0.0};
  const RoutedResult routed =
      channel.call_routed(HostId{0}, HostId{1}, request, 0.5);
  EXPECT_FALSE(routed.ok());
  EXPECT_EQ(routed.result.status, CallStatus::kBreakerOpen);
  // The failure is pinned on the hinted peer, not the redirecting one.
  EXPECT_EQ(routed.served_by, HostId{2});
  EXPECT_EQ(routed.redirects, 1);
  EXPECT_EQ(channel.peer_stats().at(HostId{2}).breaker_fast_fails, 1u);
}

}  // namespace
}  // namespace qres::rpc
