// The RPC shim: the single gateway every control-plane call goes through
// (DESIGN.md §12; qres_lint rule rpc-direct-exchange bans direct
// IControlTransport::exchange calls everywhere else).
//
// The channel wraps the raw reliable-exchange primitive with:
//
//   * request ids — a deterministic per-channel counter stamped into
//     every typed request, counting up inside the id range the channel
//     claimed from its server (so channels sharing a server never
//     collide); the at-least-once retry loop re-sends under the SAME id,
//     and the BrokerService dedup cache makes redelivery idempotent;
//   * deadline propagation — a request carries an absolute deadline; the
//     channel fast-fails when the budget is already spent, truncates the
//     transport retry train so its worst-case waits fit the remaining
//     budget, and reports kDeadlineExceeded (not kTimeout) when the
//     budget — not the retry budget — was the binding constraint. The
//     server re-checks the deadline at ingress and at drain;
//   * per-peer circuit breakers — after `failure_threshold` consecutive
//     failures the peer's breaker opens and calls fast-fail (no
//     transport attempt, no RNG draws) until a cooldown passes; the
//     first call after the cooldown is a half-open probe that either
//     closes the breaker or re-opens it with a capped-exponential longer
//     cooldown. failure_threshold = 0 (default) disables the breaker
//     entirely, which keeps the shim bit-identical to the legacy direct
//     exchange;
//   * per-peer stats — calls, retries, timeouts, bytes on the wire,
//     breaker trips and state (dumped by `qresctl rpc`).
//
// Two call styles: ping() is the payload-less liveness probe (no server)
// used by the FailoverCoordinator's heartbeats; call() is the typed path
// — encode, frame faults, server, strict decode — that carries every
// SessionCoordinator round.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/ids.hpp"
#include "core/transport.hpp"
#include "rpc/frame.hpp"
#include "rpc/wire.hpp"
#include "util/annotations.hpp"
#include "util/flat_map.hpp"

namespace qres::rpc {

/// Per-peer circuit breaker configuration. The default threshold of 0
/// disables the breaker (every call goes to the transport).
struct BreakerConfig {
  int failure_threshold = 0;      ///< consecutive failures before opening
  double cooldown = 2.0;          ///< open -> half-open after this long
  double cooldown_backoff = 2.0;  ///< cooldown growth per failed probe
  double max_cooldown = 16.0;     ///< cap on the grown cooldown
};

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

const char* to_string(BreakerState state) noexcept;

/// How one shim call ended, from the caller's point of view.
enum class CallStatus : std::uint8_t {
  kOk,                ///< matching well-formed reply received
  kTimeout,           ///< transport retries (or frame rounds) exhausted
  kPeerDown,          ///< the transport reported a down host/link
  kDeadlineExceeded,  ///< the propagated deadline was the binding limit
  kBreakerOpen,       ///< fast-failed by an open circuit breaker
};

const char* to_string(CallStatus status) noexcept;

struct QRES_NODISCARD CallResult {
  CallStatus status = CallStatus::kOk;
  int transmissions = 0;  ///< transport transmissions spent
  AnyMessage reply;       ///< meaningful only when status == kOk

  bool ok() const noexcept { return status == CallStatus::kOk; }
};

/// Result of a redirect-following call (see RpcChannel::call_routed).
struct QRES_NODISCARD RoutedResult {
  CallResult result;
  HostId served_by;              ///< peer that produced result.reply
  int redirects = 0;             ///< kNotPrimary hops followed
  std::uint64_t epoch_hint = 0;  ///< epoch from the last RedirectReply

  bool ok() const noexcept { return result.ok(); }
};

struct PeerStats {
  std::uint64_t calls = 0;              ///< ping() + call() attempts
  std::uint64_t failures = 0;           ///< calls that did not end kOk
  std::uint64_t retries = 0;            ///< extra transmissions beyond one
  std::uint64_t timeouts = 0;           ///< kTimeout outcomes
  std::uint64_t peer_down = 0;          ///< kPeerDown outcomes
  std::uint64_t deadline_exceeded = 0;  ///< kDeadlineExceeded outcomes
  std::uint64_t breaker_trips = 0;      ///< closed/half-open -> open edges
  std::uint64_t breaker_fast_fails = 0; ///< calls refused while open
  std::uint64_t corrupt_rounds = 0;     ///< frame rounds with no usable reply
  std::uint64_t bytes_sent = 0;         ///< request frame bytes handed down
  std::uint64_t bytes_received = 0;     ///< reply frame bytes received
};

class RpcChannel {
 public:
  struct Config {
    /// Frame-round retry budget for call(); also the nominal policy whose
    /// waits the deadline truncation reasons about. ping() without a
    /// deadline does NOT use it (the transport's own policy applies).
    RetryPolicy policy;
    BreakerConfig breaker;
  };

  /// Any of the three collaborators may be null: no transport = lossless
  /// control plane (exchanges succeed without drawing anything), no
  /// server = ping only, no faults = clean frames. A channel with a server
  /// claims its request-id range from it here.
  RpcChannel(IControlTransport* transport, IFrameServer* server,
             IFrameFaults* faults, Config config = {});

  /// Payload-less liveness probe between two hosts: breaker gate,
  /// transport exchange (under the TRANSPORT's own retry policy when the
  /// deadline is infinite), stats.
  ExchangeResult ping(HostId from, HostId to, double now,
                      double deadline = kNoDeadline);

  /// Typed call: stamps a request id (when the header's is 0) and the
  /// default deadline (when the header's is 0), encodes, moves frames
  /// through the fault hook and the server, strictly decodes replies and
  /// matches them by request id. Retries whole frame rounds under the
  /// same id up to policy.max_attempts; the server's dedup cache makes
  /// the redelivery idempotent.
  CallResult call(HostId from, HostId to, AnyMessage request, double now);

  /// call() that follows kNotPrimary redirects (DESIGN.md §14): when the
  /// reply is a RedirectReply with a usable hint, the request is re-sent
  /// to the hinted host under the SAME request id, the ORIGINAL deadline
  /// and the redirect's epoch — never back into a retry train against
  /// the peer that just declared itself not primary (that train would
  /// burn the remaining deadline re-probing a deposed replica). Stops
  /// after `max_redirects` hops, on a hint-less redirect, or on a hint
  /// that points back at the refusing peer; the caller then re-discovers
  /// via its directory. `served_by` reports where the final reply (or
  /// final redirect) came from.
  RoutedResult call_routed(HostId from, HostId to, AnyMessage request,
                           double now, int max_redirects = 2);

  /// Next request id this channel would stamp (deterministic counter).
  std::uint64_t next_request_id() noexcept { return next_request_id_++; }

  BreakerState breaker_state(HostId peer, double now) const;

  const FlatMap<HostId, PeerStats>& peer_stats() const noexcept {
    return stats_;
  }

  IControlTransport* transport() const noexcept { return transport_; }
  IFrameServer* server() const noexcept { return server_; }

  static constexpr double kNoDeadline =
      std::numeric_limits<double>::infinity();

 private:
  struct Breaker {
    int consecutive_failures = 0;
    bool open = false;
    double open_until = 0.0;
    double current_cooldown = 0.0;
  };

  /// True when the breaker refuses this call (open, cooldown running).
  bool breaker_refuses(HostId peer, double now);
  void breaker_on_success(HostId peer);
  void breaker_on_failure(HostId peer, double now);

  /// One transport leg toward `to`. An infinite deadline uses the
  /// transport's own policy (exchange); a finite one truncates
  /// config_.policy's attempt budget to the remaining time and reports
  /// whether truncation bound the attempts.
  ExchangeResult transport_leg(HostId from, HostId to, double now,
                               double deadline, bool* truncated);

  IControlTransport* transport_;
  IFrameServer* server_;
  IFrameFaults* faults_;
  Config config_;
  std::uint64_t next_request_id_;  ///< from the server's claimed range
  FlatMap<HostId, Breaker> breakers_;
  FlatMap<HostId, PeerStats> stats_;
};

}  // namespace qres::rpc
