// Control-plane transport abstraction.
//
// The coordination protocol (SessionCoordinator's report/dispatch rounds)
// and the FailoverCoordinator's heartbeats exchange RPC-style messages
// between proxy hosts. In the perfect-control-plane model those
// exchanges are implicit; under fault injection they cross a FaultPlane.
// This interface is what the proxy layer sees: qres_proxy cannot depend on
// qres_sim (the dependency runs the other way), so the FaultPlane
// implements IControlTransport and is attached from above.
//
// Client code does NOT call exchange() directly: every call goes through
// the RPC shim (rpc::RpcChannel), which layers request ids, deadline
// propagation, circuit breakers and per-peer stats on top of this raw
// reliable-exchange primitive (qres_lint rule rpc-direct-exchange pins
// this).
#pragma once

#include <cstdint>

#include "core/ids.hpp"
#include "util/annotations.hpp"

namespace qres {

/// Retransmission policy for reliable sends: at most `max_attempts`
/// transmissions, the k-th retransmission waiting
/// min(timeout * backoff^k, max_timeout) after the previous attempt, each
/// wait stretched by up to a factor (1 + jitter). The RPC shim budgets
/// these worst-case waits against a propagated deadline and hands the
/// transport the truncated attempt count (rpc::RpcChannel).
struct RetryPolicy {
  double timeout = 0.5;      ///< timeout before the first retransmission
  double backoff = 2.0;      ///< multiplier per further retransmission
  double max_timeout = 4.0;  ///< cap on the per-attempt timeout
  int max_attempts = 4;      ///< total transmissions before giving up
  double jitter = 0.0;       ///< relative backoff jitter in [0, jitter]
};

/// How one reliable exchange ended. Distinguishes "the retry budget
/// drowned in silent loss" (kTimeout) from "an endpoint or link was down"
/// (kPeerDown) from "the caller's deadline budget ran out before the
/// retry budget did" (kDeadlineExceeded) — three failures the legacy
/// bare-int return collapsed into one 0.
enum class ExchangeStatus : std::uint8_t {
  kOk,                ///< delivered; transmissions says at what cost
  kTimeout,           ///< every attempt lost to drops (silent loss)
  kPeerDown,          ///< an endpoint host or the link was down
  kDeadlineExceeded,  ///< deadline budget exhausted before the retry budget
};

inline const char* to_string(ExchangeStatus status) noexcept {
  switch (status) {
    case ExchangeStatus::kOk: return "ok";
    case ExchangeStatus::kTimeout: return "timeout";
    case ExchangeStatus::kPeerDown: return "peer-down";
    case ExchangeStatus::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "?";
}

/// Typed result of one reliable exchange: status plus the number of
/// transmissions actually spent (>= 1 on success; the attempts burned
/// before giving up on failure).
struct QRES_NODISCARD ExchangeResult {
  ExchangeStatus status = ExchangeStatus::kOk;
  int transmissions = 0;

  bool ok() const noexcept { return status == ExchangeStatus::kOk; }
};

class IControlTransport {
 public:
  virtual ~IControlTransport() = default;

  /// One reliable request/response exchange between two proxy hosts at
  /// simulation time `now` (retries included). `budget` is the retry
  /// policy to spend — the RPC shim passes its own policy truncated to fit
  /// a propagated deadline — or null for the transport's own default
  /// policy. A perfect transport may ignore it.
  virtual ExchangeResult exchange(HostId from, HostId to, double now,
                                  const RetryPolicy* budget) = 0;

  /// Whether `host` is up at time `t` (outside any scripted crash
  /// window).
  virtual bool reachable(HostId host, double t) const = 0;
};

}  // namespace qres
