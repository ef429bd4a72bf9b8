// Deterministic fault-injection plane for the simulated control plane.
//
// The coordination protocol's RPC rounds — the SessionCoordinator
// report/dispatch rounds (src/proxy/*) — and the typed RPC frames they
// carry can be routed through a FaultPlane, which decides each
// transmission's fate from a seeded RNG plus scripted outage windows:
//
//   * random message loss: each transmission attempt is dropped with
//     probability FaultConfig::drop_prob;
//   * scripted host-crash windows [from, until): a message whose endpoint
//     host is crashed at the moment of a transmission attempt is lost
//     deterministically;
//   * reliable exchanges retransmit up to RetryPolicy::max_attempts
//     times, every attempt evaluated at the exchange's own instant (the
//     rounds complete within one simulation instant); RpcChannel budgets
//     the policy's timeouts against a propagated deadline before the
//     exchange starts;
//   * scripted broker-process crash windows, kept as a schedule that a
//     BrokerSupervisor turns into crash()/restart() calls;
//   * frame-level faults for the typed RPC control plane (rpc::wire
//     frames): payload corruption (one flipped byte), frame duplication
//     and hold-back reordering, via the rpc::IFrameFaults hook the
//     RpcChannel routes every serialized frame through.
//
// Determinism: the plane draws from its own xoshiro stream in a fixed
// per-attempt order (the drop gate) and a fixed per-frame order (reorder
// gate, corrupt gate, corrupt index, corrupt mask, duplicate gate), and
// skips every draw whose probability is zero. A plane with all
// probabilities zero and no scripted windows therefore draws nothing and
// delivers every message on its first attempt — protocols behave
// identically to running without a plane (differential-tested in
// tests/fuzz/fault_fuzz.cpp and tests/fuzz/rpc_fuzz.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/ids.hpp"
#include "core/transport.hpp"
#include "rpc/frame.hpp"
#include "util/rng.hpp"

namespace qres {

/// Per-exchange message fault distribution.
struct FaultConfig {
  double drop_prob = 0.0;  ///< P[one transmission attempt is lost]
};

class FaultPlane : public IControlTransport, public rpc::IFrameFaults {
 public:
  /// The plane draws every random decision from a stream seeded with
  /// `seed`.
  explicit FaultPlane(std::uint64_t seed, FaultConfig defaults = {});

  /// Scripts a crash window [from, until) for a host: messages to or from
  /// it are lost, and protocols that poll host_up() see it down.
  void crash_host(HostId host, double from, double until);

  /// Scripts a crash window [from, until) for a *broker process* —
  /// distinct from crash_host: the host keeps exchanging messages, but the
  /// broker for this resource is down (typed BrokerUnavailable at the
  /// establishment layer, recovery-from-journal on restart). Windows for
  /// the same resource must not overlap. The plane only keeps the
  /// schedule; a BrokerSupervisor turns it into actual crash()/restart()
  /// calls on the broker objects.
  void crash_broker(ResourceId resource, double from, double until);

  bool host_up(HostId host, double t) const;
  bool broker_up(ResourceId resource, double t) const;

  /// Scripted broker outages as (resource id value, from, until), in
  /// scripting order. Consumed by BrokerSupervisor::adopt_schedule().
  struct BrokerOutage {
    std::uint32_t resource;
    double from;
    double until;
  };
  std::vector<BrokerOutage> broker_outages() const;

  /// Retry policy used when exchange() is called without a budget.
  void set_rpc_policy(const RetryPolicy& policy);

  // IControlTransport — lets the proxy-layer protocols cross the plane
  // without qres_proxy depending on qres_sim. Every attempt is evaluated
  // at `now`: kTimeout when the retry budget drowned in random drops,
  // kPeerDown when the last attempt hit a scripted host window.
  ExchangeResult exchange(HostId from, HostId to, double now,
                          const RetryPolicy* budget) override;
  bool reachable(HostId host, double t) const override;

  /// Frame-level fault distribution for the typed RPC control plane.
  void set_frame_config(const rpc::FrameFaultConfig& config);

  // rpc::IFrameFaults — seeded corruption / duplication / hold-back
  // reordering of serialized rpc::wire frames.
  void transmit_frame(const std::vector<std::uint8_t>& frame,
                      std::vector<std::vector<std::uint8_t>>* delivered)
      override;
  void flush_frames(
      std::vector<std::vector<std::uint8_t>>* delivered) override;

  /// Running totals, for benches and fuzz statistics.
  struct Totals {
    std::uint64_t messages = 0;         ///< logical messages exchanged
    std::uint64_t transmissions = 0;    ///< individual attempts
    std::uint64_t drops = 0;            ///< attempts lost (any cause)
    std::uint64_t failed_messages = 0;  ///< logical messages never through
  };
  const Totals& totals() const noexcept { return totals_; }

  /// Running frame-level totals (typed RPC control plane).
  struct FrameTotals {
    std::uint64_t frames = 0;     ///< frames transmitted
    std::uint64_t corrupted = 0;  ///< frames with a flipped byte
    std::uint64_t duplicated = 0; ///< extra frame copies delivered
    std::uint64_t held_back = 0;  ///< frames held for reordering
  };
  const FrameTotals& frame_totals() const noexcept { return frame_totals_; }

 private:
  struct Window {
    std::uint32_t id;  ///< host or resource id value
    double from;
    double until;
  };

  /// One transmission attempt at time `t`: kOk when delivered, kPeerDown
  /// when an endpoint host is crashed, kTimeout on a random drop.
  ExchangeStatus attempt(HostId from, HostId to, double t);

  Rng rng_;
  RetryPolicy rpc_policy_;
  FaultConfig config_;
  rpc::FrameFaultConfig frame_config_;
  std::vector<Window> host_windows_;
  std::vector<Window> broker_windows_;
  std::optional<std::vector<std::uint8_t>> held_frame_;
  Totals totals_;
  FrameTotals frame_totals_;
};

}  // namespace qres
