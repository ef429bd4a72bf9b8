// Deterministic fault-injection plane for the simulated control plane.
//
// Every protocol message of the runtime — RSVP Path/Resv/Tear trains
// (src/signal/rsvp.*), the SessionCoordinator report/dispatch rounds and
// the DistributedSession forward/backward/reserve passes (src/proxy/*) —
// can be routed through a FaultPlane, which decides each transmission's
// fate from a seeded RNG plus scripted outage windows:
//
//   * random per-edge faults: drop / duplicate / extra delay, with an
//     optional per-link override of the default distribution;
//   * scripted host-crash and link-down windows [from, until): a message
//     whose endpoint host is crashed or whose link is down at the moment
//     of a transmission attempt is lost deterministically;
//   * reliable sends retransmit with capped exponential backoff and give
//     up after a bounded number of attempts (RetryPolicy); the plan of a
//     whole retransmission train is computed eagerly (attempt times are
//     known in advance and window schedules are scripted), so one logical
//     message costs one scheduled event regardless of how many
//     retransmissions it needed;
//   * frame-level faults for the typed RPC control plane (rpc::wire
//     frames): payload corruption (one flipped byte), frame duplication
//     and hold-back reordering, via the rpc::IFrameFaults hook the
//     RpcChannel routes every serialized frame through.
//
// Determinism: the plane draws from its own xoshiro stream in a fixed
// per-attempt order (drop, delay gate, delay value, duplicate gate,
// duplicate offset, backoff jitter) and a fixed per-frame order (reorder
// gate, corrupt gate, corrupt index, corrupt mask, duplicate gate), and
// skips every draw whose probability is zero. A plane with all
// probabilities zero and no scripted windows therefore draws nothing and
// delivers every message after exactly its nominal latency — protocols
// behave identically to running without a plane (differential-tested in
// tests/fuzz/fault_fuzz.cpp and tests/fuzz/rpc_fuzz.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/ids.hpp"
#include "core/transport.hpp"
#include "core/event_queue.hpp"
#include "rpc/frame.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace qres {

/// Per-edge message fault distribution.
struct FaultConfig {
  double drop_prob = 0.0;       ///< P[one transmission attempt is lost]
  double duplicate_prob = 0.0;  ///< P[a delivered message arrives twice]
  double delay_prob = 0.0;      ///< P[a delivered message is delayed]
  double delay_max = 0.0;       ///< extra delay ~ U(0, delay_max)

  bool inert() const noexcept {
    return drop_prob == 0.0 && duplicate_prob == 0.0 && delay_prob == 0.0;
  }
};

// RetryPolicy lives in core/transport.hpp (shared with the RPC shim's
// deadline-budget truncation).

/// Why a (reliable) message ultimately failed to get through.
enum class DeliveryFailure : std::uint8_t {
  kDropped,   ///< every attempt lost to random drops (silent loss)
  kLinkDown,  ///< the link was inside a scripted down window
  kHostDown,  ///< an endpoint host was inside a scripted crash window
};

class FaultPlane : public IControlTransport, public rpc::IFrameFaults {
 public:
  /// The plane schedules deliveries on `queue` and draws every random
  /// decision from a stream seeded with `seed`.
  FaultPlane(EventQueue* queue, std::uint64_t seed,
             FaultConfig defaults = {});

  void set_default_config(const FaultConfig& config);
  /// Overrides the fault distribution for one specific link.
  void set_link_config(LinkId link, const FaultConfig& config);

  /// Scripts a crash window [from, until) for a host: messages to or from
  /// it are lost, and protocols that poll host_up() see it down.
  void crash_host(HostId host, double from, double until);
  /// Scripts a down window [from, until) for a link.
  void link_down(LinkId link, double from, double until);

  /// Scripts a crash window [from, until) for a *broker process* —
  /// distinct from crash_host: the host keeps exchanging messages, but the
  /// broker for this resource is down (typed BrokerUnavailable at the
  /// establishment layer, recovery-from-journal on restart). Windows for
  /// the same resource must not overlap. The plane only keeps the
  /// schedule; a BrokerSupervisor turns it into actual crash()/restart()
  /// calls on the broker objects.
  void crash_broker(ResourceId resource, double from, double until);

  bool host_up(HostId host, double t) const;
  bool link_up(LinkId link, double t) const;
  bool broker_up(ResourceId resource, double t) const;

  /// Scripted broker outages as (resource id value, from, until), in
  /// scripting order. Consumed by BrokerSupervisor::adopt_schedule().
  struct BrokerOutage {
    std::uint32_t resource;
    double from;
    double until;
  };
  std::vector<BrokerOutage> broker_outages() const;

  /// The computed fate of one logical message (with retransmissions).
  struct MessagePlan {
    bool delivered = false;
    /// Failure cause of the last attempt (meaningful when !delivered).
    DeliveryFailure failure = DeliveryFailure::kDropped;
    /// Delivery time when delivered; the sender's give-up time (last
    /// attempt + its timeout) when not.
    double at = 0.0;
    int attempts = 1;  ///< transmissions used (>= 1)
    bool duplicate = false;
    double duplicate_at = 0.0;  ///< second copy's delivery time
  };

  /// Plans one reliable message sent at `now` across `link` (or a direct
  /// host-to-host control edge when `link` is empty) from `from` to `to`,
  /// taking `latency` per attempt to propagate. Attempt k is evaluated at
  /// its own (precomputed) transmission time, so a scripted window that
  /// opens or closes mid-train is honored. The caller schedules the
  /// delivery; nothing is scheduled here.
  MessagePlan plan_message(std::optional<LinkId> link, HostId from,
                           HostId to, double now, double latency,
                           const RetryPolicy& policy);

  /// Synchronous fate of one logical message between two hosts for the
  /// RPC-style protocols that complete within one simulation instant
  /// (SessionCoordinator / DistributedSession rounds): every attempt is
  /// evaluated at `now`. kTimeout when the retry budget drowned in random
  /// drops, kPeerDown when the last attempt hit a scripted host or link
  /// window.
  ExchangeResult try_message(HostId from, HostId to, double now,
                             const RetryPolicy& policy);

  /// Retry policy used by the IControlTransport implementation (the
  /// coordination-protocol RPC rounds).
  void set_rpc_policy(const RetryPolicy& policy);

  // IControlTransport — lets the proxy-layer protocols cross the plane
  // without qres_proxy depending on qres_sim.
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
    std::uint64_t messages = 0;         ///< logical messages planned
    std::uint64_t transmissions = 0;    ///< individual attempts
    std::uint64_t drops = 0;            ///< attempts lost (any cause)
    std::uint64_t duplicates = 0;       ///< extra copies delivered
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

  EventQueue* queue() const noexcept { return queue_; }

 private:
  struct Window {
    std::uint32_t id;  ///< host or link id value
    double from;
    double until;
  };

  /// One transmission attempt at time `t`; returns delivered, and the
  /// failure cause through `why` when lost.
  bool attempt(const FaultConfig& config, std::optional<LinkId> link,
               HostId from, HostId to, double t, DeliveryFailure* why);
  const FaultConfig& config_for(std::optional<LinkId> link) const;

  EventQueue* queue_;
  Rng rng_;
  RetryPolicy rpc_policy_;
  FaultConfig default_config_;
  rpc::FrameFaultConfig frame_config_;
  FlatMap<LinkId, FaultConfig> link_configs_;
  std::vector<Window> host_windows_;
  std::vector<Window> link_windows_;
  std::vector<Window> broker_windows_;
  std::optional<std::vector<std::uint8_t>> held_frame_;
  Totals totals_;
  FrameTotals frame_totals_;
};

}  // namespace qres
