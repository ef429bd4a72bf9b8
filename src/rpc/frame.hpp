// Frame-level fault injection interface for the typed control plane.
//
// The RPC shim (rpc::RpcChannel) moves every serialized frame — requests
// toward the service, replies back — through an optional IFrameFaults
// hook. The FaultPlane (src/signal) implements it with seeded payload
// corruption, frame duplication and hold-back reordering, which is what
// the rpc fuzz mode (tests/fuzz/rpc_fuzz.cpp) uses to prove the strict
// decoder and the at-least-once dedup keep broker accounting
// conservation-exact under storms. Without a hook frames pass through
// verbatim, preserving the zero-fault bit-identity contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace qres::rpc {

/// Per-frame fault distribution (all independent, drawn per transmitted
/// frame from the implementing plane's seeded stream; zero probabilities
/// draw nothing).
struct FrameFaultConfig {
  double corrupt_prob = 0.0;    ///< P[one byte of the frame is flipped]
  double duplicate_prob = 0.0;  ///< P[the frame is delivered twice]
  double reorder_prob = 0.0;    ///< P[the frame is held back one slot]

  bool inert() const noexcept {
    return corrupt_prob == 0.0 && duplicate_prob == 0.0 &&
           reorder_prob == 0.0;
  }
};

/// Transmits encoded frames, deciding each frame's fate. At most one
/// frame is ever held back for reordering; a held frame is delivered
/// after the next frame that passes through (or on flush_frames).
class IFrameFaults {
 public:
  virtual ~IFrameFaults() = default;

  /// Transmits one frame: appends the frames actually delivered — the
  /// (possibly corrupted) frame, a duplicate copy, and/or a previously
  /// held-back frame — to `delivered`, in delivery order. May deliver
  /// nothing (the frame was held back for reordering).
  virtual void transmit_frame(
      const std::vector<std::uint8_t>& frame,
      std::vector<std::vector<std::uint8_t>>* delivered) = 0;

  /// Force-delivers any held-back frame (end of a reordering window).
  virtual void flush_frames(
      std::vector<std::vector<std::uint8_t>>* delivered) {
    (void)delivered;
  }
};

/// Receives frames and produces reply frames — the server side of the
/// typed control plane (rpc::BrokerService). Undecodable frames produce
/// no reply (the client's at-least-once loop retransmits); the server
/// counts every typed rejection.
class IFrameServer {
 public:
  virtual ~IFrameServer() = default;

  /// Bits of request-id space each client channel owns on one server.
  static constexpr int kRequestIdRangeBits = 40;

  /// Claims a fresh request-id range for one client channel: the k-th
  /// claim (0-based) returns k << kRequestIdRangeBits, so the first
  /// channel on a server stamps 1, 2, 3, ... and channels sharing a server
  /// never collide in its dedup cache, which stays keyed by the plain id.
  std::uint64_t claim_request_id_base() noexcept {
    return next_range_.fetch_add(1, std::memory_order_relaxed)
           << kRequestIdRangeBits;
  }

  /// Handles one received frame at simulation time `now`, appending any
  /// reply frames to `replies`.
  virtual void handle_frame(
      const std::vector<std::uint8_t>& frame, double now,
      std::vector<std::vector<std::uint8_t>>* replies) = 0;

 private:
  std::atomic<std::uint64_t> next_range_{0};
};

}  // namespace qres::rpc
