// Typed-RPC control-plane fuzzing (see DESIGN.md §12).
//
// Complements fault_fuzz.* (which fuzzes the raw transport's message
// trains): each iteration derives everything from a single seed and
// proves the typed wire layer safe and behavior-preserving:
//
//   * codec round-trips: every message type with randomized fields
//     (JournalShip with one random journal record of every op, plus one
//     batch holding a snapshot with more than kMaxVectorEntries
//     holdings) encodes -> decodes to an equal value and re-encodes
//     bit-identically;
//   * strict rejection: EVERY single-byte flip of a valid frame fails to
//     decode (the checksum covers the header prefix and the payload), and
//     every strict prefix / trailing-byte extension is rejected as a
//     typed DecodeStatus — never UB, never a partial message;
//   * corruption/duplication/reorder storms: random Reserve / Release /
//     Renew / Reconcile / Query calls cross a frame-level fault plane;
//     at-least-once retries reuse the SAME request id, so the service's
//     dedup cache must keep execution exactly-once — an independent
//     client-side ledger must match broker holdings exactly at the end;
//   * backpressure: with auto_drain off and a tiny execution queue,
//     overflowing posts fast-reject with typed kBackpressure replies and
//     drain_all() later executes exactly the queued prefix.
//
// Test-framework-free like the other fuzz libraries: links into
// tools/qres_fuzz (--mode rpc) for long sanitizer runs and into the
// bounded gtest smoke. Reproduce one failing iteration with
// `qres_fuzz --mode rpc --repro-seed <seed>`.
#pragma once

#include <cstdint>
#include <string>

namespace qres::fuzz {

/// Tallies of what the rpc iterations actually exercised.
struct RpcFuzzStats {
  std::uint64_t messages_roundtripped = 0;  ///< encode/decode round-trips
  std::uint64_t flips_rejected = 0;         ///< single-byte flips rejected
  std::uint64_t truncations_rejected = 0;   ///< prefixes/extensions rejected
  std::uint64_t storm_calls = 0;            ///< calls under the frame storm
  std::uint64_t storm_retries = 0;          ///< same-id re-calls needed
  std::uint64_t frames_corrupted = 0;       ///< frames the storm corrupted
  std::uint64_t frames_duplicated = 0;      ///< frames the storm duplicated
  std::uint64_t frames_reordered = 0;       ///< frames held back
  std::uint64_t dedup_replays = 0;          ///< served from the dedup cache
  std::uint64_t backpressure_rejects = 0;   ///< typed kBackpressure replies
  std::uint64_t conservation_checks = 0;    ///< ledger-vs-broker equalities

  void merge(const RpcFuzzStats& o) {
    messages_roundtripped += o.messages_roundtripped;
    flips_rejected += o.flips_rejected;
    truncations_rejected += o.truncations_rejected;
    storm_calls += o.storm_calls;
    storm_retries += o.storm_retries;
    frames_corrupted += o.frames_corrupted;
    frames_duplicated += o.frames_duplicated;
    frames_reordered += o.frames_reordered;
    dedup_replays += o.dedup_replays;
    backpressure_rejects += o.backpressure_rejects;
    conservation_checks += o.conservation_checks;
  }
};

/// Runs one full rpc iteration for `seed`; empty string = pass, anything
/// else is a failure description prefixed with the seed.
std::string run_rpc_iteration(std::uint64_t seed, RpcFuzzStats* stats);

}  // namespace qres::fuzz
