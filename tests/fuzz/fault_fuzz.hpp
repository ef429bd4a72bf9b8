// Fault-schedule fuzzing for the self-healing runtime (see DESIGN.md
// "Fault model").
//
// Complements fuzz_lib.* (planner/broker invariants): each iteration
// derives a random fault schedule — a per-exchange drop probability plus
// scripted host-crash windows — from a single seed and drives the
// fault-tolerant coordinator protocols through it:
//
//   * zero-fault differential: with every fault probability zero and no
//     scripted windows, a coordinator attached to a BrokerService over
//     the inert plane must behave *identically* to one on its private
//     loopback (outcomes, plans, holdings, RPC accounting, teardowns,
//     broker availability — exact equality);
//   * faulted coordinator runs: leased establishments with recovery
//     (EstablishPolicy::max_replans) under RPC loss and proxy crashes,
//     renewed by a LeaseKeeper; the auditor proves broker accounting
//     matches the model at every audit point, and that after the final
//     lease horizon not one unit of capacity is leaked — lost rollback
//     and teardown releases included.
//
// Like fuzz_lib, this library is test-framework-free: it links into the
// qres_fuzz driver (tools/qres_fuzz --mode faults) for long sanitizer
// runs and into the bounded gtest smoke (test_fault_fuzz_smoke.cpp).
// Every failure message is prefixed with the iteration seed; reproduce
// with `qres_fuzz --mode faults --repro-seed <seed>`.
#pragma once

#include <cstdint>
#include <string>

namespace qres::fuzz {

/// Tallies of what the fault iterations actually exercised.
struct FaultFuzzStats {
  std::uint64_t sessions = 0;         ///< coordinator establishments
  std::uint64_t sessions_established = 0;
  std::uint64_t replans = 0;          ///< recovery re-plan rounds taken
  std::uint64_t leases_expired = 0;   ///< sessions reclaimed by expiry
  std::uint64_t leaked_rollbacks = 0; ///< rollback/teardown releases lost
  std::uint64_t messages = 0;         ///< logical messages exchanged
  std::uint64_t transmissions = 0;    ///< individual attempts
  std::uint64_t drops = 0;            ///< attempts lost
  std::uint64_t audits = 0;           ///< audit points evaluated

  void merge(const FaultFuzzStats& o) {
    sessions += o.sessions;
    sessions_established += o.sessions_established;
    replans += o.replans;
    leases_expired += o.leases_expired;
    leaked_rollbacks += o.leaked_rollbacks;
    messages += o.messages;
    transmissions += o.transmissions;
    drops += o.drops;
    audits += o.audits;
  }
};

/// One full fault iteration from a single seed: the zero-fault
/// differential, then an audited faulted coordinator run. Returns the
/// first violation (prefixed with the seed) or an empty string.
std::string run_fault_iteration(std::uint64_t seed,
                                FaultFuzzStats* stats = nullptr);

}  // namespace qres::fuzz
