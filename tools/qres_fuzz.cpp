// qres_fuzz — differential fuzzing and invariant-checking driver.
//
// Repeatedly generates random chain/DAG services, QoS translation tables,
// availability snapshots and broker workloads, and checks the invariants
// implemented in tests/fuzz/fuzz_lib.*:
//   * relax_qrg and dijkstra_qrg produce identical labels,
//   * BasicPlanner agrees exactly with the exhaustive reference on chains
//     and never beats it on DAGs,
//   * extracted plans are structurally well-formed,
//   * ResourceBroker accounting/history/alpha match an independent model.
//
// With --mode faults (see tests/fuzz/fault_fuzz.*) each iteration instead
// derives a random fault schedule and proves:
//   * zero-fault runs are bit-identical to running without a FaultPlane
//     (a coordinator on its loopback vs one attached to a BrokerService
//     over an inert plane),
//   * the ReservationAuditor model matches broker state under faults,
//   * after teardown + lease expiry not one unit of capacity leaked.
//
// With --mode adapt (see tests/fuzz/adapt_fuzz.*) each iteration drives
// the contention watchdog / adaptation engine and proves:
//   * a disabled engine is a bit-identical pass-through (admissions,
//     holdings, broker histories; ticks touch nothing),
//   * under faults, no live session ever holds less than its committed
//     plan — audited from inside the transport, mid-renegotiation,
//   * the auditor's conservation proof closes (zombies included).
//
// With --mode parallel (see tests/fuzz/parallel_fuzz.*) each iteration
// proves pool-driven planning thread-count independent:
//   * warm (compiled-once) and cold QRG runs racing on a 4-worker pool
//     give identical plans,
//   * establish_batch produces bit-identical results and broker
//     accounting whether planning runs inline or on a pool.
//
// With --mode rpc (see tests/fuzz/rpc_fuzz.*) each iteration fuzzes the
// typed RPC control plane:
//   * every wire message round-trips encode/decode and re-encodes
//     bit-identically; EVERY single-byte flip, strict prefix and trailing
//     extension of a valid frame is rejected as a typed DecodeStatus,
//   * under corruption/duplication/reorder storms, at-least-once retries
//     with stable request ids stay exactly-once (client ledger == broker
//     holdings; no capacity leaks),
//   * overflowing a bounded service queue fast-rejects with typed
//     kBackpressure and drain_all executes exactly the queued prefix.
//
// With --mode crash (see tests/fuzz/crash_fuzz.*) each iteration derives
// scripted broker crash–restart schedules and proves:
//   * a journaled world with no crashes is bit-identical to an
//     un-journaled one (decisions, holdings, serialized broker state),
//   * ResourceBroker::recover() rebuilds every journaled broker exactly,
//   * under outages + RPC loss, post-restart reconciliation keeps the
//     auditor's conservation proof exact and leaks zero capacity.
//
// With --mode failover (see tests/fuzz/failover_fuzz.*) each iteration
// drives a ReplicatedBroker group through a lossy, partitionable ship
// transport with crash/restart/promotion schedules and proves:
//   * no split-brain: with fencing on, at most one live replica serves
//     in primary role after every operation,
//   * no quorum-confirmed grant is lost across any chain of failovers
//     (sync confirms imply quorum; async grants harden at quorum-met
//     flushes), and lagging promotion candidates are refused,
//   * primary-side conservation is exact after every operation, and
//     after healing, standbys converge bit-identically and
//     ResourceBroker::recover() rebuilds the serving primary exactly.
//
// Usage:
//   qres_fuzz [--mode planner|faults|adapt|rpc|crash|failover|parallel|all]
//             [--iterations N]
//             [--seed S] [--repro-seed X] [--verbose]
//
// Each iteration derives its own 64-bit seed from the master seed; on
// failure the iteration seed is printed. Reproduce a single failing
// iteration with `qres_fuzz [--mode faults] --repro-seed <seed>`. Exit
// status is the number of failing iterations (capped at 125), so a clean
// run exits 0.
//
// Designed to run under ASan/UBSan/TSan (see CMakePresets.json and the CI
// workflow); bounded runs are also registered as the ctest smokes
// `qres_fuzz_smoke` and `qres_fault_fuzz_smoke`.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "../tests/fuzz/adapt_fuzz.hpp"
#include "../tests/fuzz/crash_fuzz.hpp"
#include "../tests/fuzz/failover_fuzz.hpp"
#include "../tests/fuzz/fault_fuzz.hpp"
#include "../tests/fuzz/fuzz_lib.hpp"
#include "../tests/fuzz/parallel_fuzz.hpp"
#include "../tests/fuzz/rpc_fuzz.hpp"
#include "util/rng.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--mode "
               "planner|faults|adapt|rpc|crash|failover|parallel|all] "
               "[--iterations N] [--seed S] [--repro-seed X] [--verbose]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t iterations = 500;
  std::uint64_t master_seed = 1;
  bool verbose = false;
  bool have_repro = false;
  std::uint64_t repro_seed = 0;
  bool run_planner = true;
  bool run_faults = false;
  bool run_adapt = false;
  bool run_rpc = false;
  bool run_crash = false;
  bool run_failover = false;
  bool run_parallel = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_u64 = [&](std::uint64_t* out) {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      const char* text = argv[++i];
      char* end = nullptr;
      *out = std::strtoull(text, &end, 0);
      if (end == text || *end != '\0') {
        std::fprintf(stderr, "not a number: %s\n", text);
        usage(argv[0]);
        std::exit(2);
      }
    };
    if (arg == "--mode") {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      const std::string mode = argv[++i];
      run_planner = run_faults = run_adapt = run_rpc = run_crash =
          run_failover = run_parallel = false;
      if (mode == "planner") {
        run_planner = true;
      } else if (mode == "faults") {
        run_faults = true;
      } else if (mode == "adapt") {
        run_adapt = true;
      } else if (mode == "rpc") {
        run_rpc = true;
      } else if (mode == "crash") {
        run_crash = true;
      } else if (mode == "failover") {
        run_failover = true;
      } else if (mode == "parallel") {
        run_parallel = true;
      } else if (mode == "all") {
        run_planner = run_faults = run_adapt = run_rpc = run_crash =
            run_failover = run_parallel = true;
      } else {
        std::fprintf(stderr, "unknown mode: %s\n", mode.c_str());
        usage(argv[0]);
        std::exit(2);
      }
    } else if (arg == "--iterations" || arg == "-n") {
      next_u64(&iterations);
    } else if (arg == "--seed" || arg == "-s") {
      next_u64(&master_seed);
    } else if (arg == "--repro-seed") {
      next_u64(&repro_seed);
      have_repro = true;
    } else if (arg == "--verbose" || arg == "-v") {
      verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  qres::fuzz::FuzzStats stats;
  qres::fuzz::FaultFuzzStats fault_stats;
  qres::fuzz::AdaptFuzzStats adapt_stats;
  qres::fuzz::RpcFuzzStats rpc_stats;
  qres::fuzz::CrashFuzzStats crash_stats;
  qres::fuzz::FailoverFuzzStats failover_stats;
  qres::fuzz::ParallelFuzzStats parallel_stats;
  std::uint64_t failures = 0;
  qres::Rng master(master_seed);

  const std::uint64_t total = have_repro ? 1 : iterations;
  for (std::uint64_t iter = 0; iter < total; ++iter) {
    const std::uint64_t seed = have_repro ? repro_seed : master();
    std::string failure;
    try {
      if (run_planner) failure = qres::fuzz::run_iteration(seed, &stats);
      if (failure.empty() && run_faults)
        failure = qres::fuzz::run_fault_iteration(seed, &fault_stats);
      if (failure.empty() && run_adapt)
        failure = qres::fuzz::run_adapt_iteration(seed, &adapt_stats);
      if (failure.empty() && run_rpc)
        failure = qres::fuzz::run_rpc_iteration(seed, &rpc_stats);
      if (failure.empty() && run_crash)
        failure = qres::fuzz::run_crash_iteration(seed, &crash_stats);
      if (failure.empty() && run_failover)
        failure = qres::fuzz::run_failover_iteration(seed, &failover_stats);
      if (failure.empty() && run_parallel)
        failure = qres::fuzz::run_parallel_iteration(seed, &parallel_stats);
    } catch (const std::exception& e) {
      failure = "seed " + std::to_string(seed) +
                ": unexpected exception: " + e.what();
    }
    if (!failure.empty()) {
      ++failures;
      if (failures <= 20)
        std::fprintf(stderr, "FAIL iter %" PRIu64 ": %s\n", iter,
                     failure.c_str());
      if (failures == 20)
        std::fprintf(stderr, "(further failures suppressed)\n");
    } else if (verbose) {
      std::fprintf(stderr, "ok   iter %" PRIu64 " seed %" PRIu64 "\n", iter,
                   seed);
    }
  }

  if (run_planner)
    std::printf(
        "qres_fuzz: %" PRIu64 " iteration(s), %" PRIu64
        " failure(s); checked %" PRIu64 " QRGs (%" PRIu64 " nodes), %" PRIu64
        " planner comparisons, %" PRIu64 " warm-vs-cold snapshots, %" PRIu64
        " broker steps\n",
        total, failures, stats.qrgs, stats.nodes, stats.plans,
        stats.warm_snapshots, stats.broker_steps);
  if (run_faults)
    std::printf(
        "qres_fuzz faults: %" PRIu64 " iteration(s), %" PRIu64
        " failure(s); %" PRIu64 "/%" PRIu64
        " sessions established, %" PRIu64 " replans, %" PRIu64
        " leases expired, %" PRIu64 " leaked rollbacks, %" PRIu64
        " msgs (%" PRIu64 " tx, %" PRIu64 " drops), %" PRIu64 " audits\n",
        total, failures, fault_stats.sessions_established,
        fault_stats.sessions, fault_stats.replans,
        fault_stats.leases_expired, fault_stats.leaked_rollbacks,
        fault_stats.messages, fault_stats.transmissions, fault_stats.drops,
        fault_stats.audits);
  if (run_adapt)
    std::printf(
        "qres_fuzz adapt: %" PRIu64 " iteration(s), %" PRIu64
        " failure(s); %" PRIu64 "/%" PRIu64 " sessions established, %" PRIu64
        " ticks, %" PRIu64 " floor checks, %" PRIu64 " upgrades, %" PRIu64
        " downgrades, %" PRIu64 " mbb aborts, %" PRIu64 " evictions, %" PRIu64
        " preempt-downgrades, %" PRIu64 " overload rejects, %" PRIu64
        " zombies released, %" PRIu64 " audits\n",
        total, failures, adapt_stats.established, adapt_stats.admissions,
        adapt_stats.ticks, adapt_stats.floor_checks, adapt_stats.upgrades,
        adapt_stats.downgrades, adapt_stats.mbb_aborts,
        adapt_stats.preemptions, adapt_stats.preempt_downgrades,
        adapt_stats.overload_rejects, adapt_stats.zombies_released,
        adapt_stats.audits);
  if (run_rpc)
    std::printf(
        "qres_fuzz rpc: %" PRIu64 " iteration(s), %" PRIu64
        " failure(s); %" PRIu64 " round-trips, %" PRIu64
        " flips + %" PRIu64 " truncations rejected, %" PRIu64
        " storm calls (%" PRIu64
        " retries, %" PRIu64 " corrupt, %" PRIu64 " dup, %" PRIu64
        " reorder, %" PRIu64 " dedup replays), %" PRIu64
        " backpressure rejects, %" PRIu64 " conservation checks\n",
        total, failures, rpc_stats.messages_roundtripped,
        rpc_stats.flips_rejected, rpc_stats.truncations_rejected,
        rpc_stats.storm_calls,
        rpc_stats.storm_retries, rpc_stats.frames_corrupted,
        rpc_stats.frames_duplicated, rpc_stats.frames_reordered,
        rpc_stats.dedup_replays, rpc_stats.backpressure_rejects,
        rpc_stats.conservation_checks);
  if (run_crash)
    std::printf(
        "qres_fuzz crash: %" PRIu64 " iteration(s), %" PRIu64
        " failure(s); %" PRIu64 "/%" PRIu64 " sessions established "
        "(%" PRIu64 " broker-unavailable), %" PRIu64 " crashes, %" PRIu64
        " restarts, %" PRIu64 " tail records lost, %" PRIu64
        " journaled (%" PRIu64 " snapshots), %" PRIu64
        " reconciles (%" PRIu64 " confirmed, %" PRIu64 " lost claims, "
        "%" PRIu64 " orphans, %" PRIu64 " excess, %" PRIu64
        " rpc fails), %" PRIu64 " leases expired, %" PRIu64
        " leaked rollbacks, %" PRIu64 " recoveries checked, %" PRIu64
        " audits\n",
        total, failures, crash_stats.sessions_established,
        crash_stats.sessions, crash_stats.unavailable,
        crash_stats.broker_crashes, crash_stats.broker_restarts,
        crash_stats.lost_records, crash_stats.records_journaled,
        crash_stats.snapshots, crash_stats.reconciles, crash_stats.confirmed,
        crash_stats.lost_claims, crash_stats.orphans_released,
        crash_stats.excess_released, crash_stats.rpc_failures,
        crash_stats.leases_expired, crash_stats.leaked_rollbacks,
        crash_stats.recoveries_checked, crash_stats.audits);
  if (run_failover)
    std::printf(
        "qres_fuzz failover: %" PRIu64 " iteration(s), %" PRIu64
        " failure(s); %" PRIu64 "/%" PRIu64 " grants confirmed, %" PRIu64
        " releases, %" PRIu64 " crashes, %" PRIu64 " restarts, %" PRIu64
        " promotions (%" PRIu64 " refused), %" PRIu64
        " partitions, %" PRIu64 " batches shipped (%" PRIu64
        " lost), %" PRIu64 " quorum failures, %" PRIu64
        " records truncated, %" PRIu64 " durability + %" PRIu64
        " convergence checks, %" PRIu64 " recoveries checked\n",
        total, failures, failover_stats.grants_confirmed,
        failover_stats.grants_attempted, failover_stats.releases,
        failover_stats.crashes, failover_stats.restarts,
        failover_stats.promotions, failover_stats.promote_refused,
        failover_stats.partitions, failover_stats.ship_batches,
        failover_stats.ship_lost, failover_stats.quorum_failures,
        failover_stats.truncated_records, failover_stats.durability_checks,
        failover_stats.convergence_checks,
        failover_stats.recoveries_checked);
  if (run_parallel)
    std::printf(
        "qres_fuzz parallel: %" PRIu64 " iteration(s), %" PRIu64
        " failure(s); %" PRIu64 " QRGs, %" PRIu64
        " warm-vs-cold snapshots, %" PRIu64 " batches (%" PRIu64
        " sessions, %" PRIu64 " admitted, %" PRIu64 " conflict replans)\n",
        total, failures, parallel_stats.qrgs, parallel_stats.warm_snapshots,
        parallel_stats.batches, parallel_stats.batch_sessions,
        parallel_stats.admitted, parallel_stats.conflicts_replanned);
  if (failures > 0)
    std::printf("reproduce a failure with: %s --repro-seed <seed>\n",
                argv[0]);
  return failures > 125 ? 125 : static_cast<int>(failures);
}
