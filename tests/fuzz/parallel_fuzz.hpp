// Differential fuzzing of pool-driven planning (DESIGN.md §11):
// thread-count independence of warm QRG reuse, batch admission results
// and broker accounting.
//
// Each iteration proves, from one seed:
//   * a service's compiled QRG gives the same results under later
//     snapshots as a cold compile does, with the runs racing on a pool
//     (check_cache_history);
//   * establish_batch over identically-seeded broker worlds produces
//     bit-identical EstablishResults (outcome, plan, holdings, stats)
//     and bit-identical broker accounting (serialized snapshots) whether
//     planning runs inline, on a 1-worker pool or on a 4-worker pool —
//     including batches under capacity pressure that take the
//     kAdmission replan-on-conflict path.
//
// Like the sibling fuzz libs this is test-framework-free: linked into
// the qres_fuzz driver (--mode parallel) and into the gtest smoke
// keeping a bounded run inside tier-1 ctest.
#pragma once

#include <cstdint>
#include <string>

namespace qres::fuzz {

struct ParallelFuzzStats {
  std::uint64_t qrgs = 0;
  std::uint64_t warm_snapshots = 0;  ///< check_cache_history snapshots
  std::uint64_t batches = 0;
  std::uint64_t batch_sessions = 0;
  std::uint64_t admitted = 0;
  std::uint64_t conflicts_replanned = 0;

  void merge(const ParallelFuzzStats& other) {
    qrgs += other.qrgs;
    warm_snapshots += other.warm_snapshots;
    batches += other.batches;
    batch_sessions += other.batch_sessions;
    admitted += other.admitted;
    conflicts_replanned += other.conflicts_replanned;
  }
};

/// One full parallel-differential iteration from a single seed. Returns
/// the first failure (prefixed with the seed) or an empty string.
std::string run_parallel_iteration(std::uint64_t seed,
                                   ParallelFuzzStats* stats = nullptr);

}  // namespace qres::fuzz
