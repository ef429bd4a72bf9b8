// Differential fuzzing of the parallel planning engine (DESIGN.md §11):
// thread-count independence of labels, plans, batch admission results
// and broker accounting.
//
// Each iteration proves, from one seed:
//   * pass-I labels are bit-identical across relax_qrg, dijkstra_qrg
//     with the binary heap, dijkstra_qrg with the BucketPQ (several
//     bucket widths), and parallel_relax_qrg with no pool and with
//     1/2/4-worker pools — in both tie-break modes;
//   * ParallelPlanner returns exactly BasicPlanner's result;
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
  std::uint64_t label_comparisons = 0;
  std::uint64_t plans = 0;
  std::uint64_t warm_snapshots = 0;  ///< check_cache_history snapshots
  std::uint64_t batches = 0;
  std::uint64_t batch_sessions = 0;
  std::uint64_t admitted = 0;
  std::uint64_t conflicts_replanned = 0;

  void merge(const ParallelFuzzStats& other) {
    qrgs += other.qrgs;
    label_comparisons += other.label_comparisons;
    plans += other.plans;
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
