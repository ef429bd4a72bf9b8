// Bounded in-tree run of the parallel fuzz harness (parallel_fuzz.*) so
// tier-1 ctest proves thread-count independence on every build: warm and
// cold QRG runs racing on a pool agree, and establish_batch produces
// bit-identical results and broker accounting whether planning runs
// inline or on a pool. The standalone qres_fuzz --mode parallel driver
// runs the same iterations at scale under sanitizers and TSan.
#include <gtest/gtest.h>

#include "parallel_fuzz.hpp"
#include "util/rng.hpp"

namespace qres {
namespace {

TEST(ParallelFuzzSmoke, IterationsAreClean) {
  fuzz::ParallelFuzzStats stats;
  Rng master(1);
  for (int iter = 0; iter < 15; ++iter) {
    const std::uint64_t seed = master();
    const std::string failure = fuzz::run_parallel_iteration(seed, &stats);
    EXPECT_EQ(failure, "") << "iteration " << iter;
  }
  // A clean run must prove it exercised the parallel machinery, not just
  // trivially empty worlds.
  EXPECT_GT(stats.qrgs, 0u);
  EXPECT_GT(stats.warm_snapshots, 0u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.batch_sessions, 0u);
  EXPECT_GT(stats.admitted, 0u);
}

TEST(ParallelFuzzSmoke, IterationsAreDeterministicPerSeed) {
  // The --repro-seed contract: the same seed replays the same worlds and
  // batches and reaches the same verdict and coverage.
  fuzz::ParallelFuzzStats a, b;
  EXPECT_EQ(fuzz::run_parallel_iteration(42, &a),
            fuzz::run_parallel_iteration(42, &b));
  EXPECT_EQ(a.qrgs, b.qrgs);
  EXPECT_EQ(a.warm_snapshots, b.warm_snapshots);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.batch_sessions, b.batch_sessions);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.conflicts_replanned, b.conflicts_replanned);
}

}  // namespace
}  // namespace qres
