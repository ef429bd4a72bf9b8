// Bounded in-tree run of the typed-RPC fuzz harness (rpc_fuzz.*) so
// tier-1 ctest exercises the codec rejection sweep, the frame-storm
// conservation oracle and the backpressure arm on every build;
// the standalone qres_fuzz --mode rpc driver runs the same iterations at
// scale under sanitizers.
#include <gtest/gtest.h>

#include "rpc_fuzz.hpp"
#include "util/rng.hpp"

namespace qres {
namespace {

TEST(RpcFuzzSmoke, IterationsAreClean) {
  fuzz::RpcFuzzStats stats;
  Rng master(1);
  for (int iter = 0; iter < 10; ++iter) {
    const std::uint64_t seed = master();
    const std::string failure = fuzz::run_rpc_iteration(seed, &stats);
    EXPECT_EQ(failure, "") << "iteration " << iter;
  }
  // A clean run must prove it exercised every arm, not just round-trips.
  EXPECT_GT(stats.messages_roundtripped, 0u);
  EXPECT_GT(stats.flips_rejected, 0u);
  EXPECT_GT(stats.truncations_rejected, 0u);
  EXPECT_GT(stats.storm_calls, 0u);
  EXPECT_GT(stats.frames_corrupted, 0u);
  EXPECT_GT(stats.frames_duplicated, 0u);
  EXPECT_GT(stats.backpressure_rejects, 0u);
  EXPECT_GT(stats.conservation_checks, 0u);
}

TEST(RpcFuzzSmoke, IterationsAreDeterministicPerSeed) {
  // The --repro-seed contract: the same seed replays the same frames,
  // faults and verdict.
  fuzz::RpcFuzzStats a, b;
  EXPECT_EQ(fuzz::run_rpc_iteration(42, &a), fuzz::run_rpc_iteration(42, &b));
  EXPECT_EQ(a.storm_calls, b.storm_calls);
  EXPECT_EQ(a.storm_retries, b.storm_retries);
  EXPECT_EQ(a.frames_corrupted, b.frames_corrupted);
  EXPECT_EQ(a.dedup_replays, b.dedup_replays);
  EXPECT_EQ(a.backpressure_rejects, b.backpressure_rejects);
}

}  // namespace
}  // namespace qres
