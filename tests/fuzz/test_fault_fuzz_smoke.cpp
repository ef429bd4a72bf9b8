// Bounded in-tree run of the fault-schedule fuzz harness (fault_fuzz.*)
// so tier-1 ctest exercises the faulted protocols and the auditor oracle
// on every build; the standalone qres_fuzz --mode faults driver runs the
// same iterations at scale under sanitizers.
#include <gtest/gtest.h>

#include "fault_fuzz.hpp"
#include "util/rng.hpp"

namespace qres {
namespace {

TEST(FaultFuzzSmoke, IterationsAreClean) {
  fuzz::FaultFuzzStats stats;
  Rng master(1);
  for (int iter = 0; iter < 25; ++iter) {
    const std::uint64_t seed = master();
    const std::string failure = fuzz::run_fault_iteration(seed, &stats);
    EXPECT_EQ(failure, "") << "iteration " << iter;
  }
  // A clean run must prove it exercised the fault machinery, not just
  // zero-fault differentials.
  EXPECT_GT(stats.sessions, 0u);
  EXPECT_GT(stats.sessions_established, 0u);
  EXPECT_GT(stats.drops, 0u);
  EXPECT_GT(stats.transmissions, stats.messages);  // retries happened
  EXPECT_GT(stats.audits, 0u);
}

TEST(FaultFuzzSmoke, IterationsAreDeterministicPerSeed) {
  // The --repro-seed contract: the same seed replays the same fault
  // schedule and reaches the same verdict and coverage.
  fuzz::FaultFuzzStats a, b;
  EXPECT_EQ(fuzz::run_fault_iteration(42, &a),
            fuzz::run_fault_iteration(42, &b));
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.sessions_established, b.sessions_established);
  EXPECT_EQ(a.leases_expired, b.leases_expired);
}

}  // namespace
}  // namespace qres
