// RetryPolicy edge cases, pinned against the FaultPlane's reliable-send
// machinery: an exhausted single-attempt budget, the exact capped
// exponential backoff schedule at the max_timeout boundary, and jitter
// determinism under a fixed seed (plus the zero-jitter no-draw contract
// the zero-fault differentials rely on).
#include <gtest/gtest.h>

#include "signal/fault_plane.hpp"
#include "util/assert.hpp"

namespace qres {
namespace {

FaultConfig always_drop() {
  FaultConfig config;
  config.drop_prob = 1.0;
  return config;
}

TEST(RetryPolicy, ZeroRetryBudgetGivesUpAfterOneAttempt) {
  EventQueue q;
  FaultPlane plane(&q, 7, always_drop());
  RetryPolicy policy;
  policy.max_attempts = 1;  // no retries at all
  policy.timeout = 0.5;

  const auto plan = plane.plan_message(std::nullopt, HostId{0}, HostId{1},
                                       10.0, 0.1, policy);
  EXPECT_FALSE(plan.delivered);
  EXPECT_EQ(plan.attempts, 1);
  EXPECT_EQ(plan.failure, DeliveryFailure::kDropped);
  EXPECT_EQ(plan.at, 10.5);  // give-up = now + the single timeout
  EXPECT_EQ(plane.totals().transmissions, 1u);
  EXPECT_EQ(plane.totals().failed_messages, 1u);

  const ExchangeResult r =
      plane.exchange(HostId{0}, HostId{1}, 10.0, &policy);
  EXPECT_EQ(r.status, ExchangeStatus::kTimeout);
  EXPECT_EQ(r.transmissions, 1);

  // A budget of zero attempts is malformed, not "fail fast".
  RetryPolicy malformed = policy;
  malformed.max_attempts = 0;
  EXPECT_THROW(
      plane.plan_message(std::nullopt, HostId{0}, HostId{1}, 0.0, 0.1,
                         malformed),
      ContractViolation);
  EXPECT_THROW(plane.exchange(HostId{0}, HostId{1}, 0.0, &malformed),
               ContractViolation);
}

TEST(RetryPolicy, BackoffSaturatesExactlyAtMaxTimeout) {
  EventQueue q;
  FaultPlane plane(&q, 7, always_drop());
  RetryPolicy policy;
  policy.timeout = 1.0;
  policy.backoff = 2.0;
  policy.max_timeout = 4.0;  // == timeout * backoff^2: cap hit exactly
  policy.max_attempts = 5;
  policy.jitter = 0.0;

  const auto plan = plane.plan_message(std::nullopt, HostId{0}, HostId{1},
                                       0.0, 0.1, policy);
  EXPECT_FALSE(plan.delivered);
  EXPECT_EQ(plan.attempts, 5);
  // Waits are 1, 2, 4, 4, 4: the third wait reaches the cap exactly and
  // every later wait stays there instead of growing to 8 and 16.
  EXPECT_EQ(plan.at, 1.0 + 2.0 + 4.0 + 4.0 + 4.0);

  // One notch below the cap boundary the schedule still truncates.
  RetryPolicy tight = policy;
  tight.max_timeout = 3.5;
  const auto clipped = plane.plan_message(std::nullopt, HostId{0}, HostId{1},
                                          0.0, 0.1, tight);
  EXPECT_EQ(clipped.at, 1.0 + 2.0 + 3.5 + 3.5 + 3.5);
}

TEST(RetryPolicy, JitterIsDeterministicUnderAFixedSeed) {
  RetryPolicy policy;
  policy.timeout = 1.0;
  policy.backoff = 2.0;
  policy.max_timeout = 8.0;
  policy.max_attempts = 4;
  policy.jitter = 0.25;

  auto give_up_time = [&](std::uint64_t seed) {
    EventQueue q;
    FaultPlane plane(&q, seed, always_drop());
    return plane
        .plan_message(std::nullopt, HostId{0}, HostId{1}, 0.0, 0.1, policy)
        .at;
  };

  // Same seed: bit-identical jittered schedule, twice.
  EXPECT_EQ(give_up_time(99), give_up_time(99));
  // Jitter only ever stretches waits, within the advertised bound.
  const double nominal = 1.0 + 2.0 + 4.0 + 8.0;
  EXPECT_GE(give_up_time(99), nominal);
  EXPECT_LE(give_up_time(99), nominal * (1.0 + policy.jitter));
  // Different seeds draw different stretches (xoshiro streams diverge).
  EXPECT_NE(give_up_time(99), give_up_time(100));

  // Zero jitter draws nothing: the schedule is the exact nominal one no
  // matter the seed (the zero-fault bit-identity contract).
  policy.jitter = 0.0;
  EXPECT_EQ(give_up_time(1), nominal);
  EXPECT_EQ(give_up_time(2), nominal);
}

}  // namespace
}  // namespace qres
