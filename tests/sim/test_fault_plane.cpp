#include "signal/fault_plane.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

namespace qres {
namespace {

RetryPolicy one_shot() {
  RetryPolicy p;
  p.max_attempts = 1;
  return p;
}

TEST(FaultPlane, Contracts) {
  EventQueue q;
  EXPECT_THROW(FaultPlane(nullptr, 1), ContractViolation);
  FaultPlane plane(&q, 1);
  FaultConfig bad;
  bad.drop_prob = 1.5;
  EXPECT_THROW(plane.set_default_config(bad), ContractViolation);
  bad = FaultConfig{};
  bad.delay_max = -1.0;
  EXPECT_THROW(plane.set_default_config(bad), ContractViolation);
  EXPECT_THROW(plane.crash_host(HostId{0}, 2.0, 2.0), ContractViolation);
  EXPECT_THROW(plane.link_down(LinkId{0}, 3.0, 1.0), ContractViolation);
  EXPECT_THROW(plane.crash_host(HostId{}, 0.0, 1.0), ContractViolation);
  RetryPolicy malformed;
  malformed.max_attempts = 0;
  EXPECT_THROW(plane.set_rpc_policy(malformed), ContractViolation);
  EXPECT_THROW(
      plane.plan_message(std::nullopt, HostId{0}, HostId{1}, 0.0, -0.1,
                         RetryPolicy{}),
      ContractViolation);
}

TEST(FaultPlane, ZeroFaultDeliversAtExactNominalTime) {
  EventQueue q;
  FaultPlane plane(&q, 123);
  const auto plan = plane.plan_message(std::nullopt, HostId{0}, HostId{1},
                                       5.0, 0.25, RetryPolicy{});
  EXPECT_TRUE(plan.delivered);
  EXPECT_EQ(plan.at, 5.25);  // exactly now + latency, no perturbation
  EXPECT_EQ(plan.attempts, 1);
  EXPECT_FALSE(plan.duplicate);
  EXPECT_EQ(plane.totals().messages, 1u);
  EXPECT_EQ(plane.totals().transmissions, 1u);
  EXPECT_EQ(plane.totals().drops, 0u);
}

TEST(FaultPlane, AllDropsExhaustRetriesWithExponentialBackoff) {
  EventQueue q;
  FaultConfig config;
  config.drop_prob = 1.0;
  FaultPlane plane(&q, 7, config);
  const auto plan = plane.plan_message(std::nullopt, HostId{0}, HostId{1},
                                       0.0, 0.25, RetryPolicy{});
  EXPECT_FALSE(plan.delivered);
  EXPECT_EQ(plan.failure, DeliveryFailure::kDropped);
  EXPECT_EQ(plan.attempts, 4);
  // Attempts at 0, 0.5, 1.5, 3.5; the last waits its (capped) timeout 4.
  EXPECT_DOUBLE_EQ(plan.at, 7.5);
  EXPECT_EQ(plane.totals().transmissions, 4u);
  EXPECT_EQ(plane.totals().drops, 4u);
  EXPECT_EQ(plane.totals().failed_messages, 1u);
}

TEST(FaultPlane, ScriptedCrashWindowIsHonoredPerAttempt) {
  EventQueue q;
  FaultPlane plane(&q, 7);
  plane.crash_host(HostId{1}, 1.0, 2.0);
  EXPECT_TRUE(plane.host_up(HostId{1}, 0.5));
  EXPECT_FALSE(plane.host_up(HostId{1}, 1.0));
  EXPECT_FALSE(plane.host_up(HostId{1}, 1.999));
  EXPECT_TRUE(plane.host_up(HostId{1}, 2.0));  // half-open window
  const auto lost = plane.plan_message(std::nullopt, HostId{0}, HostId{1},
                                       1.0, 0.1, one_shot());
  EXPECT_FALSE(lost.delivered);
  EXPECT_EQ(lost.failure, DeliveryFailure::kHostDown);
  // A retrying message whose later attempt lands after the window gets
  // through: attempts at 1.0 (down) and 1.5, 2.5 (up again at 2.0... the
  // 1.5 attempt is still inside the window, the 2.5 one is not).
  RetryPolicy retry;
  retry.timeout = 0.5;
  retry.backoff = 2.0;
  const auto recovered = plane.plan_message(std::nullopt, HostId{0},
                                            HostId{1}, 1.0, 0.1, retry);
  EXPECT_TRUE(recovered.delivered);
  EXPECT_EQ(recovered.attempts, 3);
  EXPECT_DOUBLE_EQ(recovered.at, 2.6);  // 1.0 + 0.5 + 1.0 attempt + latency
}

TEST(FaultPlane, ScriptedLinkDownReportsLinkFailure) {
  EventQueue q;
  FaultPlane plane(&q, 7);
  plane.link_down(LinkId{3}, 0.0, 10.0);
  const auto plan = plane.plan_message(LinkId{3}, HostId{0}, HostId{1}, 1.0,
                                       0.1, one_shot());
  EXPECT_FALSE(plan.delivered);
  EXPECT_EQ(plan.failure, DeliveryFailure::kLinkDown);
  // Other links are unaffected.
  const auto ok = plane.plan_message(LinkId{4}, HostId{0}, HostId{1}, 1.0,
                                     0.1, one_shot());
  EXPECT_TRUE(ok.delivered);
}

TEST(FaultPlane, PerLinkConfigOverridesDefault) {
  EventQueue q;
  FaultConfig lossy;
  lossy.drop_prob = 1.0;
  FaultPlane plane(&q, 7, lossy);
  plane.set_link_config(LinkId{0}, FaultConfig{});  // clean link
  EXPECT_TRUE(plane
                  .plan_message(LinkId{0}, HostId{0}, HostId{1}, 0.0, 0.1,
                                one_shot())
                  .delivered);
  EXPECT_FALSE(plane
                   .plan_message(LinkId{1}, HostId{0}, HostId{1}, 0.0, 0.1,
                                 one_shot())
                   .delivered);
}

TEST(FaultPlane, DuplicateDeliversASecondLaterCopy) {
  EventQueue q;
  FaultConfig config;
  config.duplicate_prob = 1.0;
  FaultPlane plane(&q, 11, config);
  const auto plan = plane.plan_message(std::nullopt, HostId{0}, HostId{1},
                                       0.0, 0.5, one_shot());
  ASSERT_TRUE(plan.delivered);
  EXPECT_TRUE(plan.duplicate);
  EXPECT_GE(plan.duplicate_at, plan.at);
  EXPECT_EQ(plane.totals().duplicates, 1u);
}

TEST(FaultPlane, TransportExchangeReflectsHostState) {
  EventQueue q;
  FaultPlane plane(&q, 5);
  plane.crash_host(HostId{2}, 0.0, 10.0);
  IControlTransport& transport = plane;
  const ExchangeResult ok =
      transport.exchange(HostId{0}, HostId{1}, 1.0, nullptr);
  EXPECT_EQ(ok.status, ExchangeStatus::kOk);
  EXPECT_EQ(ok.transmissions, 1);
  // A crashed peer is a typed kPeerDown, not a mere timeout.
  EXPECT_EQ(transport.exchange(HostId{0}, HostId{2}, 1.0, nullptr).status,
            ExchangeStatus::kPeerDown);
  EXPECT_EQ(transport.exchange(HostId{2}, HostId{0}, 1.0, nullptr).status,
            ExchangeStatus::kPeerDown);
  EXPECT_TRUE(transport.exchange(HostId{0}, HostId{2}, 11.0, nullptr).ok());
  EXPECT_FALSE(transport.reachable(HostId{2}, 1.0));
  EXPECT_TRUE(transport.reachable(HostId{2}, 11.0));
  // The failed exchange burned the whole (default 4-attempt) RPC budget.
  EXPECT_GT(plane.totals().failed_messages, 0u);
}

}  // namespace
}  // namespace qres
