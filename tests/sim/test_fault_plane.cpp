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
  FaultConfig bad;
  bad.drop_prob = 1.5;
  EXPECT_THROW(FaultPlane(1, bad), ContractViolation);
  FaultPlane plane(1);
  EXPECT_THROW(plane.crash_host(HostId{0}, 2.0, 2.0), ContractViolation);
  EXPECT_THROW(plane.crash_host(HostId{}, 0.0, 1.0), ContractViolation);
  RetryPolicy malformed;
  malformed.max_attempts = 0;
  EXPECT_THROW(plane.set_rpc_policy(malformed), ContractViolation);
  EXPECT_THROW((void)plane.exchange(HostId{0}, HostId{1}, 0.0, &malformed),
               ContractViolation);
}

TEST(FaultPlane, ZeroFaultDeliversOnTheFirstAttempt) {
  FaultPlane plane(123);
  const ExchangeResult r =
      plane.exchange(HostId{0}, HostId{1}, 5.0, nullptr);
  EXPECT_EQ(r.status, ExchangeStatus::kOk);
  EXPECT_EQ(r.transmissions, 1);
  EXPECT_EQ(plane.totals().messages, 1u);
  EXPECT_EQ(plane.totals().transmissions, 1u);
  EXPECT_EQ(plane.totals().drops, 0u);
}

TEST(FaultPlane, AllDropsExhaustTheRetryBudget) {
  FaultConfig config;
  config.drop_prob = 1.0;
  FaultPlane plane(7, config);
  const ExchangeResult r =
      plane.exchange(HostId{0}, HostId{1}, 0.0, nullptr);
  // Random loss is a silent timeout after the default 4 attempts.
  EXPECT_EQ(r.status, ExchangeStatus::kTimeout);
  EXPECT_EQ(r.transmissions, 4);
  EXPECT_EQ(plane.totals().transmissions, 4u);
  EXPECT_EQ(plane.totals().drops, 4u);
  EXPECT_EQ(plane.totals().failed_messages, 1u);
}

TEST(FaultPlane, ScriptedCrashWindowIsHonoredPerAttempt) {
  FaultPlane plane(7);
  plane.crash_host(HostId{1}, 1.0, 2.0);
  EXPECT_TRUE(plane.host_up(HostId{1}, 0.5));
  EXPECT_FALSE(plane.host_up(HostId{1}, 1.0));
  EXPECT_FALSE(plane.host_up(HostId{1}, 1.999));
  EXPECT_TRUE(plane.host_up(HostId{1}, 2.0));  // half-open window
  // Every attempt of an exchange inside the window is lost to it, so
  // the retries do not help and the failure is typed kPeerDown.
  const RetryPolicy once = one_shot();
  const ExchangeResult lost =
      plane.exchange(HostId{0}, HostId{1}, 1.0, &once);
  EXPECT_EQ(lost.status, ExchangeStatus::kPeerDown);
  EXPECT_EQ(lost.transmissions, 1);
  const ExchangeResult retried =
      plane.exchange(HostId{0}, HostId{1}, 1.5, nullptr);
  EXPECT_EQ(retried.status, ExchangeStatus::kPeerDown);
  EXPECT_EQ(retried.transmissions, 4);
  // At the window's end the host is back.
  EXPECT_TRUE(plane.exchange(HostId{0}, HostId{1}, 2.0, nullptr).ok());
}

TEST(FaultPlane, TransportExchangeReflectsHostState) {
  FaultPlane plane(5);
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

TEST(RetryPolicy, ZeroRetryBudgetGivesUpAfterOneAttempt) {
  FaultConfig always_drop;
  always_drop.drop_prob = 1.0;
  FaultPlane plane(7, always_drop);
  const RetryPolicy once = one_shot();  // no retries at all
  const ExchangeResult r = plane.exchange(HostId{0}, HostId{1}, 10.0, &once);
  EXPECT_EQ(r.status, ExchangeStatus::kTimeout);
  EXPECT_EQ(r.transmissions, 1);
  EXPECT_EQ(plane.totals().transmissions, 1u);
  EXPECT_EQ(plane.totals().failed_messages, 1u);
}

}  // namespace
}  // namespace qres
