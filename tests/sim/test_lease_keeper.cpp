#include "sim/lease_keeper.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/assert.hpp"

namespace qres {
namespace {

struct Fixture {
  EventQueue queue;
  BrokerRegistry registry;
  ResourceId cpu =
      registry.add_resource("cpu", ResourceKind::kCpu, HostId{1}, 100.0);
  ResourceId mem =
      registry.add_resource("mem", ResourceKind::kMemory, HostId{1}, 80.0);
  LeaseConfig config{10.0, 3.0};
  LeaseKeeper keeper{&queue, &registry, config};
};

TEST(LeaseKeeper, Contracts) {
  EventQueue q;
  BrokerRegistry r;
  EXPECT_THROW(LeaseKeeper(nullptr, &r), ContractViolation);
  EXPECT_THROW(LeaseKeeper(&q, nullptr), ContractViolation);
  LeaseConfig bad{3.0, 3.0};  // lease must exceed the renew period
  EXPECT_THROW(LeaseKeeper(&q, &r, bad), ContractViolation);
  LeaseKeeper keeper(&q, &r);
  EXPECT_THROW(keeper.manage(SessionId{}, HostId{1}, {ResourceId{0}}),
               ContractViolation);
  EXPECT_THROW(keeper.manage(SessionId{1}, HostId{1}, {}),
               ContractViolation);
}

TEST(LeaseKeeper, RenewalsKeepLeasedHoldingsAlive) {
  Fixture f;
  const SessionId s{1};
  ASSERT_TRUE(f.registry.broker(f.cpu).reserve_leased(0.0, s, 30.0, 10.0));
  f.keeper.manage(s, HostId{1}, {f.cpu});
  // Far past the original lease deadline: renewals every 3 TU kept the
  // holding alive the whole time.
  f.queue.run_until(35.0);
  EXPECT_EQ(f.registry.broker(f.cpu).available(), 70.0);
  EXPECT_TRUE(f.keeper.managing(s));
  EXPECT_GT(f.registry.broker(f.cpu).lease_deadline(s), 35.0);
  f.keeper.forget(s);  // stop the renewal loop so the queue drains
  f.queue.run_all();
}

TEST(LeaseKeeper, CrashedOwnerStopsRenewingAndHoldingsExpire) {
  Fixture f;
  FaultPlane plane(42);
  plane.crash_host(HostId{1}, 4.0, 100.0);
  f.keeper.attach_faults(&plane);

  const SessionId s{1};
  ASSERT_TRUE(f.registry.broker(f.cpu).reserve_leased(0.0, s, 30.0, 10.0));
  ASSERT_TRUE(f.registry.broker(f.mem).reserve_leased(0.0, s, 20.0, 10.0));
  f.keeper.manage(s, HostId{1}, {f.cpu, f.mem});

  std::vector<SessionId> expired;
  f.keeper.set_expiry_listener(
      [&expired](SessionId gone) { expired.push_back(gone); });

  // Renewal at t=3 extends the leases to 13; every later tick is
  // suppressed by the crash window, so the leases run out at 13 and the
  // t=15 sweep reclaims everything.
  f.queue.run_all();
  ASSERT_EQ(expired.size(), 1u);  // fires once, not once per resource
  EXPECT_EQ(expired.front(), s);
  EXPECT_FALSE(f.keeper.managing(s));
  EXPECT_EQ(f.registry.broker(f.cpu).available(), 100.0);
  EXPECT_EQ(f.registry.broker(f.mem).available(), 80.0);
}

TEST(LeaseKeeper, LostLeaseReleasesSurvivingHoldingsToo) {
  Fixture f;
  const SessionId s{2};
  ASSERT_TRUE(f.registry.broker(f.cpu).reserve_leased(0.0, s, 10.0, 10.0));
  // mem was reserved permanently (no lease): renew_lease fails there, the
  // keeper treats the session as lost and releases cpu AND mem, keeping
  // the accounting whole rather than leaking the survivor.
  ASSERT_TRUE(f.registry.broker(f.mem).reserve(0.0, s, 10.0));
  f.keeper.manage(s, HostId{1}, {f.cpu, f.mem});
  std::vector<SessionId> expired;
  f.keeper.set_expiry_listener(
      [&expired](SessionId gone) { expired.push_back(gone); });
  f.queue.run_all();
  EXPECT_EQ(expired.size(), 1u);
  EXPECT_EQ(f.registry.broker(f.cpu).available(), 100.0);
  EXPECT_EQ(f.registry.broker(f.mem).available(), 80.0);
}

TEST(LeaseKeeper, ForgetStopsTheRenewalLoop) {
  Fixture f;
  const SessionId s{3};
  ASSERT_TRUE(f.registry.broker(f.cpu).reserve_leased(0.0, s, 30.0, 10.0));
  f.keeper.manage(s, HostId{1}, {f.cpu});
  f.keeper.forget(s);
  EXPECT_FALSE(f.keeper.managing(s));
  f.queue.run_all();  // terminates: the pending tick is a stale epoch
  // Nobody renewed after forget: the broker reclaims at the deadline.
  std::vector<SessionId> gone;
  EXPECT_EQ(f.registry.broker(f.cpu).expire_due(11.0, &gone), 30.0);
  ASSERT_EQ(gone.size(), 1u);
  EXPECT_EQ(gone.front(), s);
  EXPECT_EQ(f.registry.broker(f.cpu).available(), 100.0);
}

TEST(LeaseKeeper, ReManageSupersedesTheOldEpoch) {
  Fixture f;
  const SessionId s{4};
  ASSERT_TRUE(f.registry.broker(f.cpu).reserve_leased(0.0, s, 10.0, 10.0));
  f.keeper.manage(s, HostId{1}, {f.cpu});
  f.keeper.manage(s, HostId{1}, {f.cpu});  // re-manage: new epoch
  f.queue.run_until(20.0);
  EXPECT_TRUE(f.keeper.managing(s));
  EXPECT_EQ(f.keeper.managed_count(), 1u);
  EXPECT_EQ(f.registry.broker(f.cpu).available(), 90.0);
  f.keeper.forget(s);
  f.queue.run_all();
}

}  // namespace
}  // namespace qres
