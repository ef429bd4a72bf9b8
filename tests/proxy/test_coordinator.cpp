#include "proxy/qos_proxy.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"

namespace qres {
namespace {

using test::rv;

// A two-component chain bound to two registry-backed resources.
struct Fixture {
  BrokerRegistry registry;
  ResourceId cpu =
      registry.add_resource("cpu", ResourceKind::kCpu, HostId{0}, 100.0);
  ResourceId bw = registry.add_resource(
      "bw", ResourceKind::kNetworkBandwidth, HostId{}, 50.0);
  ServiceDefinition service = make_service();
  SessionCoordinator coordinator{&service, {cpu, bw}, &registry};
  BasicPlanner planner;
  Rng rng{7};

  ServiceDefinition make_service() {
    TranslationTable t0, t1;
    t0.set(0, 0, rv({{cpu, 20.0}}));
    t0.set(0, 1, rv({{cpu, 10.0}}));
    t1.set(0, 0, rv({{bw, 30.0}}));
    t1.set(1, 0, rv({{bw, 40.0}}));
    t1.set(1, 1, rv({{bw, 10.0}}));
    return test::make_chain({{2, t0}, {2, t1}});
  }
};

TEST(SessionCoordinator, SuccessfulEstablishmentReserves) {
  Fixture f;
  const EstablishResult result =
      f.coordinator.establish(SessionId{1}, 1.0, f.planner, f.rng);
  ASSERT_TRUE(result.success);
  ASSERT_TRUE(result.plan.has_value());
  EXPECT_EQ(result.plan->end_to_end_rank, 0u);
  // Best plan: c0 out0 (cpu 20), c1 (0->0) bw 30.
  EXPECT_EQ(f.registry.broker(f.cpu).available(), 80.0);
  EXPECT_EQ(f.registry.broker(f.bw).available(), 20.0);
  ASSERT_EQ(result.holdings.size(), 2u);
}

TEST(SessionCoordinator, TeardownReleasesEverything) {
  Fixture f;
  const EstablishResult result =
      f.coordinator.establish(SessionId{1}, 1.0, f.planner, f.rng);
  ASSERT_TRUE(result.success);
  f.coordinator.teardown(result.holdings, SessionId{1}, 2.0);
  EXPECT_EQ(f.registry.broker(f.cpu).available(), 100.0);
  EXPECT_EQ(f.registry.broker(f.bw).available(), 50.0);
}

TEST(SessionCoordinator, PlansDegradeUnderLoad) {
  Fixture f;
  // Occupy most of bw: only the level-1 plan (bw 10) remains feasible.
  ASSERT_TRUE(f.registry.broker(f.bw).reserve(0.5, SessionId{99}, 35.0));
  const EstablishResult result =
      f.coordinator.establish(SessionId{1}, 1.0, f.planner, f.rng);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.plan->end_to_end_rank, 1u);
}

TEST(SessionCoordinator, FailsWithoutFeasiblePlan) {
  Fixture f;
  ASSERT_TRUE(f.registry.broker(f.cpu).reserve(0.5, SessionId{99}, 95.0));
  const EstablishResult result =
      f.coordinator.establish(SessionId{1}, 1.0, f.planner, f.rng);
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.plan.has_value());
  EXPECT_TRUE(result.holdings.empty());
  // Nothing further was reserved.
  EXPECT_EQ(f.registry.broker(f.cpu).available(), 5.0);
  EXPECT_EQ(f.registry.broker(f.bw).available(), 50.0);
}

TEST(SessionCoordinator, FatSessionScalesRequirement) {
  Fixture f;
  // With scale 2 the level-0 plans need bw 60 or 80 (> capacity 50), so
  // the session settles for level 1: cpu 2*10, bw 2*10.
  const EstablishResult result = f.coordinator.establish(
      SessionId{1}, 1.0, f.planner, f.rng, /*scale=*/2.0);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.plan->end_to_end_rank, 1u);
  EXPECT_EQ(f.registry.broker(f.cpu).available(), 80.0);
  EXPECT_EQ(f.registry.broker(f.bw).available(), 30.0);
}

TEST(SessionCoordinator, StaleObservationCanCauseAdmissionFailure) {
  Fixture f;
  // Consume bw at t=10; a session planning with observations from t<10
  // believes bw is free, plans accordingly, and the atomic reservation
  // fails and rolls back the cpu reservation.
  ASSERT_TRUE(f.registry.broker(f.bw).reserve(10.0, SessionId{99}, 45.0));
  const EstablishResult result = f.coordinator.establish(
      SessionId{1}, 12.0, f.planner, f.rng, 1.0,
      [](ResourceId) { return 5.0; });
  EXPECT_FALSE(result.success);
  ASSERT_TRUE(result.plan.has_value());  // planning "succeeded"
  EXPECT_GT(result.stats.reservations_rolled_back, 0u);
  EXPECT_EQ(f.registry.broker(f.cpu).available(), 100.0);  // rolled back
  EXPECT_EQ(f.registry.broker(f.bw).available(), 5.0);
}

TEST(SessionCoordinator, OverheadStatsCountProxiesAndMessages) {
  Fixture f;
  // Components run on two distinct hosts (0 and invalid -> counted once).
  const EstablishResult result =
      f.coordinator.establish(SessionId{1}, 1.0, f.planner, f.rng);
  EXPECT_GE(result.stats.participating_proxies, 1u);
  EXPECT_EQ(result.stats.availability_messages,
            result.stats.participating_proxies);
  EXPECT_EQ(result.stats.dispatch_messages, 2u);  // one per plan segment
  EXPECT_EQ(result.stats.reservations_attempted, 2u);
}

TEST(SessionCoordinator, ConstructionContracts) {
  Fixture f;
  EXPECT_THROW(SessionCoordinator(nullptr, {f.cpu}, &f.registry),
               ContractViolation);
  EXPECT_THROW(SessionCoordinator(&f.service, {}, &f.registry),
               ContractViolation);
  EXPECT_THROW(SessionCoordinator(&f.service, {f.cpu}, nullptr),
               ContractViolation);
}

}  // namespace
}  // namespace qres
