#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "proxy/qos_proxy.hpp"

namespace qres {
namespace {

using test::rv;

// Two alternative middle operating points over two *distinct* resources,
// so a stale view can mislead the psi-minimal plan while the alternative
// still fits.
struct Fixture {
  BrokerRegistry registry;
  ResourceId r_cheap =
      registry.add_resource("cheap", ResourceKind::kCpu, HostId{}, 100.0);
  ResourceId r_alt =
      registry.add_resource("alt", ResourceKind::kCpu, HostId{}, 100.0);
  ServiceDefinition service = make_service();
  SessionCoordinator coordinator{&service, {r_cheap, r_alt}, &registry};
  BasicPlanner planner;
  Rng rng{3};

  ServiceDefinition make_service() {
    TranslationTable t0, t1;
    t0.set(0, 0, rv({{r_cheap, 10.0}}));  // psi 0.1 when fresh
    t0.set(0, 1, rv({{r_alt, 30.0}}));    // psi 0.3
    t1.set(0, 0, rv({{r_cheap, 1.0}}));
    t1.set(1, 0, rv({{r_alt, 1.0}}));
    return test::make_chain({{2, t0}, {1, t1}});
  }
};

EstablishPolicy fallback(std::size_t attempts) {
  EstablishPolicy policy;
  policy.fallback_attempts = attempts;
  return policy;
}

TEST(EstablishResilient, BehavesLikeEstablishWhenFresh) {
  Fixture f;
  const EstablishResult resilient = f.coordinator.establish(
      SessionId{1}, 1.0, f.planner, f.rng, 1.0, nullptr, fallback(4));
  ASSERT_TRUE(resilient.success);
  EXPECT_DOUBLE_EQ(resilient.plan->bottleneck_psi, 0.1);
  f.coordinator.teardown(resilient.holdings, SessionId{1}, 1.5);

  const EstablishResult plain =
      f.coordinator.establish(SessionId{2}, 2.0, f.planner, f.rng);
  ASSERT_TRUE(plain.success);
  EXPECT_DOUBLE_EQ(plain.plan->bottleneck_psi,
                   resilient.plan->bottleneck_psi);
}

TEST(EstablishResilient, FallsBackWhenStalePlanIsRejected) {
  Fixture f;
  // Exhaust r_cheap at t=10; a session observing the world as of t=5
  // plans onto r_cheap, gets rejected, and must fall back to the r_alt
  // plan — which still succeeds.
  ASSERT_TRUE(f.registry.broker(f.r_cheap).reserve(10.0, SessionId{9},
                                                   95.0));
  const auto stale = [](ResourceId) { return 5.0; };
  const EstablishResult one_shot = f.coordinator.establish(
      SessionId{1}, 12.0, f.planner, f.rng, 1.0, stale, fallback(1));
  EXPECT_FALSE(one_shot.success);
  ASSERT_TRUE(one_shot.plan.has_value());  // planning succeeded, stale
  EXPECT_GT(one_shot.stats.reservations_attempted, 0u);

  const EstablishResult with_fallback = f.coordinator.establish(
      SessionId{2}, 12.5, f.planner, f.rng, 1.0, stale, fallback(2));
  ASSERT_TRUE(with_fallback.success);
  // The successful plan is the alternative (entirely over r_alt).
  EXPECT_DOUBLE_EQ(with_fallback.plan->total_requirement().get(f.r_alt),
                   31.0);
  EXPECT_EQ(with_fallback.plan->total_requirement().get(f.r_cheap), 0.0);
}

TEST(EstablishResilient, DescendsToLowerSinksWhenNeeded) {
  BrokerRegistry registry;
  const ResourceId r =
      registry.add_resource("r", ResourceKind::kCpu, HostId{}, 100.0);
  TranslationTable t;
  t.set(0, 0, rv({{r, 50.0}}));  // level 0
  t.set(0, 1, rv({{r, 10.0}}));  // level 1
  ServiceDefinition service = test::make_chain({{2, t}});
  SessionCoordinator coordinator(&service, {r}, &registry);
  BasicPlanner planner;
  Rng rng(1);
  // Stale view (t=0) says 100 free; reality: only 20 free.
  ASSERT_TRUE(registry.broker(r).reserve(10.0, SessionId{9}, 80.0));
  const EstablishResult result = coordinator.establish(
      SessionId{1}, 12.0, planner, rng, 1.0, [](ResourceId) { return 12.0; },
      fallback(4));
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.plan->end_to_end_rank, 1u);  // degraded but admitted
}

TEST(EstablishResilient, RespectsAttemptBudget) {
  Fixture f;
  ASSERT_TRUE(f.registry.broker(f.r_cheap).reserve(10.0, SessionId{8},
                                                   95.0));
  ASSERT_TRUE(f.registry.broker(f.r_alt).reserve(10.5, SessionId{9}, 95.0));
  const EstablishResult result = f.coordinator.establish(
      SessionId{1}, 12.0, f.planner, f.rng, 1.0,
      [](ResourceId) { return 5.0; }, fallback(2));
  EXPECT_FALSE(result.success);
  // One reservation per dispatched plan (each plan needs one resource).
  EXPECT_EQ(result.stats.reservations_attempted, 2u);
  EXPECT_EQ(result.outcome, EstablishOutcome::kAdmission);
  // The reported plan stays the planner's first choice.
  EXPECT_DOUBLE_EQ(result.plan->total_requirement().get(f.r_cheap), 11.0);
}

TEST(EstablishResilient, Contracts) {
  Fixture f;
  EXPECT_THROW(f.coordinator.establish(SessionId{1}, 1.0, f.planner, f.rng,
                                      1.0, nullptr, fallback(0)),
               ContractViolation);
  EstablishPolicy negative;
  negative.max_replans = -1;
  EXPECT_THROW(f.coordinator.establish(SessionId{1}, 1.0, f.planner, f.rng,
                                      1.0, nullptr, negative),
               ContractViolation);
}

}  // namespace
}  // namespace qres
