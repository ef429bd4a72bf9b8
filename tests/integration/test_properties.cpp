// Cross-module property tests over randomized services and availability:
// the invariants that tie the QRG, the planners and the reservation layer
// together.
#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "core/random_planner.hpp"
#include "proxy/qos_proxy.hpp"

namespace qres {
namespace {

using test::make_chain;
using test::rv;

struct RandomChain {
  ServiceDefinition service;
  AvailabilityView view;
  std::vector<ResourceId> resources;
};

RandomChain make_random_chain(Rng& rng) {
  const int resource_count = rng.uniform_int(2, 4);
  std::vector<ResourceId> resources;
  AvailabilityView view;
  for (int r = 0; r < resource_count; ++r) {
    resources.push_back(ResourceId{static_cast<std::uint32_t>(r)});
    view.set(resources.back(), rng.uniform(30.0, 120.0),
             rng.uniform(0.5, 1.5));
  }
  const int k = rng.uniform_int(2, 4);
  std::vector<std::pair<int, TranslationTable>> components;
  int prev = 1;
  for (int c = 0; c < k; ++c) {
    const int levels = rng.uniform_int(2, 4);
    TranslationTable table;
    for (int in = 0; in < prev; ++in)
      for (int out = 0; out < levels; ++out)
        if (rng.bernoulli(0.65)) {
          ResourceVector req;
          // 1-2 random resources per operating point.
          const int uses = rng.uniform_int(1, 2);
          for (int u = 0; u < uses; ++u)
            req.set(resources[static_cast<std::size_t>(rng.uniform_int(
                        0, resource_count - 1))],
                    rng.uniform(1.0, 60.0));
          table.set(static_cast<LevelIndex>(in),
                    static_cast<LevelIndex>(out), req);
        }
    if (table.size() == 0)
      table.set(0, 0, rv({{resources[0], 1.0}}));
    components.push_back({levels, std::move(table)});
    prev = levels;
  }
  return RandomChain{make_chain(components), std::move(view),
                     std::move(resources)};
}

class CrossModuleProperties : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CrossModuleProperties, QrgStructuralInvariants) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const RandomChain world = make_random_chain(rng);
    const Qrg qrg(world.service, world.view);
    // Node count = sum of derived input levels + output levels.
    std::size_t expected_nodes = 0;
    for (ComponentIndex c = 0; c < world.service.component_count(); ++c)
      expected_nodes += world.service.in_level_count(c) +
                        world.service.component(c).out_level_count();
    EXPECT_EQ(qrg.node_count(), expected_nodes);
    for (std::uint32_t e = 0; e < qrg.edge_count(); ++e) {
      const QrgEdge& edge = qrg.edge(e);
      if (edge.is_translation) {
        // Every translation edge is feasible under the snapshot and its
        // weight is the max per-resource contention index.
        double expected_psi = 0.0;
        for (const auto& [rid, amount] : qrg.requirement(e)) {
          const double avail = world.view.get(rid).available;
          EXPECT_LE(amount, avail);
          expected_psi = std::max(expected_psi, amount / avail);
        }
        EXPECT_NEAR(edge.psi, expected_psi, 1e-12);
        EXPECT_GE(edge.psi, 0.0);
        EXPECT_LE(edge.psi, 1.0);
      } else {
        EXPECT_EQ(edge.psi, 0.0);
        EXPECT_TRUE(qrg.requirement(e).empty());
      }
    }
  }
}

TEST_P(CrossModuleProperties, BasicIsMinimaxAmongSampledPlans) {
  Rng rng(GetParam() + 1);
  for (int trial = 0; trial < 20; ++trial) {
    const RandomChain world = make_random_chain(rng);
    const Qrg qrg(world.service, world.view);
    Rng planner_rng(7);
    const PlanResult best = BasicPlanner().plan(qrg, planner_rng);
    if (!best.plan) continue;
    RandomPlanner random;
    for (int sample = 0; sample < 15; ++sample) {
      const PlanResult sampled = random.plan(qrg, planner_rng);
      ASSERT_TRUE(sampled.plan.has_value());
      EXPECT_EQ(sampled.plan->end_to_end_rank, best.plan->end_to_end_rank);
      EXPECT_GE(sampled.plan->bottleneck_psi,
                best.plan->bottleneck_psi - 1e-12);
    }
  }
}

TEST_P(CrossModuleProperties, TradeoffNeverOutranksBasic) {
  Rng rng(GetParam() + 2);
  for (int trial = 0; trial < 25; ++trial) {
    const RandomChain world = make_random_chain(rng);
    const Qrg qrg(world.service, world.view);
    Rng planner_rng(7);
    const PlanResult basic = BasicPlanner().plan(qrg, planner_rng);
    const PlanResult tradeoff = TradeoffPlanner().plan(qrg, planner_rng);
    ASSERT_EQ(basic.plan.has_value(), tradeoff.plan.has_value());
    if (!basic.plan) continue;
    // The tradeoff policy only ever moves DOWN the ranking, and its
    // chosen plan's bottleneck never exceeds basic's.
    EXPECT_GE(tradeoff.plan->end_to_end_rank, basic.plan->end_to_end_rank);
    EXPECT_LE(tradeoff.plan->bottleneck_psi,
              basic.plan->bottleneck_psi + 1e-12);
  }
}

TEST_P(CrossModuleProperties, HoldingsMatchThePlan) {
  Rng rng(GetParam() + 3);
  for (int trial = 0; trial < 15; ++trial) {
    const RandomChain world = make_random_chain(rng);
    // Mirror the availability into a broker registry (fresh world).
    BrokerRegistry registry;
    std::vector<ResourceId> ids;
    for (ResourceId r : world.resources)
      ids.push_back(registry.add_resource(
          "r" + std::to_string(r.value()), ResourceKind::kCpu, HostId{},
          world.view.get(r).available));
    SessionCoordinator coordinator(&world.service, ids, &registry);
    BasicPlanner planner;
    Rng planner_rng(3);
    const EstablishResult result =
        coordinator.establish(SessionId{1}, 1.0, planner, planner_rng);
    if (!result.success) continue;
    // Holdings equal the plan's aggregated requirement, resource by
    // resource, and teardown restores every broker exactly.
    const ResourceVector total = result.plan->total_requirement();
    double holdings_sum = 0.0, total_sum = 0.0;
    for (const auto& [id, amount] : result.holdings) holdings_sum += amount;
    for (const auto& [id, amount] : total) total_sum += amount;
    EXPECT_NEAR(holdings_sum, total_sum, 1e-9);
    coordinator.teardown(result.holdings, SessionId{1}, 2.0);
    for (ResourceId id : ids) {
      const IBroker& broker = registry.broker(id);
      EXPECT_NEAR(broker.available(), broker.capacity(), 1e-9);
    }
  }
}

TEST_P(CrossModuleProperties, SinkInfoConsistentWithPlan) {
  Rng rng(GetParam() + 4);
  for (int trial = 0; trial < 25; ++trial) {
    const RandomChain world = make_random_chain(rng);
    const Qrg qrg(world.service, world.view);
    Rng planner_rng(7);
    const PlanResult result = BasicPlanner().plan(qrg, planner_rng);
    // Sink diagnostics cover every end-to-end level, in rank order.
    EXPECT_EQ(result.sinks.size(),
              world.service.end_to_end_ranking().size());
    for (std::size_t r = 0; r < result.sinks.size(); ++r)
      EXPECT_EQ(result.sinks[r].rank, r);
    if (result.plan) {
      const SinkInfo& chosen = result.sinks[result.plan->end_to_end_rank];
      EXPECT_TRUE(chosen.reachable);
      // On chains the plan's bottleneck equals the pass-I sink value.
      EXPECT_NEAR(chosen.psi, result.plan->bottleneck_psi, 1e-12);
      // No higher-ranked sink is reachable.
      for (std::size_t r = 0; r < result.plan->end_to_end_rank; ++r)
        EXPECT_FALSE(result.sinks[r].reachable);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossModuleProperties,
                         ::testing::Values(1001, 2002, 3003, 4004));

}  // namespace
}  // namespace qres
