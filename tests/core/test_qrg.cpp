#include "core/qrg.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "../test_helpers.hpp"
#include "core/planner.hpp"
#include "util/thread_pool.hpp"

namespace qres {
namespace {

using test::avail;
using test::make_chain;
using test::rv;

const ResourceId cpu{0}, bw{1};

// A two-component chain: source quality -> c0 (2 outs) -> c1 (2 outs).
ServiceDefinition two_chain() {
  TranslationTable t0;
  t0.set(0, 0, rv({{cpu, 8.0}}));
  t0.set(0, 1, rv({{cpu, 4.0}}));
  TranslationTable t1;
  t1.set(0, 0, rv({{bw, 10.0}}));
  t1.set(0, 1, rv({{bw, 5.0}}));
  t1.set(1, 1, rv({{bw, 6.0}}));
  return make_chain({{2, t0}, {2, t1}});
}

TEST(Qrg, NodeLayoutAndNaming) {
  const ServiceDefinition service = two_chain();
  const Qrg qrg(service, avail({{cpu, 100}, {bw, 100}}));
  // Nodes: source in (Qa), c0 outs (Qb, Qc), c1 ins (Qd, Qe),
  // c1 outs (Qf, Qg).
  EXPECT_EQ(qrg.node_count(), 7u);
  EXPECT_EQ(qrg.node_name(qrg.source_node()), "Qa");
  EXPECT_EQ(qrg.node_name(qrg.node_of(0, QrgNodeKind::kOut, 0)), "Qb");
  EXPECT_EQ(qrg.node_name(qrg.node_of(0, QrgNodeKind::kOut, 1)), "Qc");
  EXPECT_EQ(qrg.node_name(qrg.node_of(1, QrgNodeKind::kIn, 0)), "Qd");
  EXPECT_EQ(qrg.node_name(qrg.node_of(1, QrgNodeKind::kOut, 0)), "Qf");
  EXPECT_EQ(qrg.node_name(qrg.node_of(1, QrgNodeKind::kOut, 1)), "Qg");
}

TEST(Qrg, LabelsBeyondZ) {
  EXPECT_EQ(Qrg::label(0), "Qa");
  EXPECT_EQ(Qrg::label(25), "Qz");
  EXPECT_EQ(Qrg::label(26), "Qaa");
  EXPECT_EQ(Qrg::label(27), "Qab");
  EXPECT_EQ(Qrg::label(51), "Qaz");
  EXPECT_EQ(Qrg::label(52), "Qba");
}

TEST(Qrg, NodeNameValidatesIndex) {
  const ServiceDefinition service = two_chain();
  const Qrg qrg(service, avail({{cpu, 100}, {bw, 100}}));
  EXPECT_THROW(qrg.node_name(1000), ContractViolation);
}

TEST(Qrg, TranslationEdgeWeightsFollowEq2And3) {
  const ServiceDefinition service = two_chain();
  const Qrg qrg(service, avail({{cpu, 40}, {bw, 100}}));
  // c0: 0->out0 requires cpu 8 of 40 -> psi 0.2.
  const std::uint32_t e =
      qrg.find_edge(qrg.source_node(), qrg.node_of(0, QrgNodeKind::kOut, 0));
  ASSERT_NE(e, QrgEdge::kNone);
  EXPECT_DOUBLE_EQ(qrg.edge(e).psi, 0.2);
  EXPECT_EQ(qrg.edge(e).bottleneck, cpu);
  EXPECT_TRUE(qrg.edge(e).is_translation);
}

TEST(Qrg, MultiResourceEdgeTakesMaxPsi) {
  TranslationTable t0;
  t0.set(0, 0, rv({{cpu, 10.0}, {bw, 30.0}}));
  const ServiceDefinition service = make_chain({{1, t0}});
  const Qrg qrg(service, avail({{cpu, 100}, {bw, 60}}));
  const std::uint32_t e =
      qrg.find_edge(qrg.source_node(), qrg.node_of(0, QrgNodeKind::kOut, 0));
  ASSERT_NE(e, QrgEdge::kNone);
  EXPECT_DOUBLE_EQ(qrg.edge(e).psi, 0.5);  // max(0.1, 0.5)
  EXPECT_EQ(qrg.edge(e).bottleneck, bw);
}

TEST(Qrg, InfeasibleOperatingPointsHaveNoEdge) {
  const ServiceDefinition service = two_chain();
  // cpu availability 5 admits only the cpu-4 operating point of c0.
  const Qrg qrg(service, avail({{cpu, 5}, {bw, 100}}));
  EXPECT_EQ(qrg.find_edge(qrg.source_node(),
                          qrg.node_of(0, QrgNodeKind::kOut, 0)),
            QrgEdge::kNone);
  EXPECT_NE(qrg.find_edge(qrg.source_node(),
                          qrg.node_of(0, QrgNodeKind::kOut, 1)),
            QrgEdge::kNone);
}

TEST(Qrg, ZeroAvailabilityAdmitsNothing) {
  const ServiceDefinition service = two_chain();
  const Qrg qrg(service, avail({{cpu, 0}, {bw, 100}}));
  EXPECT_EQ(qrg.find_edge(qrg.source_node(),
                          qrg.node_of(0, QrgNodeKind::kOut, 1)),
            QrgEdge::kNone);
}

TEST(Qrg, SessionScaleMultipliesRequirements) {
  const ServiceDefinition service = two_chain();
  // With scale 10, c0's cheaper operating point needs cpu 40 > 30.
  const Qrg qrg(service, avail({{cpu, 30}, {bw, 1000}}),
                PsiKind::kRatio, 10.0);
  EXPECT_EQ(qrg.find_edge(qrg.source_node(),
                          qrg.node_of(0, QrgNodeKind::kOut, 1)),
            QrgEdge::kNone);
  const Qrg unscaled(service, avail({{cpu, 30}, {bw, 1000}}));
  const std::uint32_t e = unscaled.find_edge(
      unscaled.source_node(), unscaled.node_of(0, QrgNodeKind::kOut, 1));
  ASSERT_NE(e, QrgEdge::kNone);
  // And scaled requirements carry the scaled amount on the edge.
  const Qrg scaled2(service, avail({{cpu, 30}, {bw, 1000}}),
                    PsiKind::kRatio, 2.0);
  const std::uint32_t e2 = scaled2.find_edge(
      scaled2.source_node(), scaled2.node_of(0, QrgNodeKind::kOut, 1));
  ASSERT_NE(e2, QrgEdge::kNone);
  EXPECT_DOUBLE_EQ(scaled2.requirement(e2).get(cpu), 8.0);
}

TEST(Qrg, EquivalenceEdgesAreZeroWeight) {
  const ServiceDefinition service = two_chain();
  const Qrg qrg(service, avail({{cpu, 100}, {bw, 100}}));
  const std::uint32_t e =
      qrg.find_edge(qrg.node_of(0, QrgNodeKind::kOut, 0),
                    qrg.node_of(1, QrgNodeKind::kIn, 0));
  ASSERT_NE(e, QrgEdge::kNone);
  EXPECT_EQ(qrg.edge(e).psi, 0.0);
  EXPECT_FALSE(qrg.edge(e).is_translation);
  EXPECT_TRUE(qrg.requirement(e).empty());
}

TEST(Qrg, AlphaPropagatesFromObservation) {
  const ServiceDefinition service = two_chain();
  AvailabilityView view;
  view.set(cpu, 100.0, 0.8);
  view.set(bw, 100.0, 1.2);
  const Qrg qrg(service, view);
  const std::uint32_t e =
      qrg.find_edge(qrg.source_node(), qrg.node_of(0, QrgNodeKind::kOut, 0));
  ASSERT_NE(e, QrgEdge::kNone);
  EXPECT_DOUBLE_EQ(qrg.edge(e).alpha, 0.8);
}

TEST(Qrg, MissingResourceInSnapshotThrows) {
  const ServiceDefinition service = two_chain();
  EXPECT_THROW(Qrg(service, avail({{cpu, 100}})), ContractViolation);
}

TEST(Qrg, RankedSinksFollowServiceRanking) {
  ServiceDefinition service = two_chain();
  service.set_end_to_end_ranking({1, 0});
  const Qrg qrg(service, avail({{cpu, 100}, {bw, 100}}));
  ASSERT_EQ(qrg.ranked_sink_nodes().size(), 2u);
  EXPECT_EQ(qrg.node(qrg.ranked_sink_nodes()[0]).level, 1u);
  EXPECT_EQ(qrg.node(qrg.ranked_sink_nodes()[1]).level, 0u);
}

TEST(Qrg, RankingChangedAfterCompilationIsFollowed) {
  ServiceDefinition service = two_chain();
  const AvailabilityView view = avail({{cpu, 100}, {bw, 100}});
  Rng rng(1);
  const PlanResult first = BasicPlanner().plan(Qrg(service, view), rng);
  ASSERT_TRUE(first.plan.has_value());
  EXPECT_EQ(first.plan->end_to_end_level, 0u);

  // The ranking is read when a Qrg is built, not frozen at compilation.
  service.set_end_to_end_ranking({1, 0});
  const Qrg qrg(service, view);
  EXPECT_EQ(&qrg.compiled(), &service.compiled());
  ASSERT_EQ(qrg.ranked_sink_nodes().size(), 2u);
  EXPECT_EQ(qrg.node(qrg.ranked_sink_nodes()[0]).level, 1u);
  EXPECT_EQ(qrg.node(qrg.ranked_sink_nodes()[1]).level, 0u);
  const PlanResult second = BasicPlanner().plan(qrg, rng);
  ASSERT_TRUE(second.plan.has_value());
  EXPECT_EQ(second.plan->end_to_end_level, 1u);
  EXPECT_EQ(second.plan->end_to_end_rank, 0u);
}

TEST(Qrg, CopiedServiceCompilesAfresh) {
  const ServiceDefinition service = two_chain();
  const ServiceDefinition copy = service;
  const AvailabilityView view = avail({{cpu, 40}, {bw, 100}});
  const Qrg warm(service, view);
  const Qrg cold(copy, view);
  EXPECT_NE(&warm.compiled(), &cold.compiled());
  ASSERT_EQ(warm.edge_count(), cold.edge_count());
  for (std::uint32_t e = 0; e < warm.edge_count(); ++e) {
    EXPECT_EQ(warm.edge(e).from, cold.edge(e).from);
    EXPECT_EQ(warm.edge(e).to, cold.edge(e).to);
    EXPECT_EQ(warm.edge(e).psi, cold.edge(e).psi);
    EXPECT_EQ(warm.requirement(e), cold.requirement(e));
  }
}

TEST(QrgConcurrency, FirstQrgsOnPoolWorkersCompileOnce) {
  // A fresh 6 x 12 chain whose translation calls are counted: compiling
  // evaluates each (input, output) pair exactly once.
  constexpr int kComponents = 6;
  constexpr int kLevels = 12;
  std::atomic<int> calls{0};
  std::vector<ServiceComponent> components;
  std::vector<std::pair<ComponentIndex, ComponentIndex>> edges;
  int domain = 0;
  AvailabilityView view;
  for (int c = 0; c < kComponents; ++c) {
    const ResourceId r{static_cast<std::uint32_t>(c)};
    view.set(r, 100.0, 0.5 + 0.1 * c);
    const int ins = c == 0 ? 1 : kLevels;
    domain += ins * kLevels;
    TranslationTable table;
    for (int in = 0; in < ins; ++in)
      for (int out = 0; out < kLevels; ++out)
        if ((in + out) % 3 != 0)
          table.set(static_cast<LevelIndex>(in), static_cast<LevelIndex>(out),
                    test::rv({{r, 10.0 + (in * 7 + out * 13) % 80}}));
    TranslationFn counted = [fn = table.as_function(), &calls](
                                LevelIndex in, LevelIndex out) {
      calls.fetch_add(1, std::memory_order_relaxed);
      return fn(in, out);
    };
    components.emplace_back("c" + std::to_string(c), test::levels(kLevels),
                            std::move(counted));
    if (c > 0)
      edges.push_back({static_cast<ComponentIndex>(c - 1),
                       static_cast<ComponentIndex>(c)});
  }
  const ServiceDefinition service("counted", std::move(components),
                                  std::move(edges), test::q(10));

  constexpr std::size_t kWorkers = 4;
  ThreadPool pool(kWorkers);
  std::atomic<std::size_t> arrived{0};
  std::vector<const CompiledService*> compiled(kWorkers, nullptr);
  std::vector<std::size_t> edge_counts(kWorkers, 0);
  std::vector<PlanResult> plans(kWorkers);
  pool.parallel_for(
      kWorkers,
      [&](std::size_t i) {
        // Rendezvous (bounded) so the first Qrgs really are concurrent.
        arrived.fetch_add(1);
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (arrived.load() < kWorkers &&
               std::chrono::steady_clock::now() < give_up)
          std::this_thread::yield();
        const Qrg qrg(service, view);
        compiled[i] = &qrg.compiled();
        edge_counts[i] = qrg.edge_count();
        Rng rng(7);
        plans[i] = BasicPlanner().plan(qrg, rng);
      },
      1);

  EXPECT_EQ(calls.load(), domain);
  for (std::size_t i = 0; i < kWorkers; ++i) {
    EXPECT_EQ(compiled[i], &service.compiled());
    EXPECT_EQ(edge_counts[i], edge_counts[0]);
    ASSERT_TRUE(plans[i].plan.has_value());
    const ReservationPlan& a = *plans[i].plan;
    const ReservationPlan& b = *plans[0].plan;
    EXPECT_EQ(a.end_to_end_level, b.end_to_end_level);
    EXPECT_EQ(a.bottleneck_psi, b.bottleneck_psi);
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t s = 0; s < a.steps.size(); ++s) {
      EXPECT_EQ(a.steps[s].in_level, b.steps[s].in_level);
      EXPECT_EQ(a.steps[s].out_level, b.steps[s].out_level);
      EXPECT_EQ(a.steps[s].requirement, b.steps[s].requirement);
    }
  }
  EXPECT_EQ(calls.load(), domain);  // planning called no translation
}

TEST(Qrg, FanInComboNodesGetOneEdgePerPredecessor) {
  // Diamond: 0 -> {1, 2} -> 3 with small tables.
  TranslationTable src, up, down, join;
  src.set(0, 0, rv({{cpu, 1.0}}));
  up.set(0, 0, rv({{cpu, 1.0}}));
  up.set(0, 1, rv({{cpu, 2.0}}));
  down.set(0, 0, rv({{bw, 1.0}}));
  for (LevelIndex flat = 0; flat < 2; ++flat)
    join.set(flat, 0, rv({{bw, 1.0}}));
  std::vector<ServiceComponent> comps;
  comps.emplace_back("src", test::levels(1), src.as_function());
  comps.emplace_back("up", test::levels(2), up.as_function());
  comps.emplace_back("down", test::levels(1), down.as_function());
  comps.emplace_back("join", test::levels(1), join.as_function());
  ServiceDefinition service("diamond", std::move(comps),
                            {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, test::q(1));
  const Qrg qrg(service, avail({{cpu, 10}, {bw, 10}}));
  // join has 2*1 = 2 input combos; each combo node has exactly 2 incoming
  // equivalence edges (one per predecessor).
  for (LevelIndex flat = 0; flat < 2; ++flat) {
    const std::uint32_t node = qrg.node_of(3, QrgNodeKind::kIn, flat);
    std::size_t equivalence = 0;
    for (std::uint32_t e : qrg.in_edges(node))
      if (!qrg.edge(e).is_translation) ++equivalence;
    EXPECT_EQ(equivalence, 2u);
  }
}

TEST(Qrg, EdgeAndNodeAccessorsValidate) {
  const ServiceDefinition service = two_chain();
  const Qrg qrg(service, avail({{cpu, 100}, {bw, 100}}));
  EXPECT_THROW(qrg.node(1000), ContractViolation);
  EXPECT_THROW(qrg.edge(1000), ContractViolation);
  EXPECT_THROW(qrg.node_of(0, QrgNodeKind::kOut, 9), ContractViolation);
  EXPECT_EQ(qrg.find_edge(5000, 0), QrgEdge::kNone);
}

}  // namespace
}  // namespace qres
