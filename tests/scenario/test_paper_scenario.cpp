#include "scenario/paper_scenario.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "rpc/broker_service.hpp"
#include "sim/simulation.hpp"

namespace qres {
namespace {

TEST(PaperScenario, TopologyMatchesFigure9) {
  PaperScenario scenario;
  EXPECT_EQ(scenario.topology().host_count(), 12u);  // H1..H4 + D1..D8
  EXPECT_EQ(scenario.topology().link_count(), 14u);  // L1..L14
}

TEST(PaperScenario, ProxyAndExclusionMapping) {
  // The paper's example: a client in D2 requesting S4 gets its proxy on
  // H1; S1 is what D1/D2 clients never request.
  EXPECT_EQ(PaperScenario::proxy_host_of_domain(1), 1);
  EXPECT_EQ(PaperScenario::proxy_host_of_domain(2), 1);
  EXPECT_EQ(PaperScenario::proxy_host_of_domain(3), 2);
  EXPECT_EQ(PaperScenario::proxy_host_of_domain(8), 4);
  EXPECT_EQ(PaperScenario::excluded_service(2), 1);
  EXPECT_EQ(PaperScenario::excluded_service(7), 4);
}

TEST(PaperScenario, TableGroups) {
  EXPECT_STREQ(PaperScenario::table_group(1), "a");
  EXPECT_STREQ(PaperScenario::table_group(2), "b");
  EXPECT_STREQ(PaperScenario::table_group(3), "b");
  EXPECT_STREQ(PaperScenario::table_group(4), "a");
}

TEST(PaperScenario, ExcludedCoordinatorThrows) {
  PaperScenario scenario;
  EXPECT_THROW(scenario.coordinator(1, 2), ContractViolation);  // S1 @ D2
  EXPECT_NO_THROW(scenario.coordinator(4, 2));
  EXPECT_THROW(scenario.coordinator(0, 1), ContractViolation);
  EXPECT_THROW(scenario.coordinator(1, 9), ContractViolation);
}

TEST(PaperScenario, CapacitiesWithinConfiguredRange) {
  PaperScenarioConfig config;
  config.setup_seed = 11;
  PaperScenario scenario(config);
  for (ResourceId id : scenario.all_physical_resources()) {
    const double cap = scenario.registry().broker(id).capacity();
    EXPECT_GE(cap, config.capacity_min);
    EXPECT_LE(cap, config.capacity_max);
  }
  EXPECT_EQ(scenario.all_physical_resources().size(), 18u);  // 4 + 14
}

TEST(PaperScenario, SetupSeedControlsCapacities) {
  PaperScenarioConfig a, b, c;
  a.setup_seed = 1;
  b.setup_seed = 1;
  c.setup_seed = 2;
  PaperScenario sa(a), sb(b), sc(c);
  const double cap_a = sa.registry().broker(sa.host_resource(1)).capacity();
  EXPECT_EQ(cap_a, sb.registry().broker(sb.host_resource(1)).capacity());
  EXPECT_NE(cap_a, sc.registry().broker(sc.host_resource(1)).capacity());
}

TEST(PaperScenario, SessionSourceRespectsExclusion) {
  PaperScenario scenario;
  const SessionSource source =
      const_cast<PaperScenario&>(scenario).make_source();
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const SessionSpec spec = source(rng, 0.0);
    ASSERT_NE(spec.coordinator, nullptr);
    EXPECT_GT(spec.traits.duration, 0.0);
    EXPECT_TRUE(spec.path_group == "a" || spec.path_group == "b");
  }
}

TEST(PaperScenario, SessionSourceUsesAllAllowedServices) {
  PaperScenario scenario;
  const SessionSource source = scenario.make_source();
  Rng rng(5);
  std::map<const SessionCoordinator*, int> used;
  for (int i = 0; i < 5000; ++i) ++used[source(rng, 0.0).coordinator];
  // 4 services x 8 domains - 8 excluded pairs = 24 coordinators.
  EXPECT_EQ(used.size(), 24u);
}

TEST(PaperScenario, PopularityRerollsEveryPeriod) {
  PaperScenarioConfig config;
  config.popularity_min = 0.2;
  config.popularity_max = 1.8;
  config.popularity_period = 100.0;
  PaperScenario scenario(config);
  const SessionSource source = scenario.make_source();
  Rng rng(7);
  // Before the first period boundary, the weights are the initial 1.0s.
  (void)source(rng, 50.0);
  for (double w : scenario.service_popularity()) EXPECT_EQ(w, 1.0);
  // Crossing the boundary re-draws them within the configured range.
  (void)source(rng, 150.0);
  bool changed = false;
  for (double w : scenario.service_popularity()) {
    EXPECT_GE(w, config.popularity_min);
    EXPECT_LE(w, config.popularity_max);
    if (w != 1.0) changed = true;
  }
  EXPECT_TRUE(changed);
  // Skipping several periods re-draws once per period (catch-up loop).
  const auto snapshot = scenario.service_popularity();
  (void)source(rng, 550.0);
  EXPECT_NE(snapshot, scenario.service_popularity());
}

TEST(PaperScenario, SkewedPopularityShiftsServiceMix) {
  // Directly verify the source honors the weights: with the weights
  // pinned via a degenerate range, each allowed service is equally
  // likely, and a coordinator count matches the 1/8 * 1/3 marginal.
  PaperScenarioConfig config;
  config.popularity_min = 1.0;
  config.popularity_max = 1.0;
  PaperScenario scenario(config);
  const SessionSource source = scenario.make_source();
  Rng rng(9);
  std::map<const SessionCoordinator*, int> counts;
  const int n = 24000;
  for (int i = 0; i < n; ++i) ++counts[source(rng, 0.0).coordinator];
  for (const auto& [coordinator, count] : counts)
    EXPECT_NEAR(count, n / 24, n / 24 * 0.2);
}

TEST(PaperScenario, EndToEndEstablishmentThroughScenario) {
  PaperScenario scenario;
  BasicPlanner planner;
  Rng rng(1);
  SessionCoordinator& coordinator = scenario.coordinator(4, 2);
  const EstablishResult result =
      coordinator.establish(SessionId{1}, 1.0, planner, rng);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.plan->end_to_end_rank, 0u);
  // The reservation touched the server (H4) and proxy (H1) resources.
  const double h4 =
      scenario.registry().broker(scenario.host_resource(4)).available();
  const double h1 =
      scenario.registry().broker(scenario.host_resource(1)).available();
  EXPECT_LT(h4,
            scenario.registry().broker(scenario.host_resource(4)).capacity());
  EXPECT_LT(h1,
            scenario.registry().broker(scenario.host_resource(1)).capacity());
  coordinator.teardown(result.holdings, SessionId{1}, 2.0);
  EXPECT_EQ(
      scenario.registry().broker(scenario.host_resource(4)).available(),
      scenario.registry().broker(scenario.host_resource(4)).capacity());
}

/// A short figure-9 run in which every coordinator is attached either to
/// one BrokerService they all share or to a BrokerService of its own.
SimulationStats run_attached(bool shared, std::uint64_t* replays) {
  PaperScenarioConfig config;
  config.setup_seed = 5;
  PaperScenario scenario(config);
  std::vector<std::unique_ptr<rpc::BrokerService>> services;
  for (int s = 1; s <= PaperScenario::kServers; ++s)
    for (int d = 1; d <= PaperScenario::kDomains; ++d) {
      if (PaperScenario::excluded_service(d) == s) continue;
      if (!shared || services.empty())
        services.push_back(
            std::make_unique<rpc::BrokerService>(&scenario.registry()));
      SessionCoordinator& coordinator = scenario.coordinator(s, d);
      coordinator.attach_rpc_service(services.back().get(),
                                     coordinator.service().component(0).host());
    }
  BasicPlanner planner;
  SimulationConfig sim;
  sim.arrival_rate = 3.0;
  sim.run_length = 300.0;
  sim.seed = 5;
  sim.record_paths = false;
  const SimulationStats stats =
      Simulation(scenario.make_source(), &planner, sim).run();
  *replays = 0;
  for (const auto& service : services) *replays += service->stats().duplicates;
  return stats;
}

TEST(PaperScenario, CoordinatorsSharingOneBrokerServiceDecideAlike) {
  // Every channel numbers its requests inside its own id range on the
  // server, so sharing a service changes nothing: no reply is served from
  // another coordinator's dedup entry (no std::bad_variant_access, no
  // phantom grant), and every decision matches one service each.
  std::uint64_t shared_replays = 0, own_replays = 0;
  const SimulationStats shared = run_attached(true, &shared_replays);
  const SimulationStats own = run_attached(false, &own_replays);
  EXPECT_EQ(shared_replays, 0u);
  EXPECT_EQ(own_replays, 0u);
  EXPECT_GT(shared.overall_success().attempts(), 500u);
  for (std::size_t c = 0; c < kSessionClassCount; ++c) {
    const auto session_class = static_cast<SessionClass>(c);
    EXPECT_EQ(shared.class_success(session_class).attempts(),
              own.class_success(session_class).attempts());
    EXPECT_EQ(shared.class_success(session_class).successes(),
              own.class_success(session_class).successes());
    EXPECT_EQ(shared.class_qos(session_class).count(),
              own.class_qos(session_class).count());
    if (!own.class_qos(session_class).empty()) {
      EXPECT_EQ(shared.class_qos(session_class).mean(),
                own.class_qos(session_class).mean());
    }
  }
  EXPECT_EQ(shared.admission_failures(), own.admission_failures());
  EXPECT_EQ(shared.bottleneck_counts(), own.bottleneck_counts());
}

TEST(PaperScenario, NetworkReservationLandsOnPhysicalLinks) {
  PaperScenario scenario;
  BasicPlanner planner;
  Rng rng(1);
  SessionCoordinator& coordinator = scenario.coordinator(4, 2);
  const EstablishResult result =
      coordinator.establish(SessionId{1}, 1.0, planner, rng);
  ASSERT_TRUE(result.success);
  // At least one physical link lost availability (two-level brokering).
  int links_touched = 0;
  for (int l = 1; l <= PaperScenario::kLinks; ++l) {
    const IBroker& broker =
        scenario.registry().broker(scenario.link_resource(l));
    if (broker.available() < broker.capacity()) ++links_touched;
  }
  EXPECT_GE(links_touched, 2);  // server-proxy link + access link
}

}  // namespace
}  // namespace qres
