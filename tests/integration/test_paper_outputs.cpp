// Pins the paper experiments' outputs: exact per-class success counts and
// QoS sums of short figure-9 runs, for the basic and tradeoff planners at
// staleness 0 and 8. Every establishment runs the full typed control
// plane (QueryRequest polls, ReserveRequest dispatches, ReleaseRequest
// teardowns through the coordinator's in-process loopback BrokerService),
// so any change to how that plane observes, reserves or releases — draw
// order of the staleness stream included — shows up here as a changed
// count long before it would move a figure.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "core/planner.hpp"
#include "scenario/paper_scenario.hpp"
#include "sim/simulation.hpp"

namespace qres {
namespace {

struct Pinned {
  const char* planner;
  double staleness;
  /// Per session class (normal-short, normal-long, fat-short, fat-long).
  std::array<std::uint64_t, kSessionClassCount> attempts;
  std::array<std::uint64_t, kSessionClassCount> successes;
  std::array<std::int64_t, kSessionClassCount> qos_sums;
  std::uint64_t admission_failures;
};

// Keeps the discovered ctest names free of raw pointer bytes.
void PrintTo(const Pinned& pinned, std::ostream* os) {
  *os << pinned.planner << " staleness=" << pinned.staleness;
}

/// The fig11/fig12 harness (bench/experiment_common.cpp) on a short run.
SimulationStats run_short(const std::string& planner_name, double staleness) {
  constexpr std::uint64_t kSeed = 3;
  PaperScenarioConfig scenario_config;
  scenario_config.setup_seed = kSeed;
  PaperScenario scenario(scenario_config);
  std::unique_ptr<IPlanner> planner;
  if (planner_name == "basic")
    planner = std::make_unique<BasicPlanner>();
  else
    planner = std::make_unique<TradeoffPlanner>();
  SimulationConfig config;
  config.arrival_rate = 180.0 / 60.0;
  config.run_length = 400.0;
  config.seed = kSeed ^ 0x51a5d1ce5eedULL;
  config.staleness_max = staleness;
  config.record_paths = false;
  Simulation simulation(scenario.make_source(), planner.get(), config);
  return simulation.run();
}

std::int64_t qos_sum(const Summary& qos) {
  // Levels are integers, so mean * count is an integer up to rounding.
  return qos.empty() ? 0
                     : std::llround(qos.mean() *
                                    static_cast<double>(qos.count()));
}

// Captured when the coordinator still reserved through direct broker
// calls, before the typed plane became its only control plane; the typed
// loopback reproduces them exactly.
constexpr std::array<Pinned, 4> kPinned = {{
    {"basic", 0.0, {260, 132, 584, 236}, {225, 119, 380, 159},
     {664, 356, 1098, 459}, 0},
    {"basic", 8.0, {280, 149, 527, 268}, {257, 140, 357, 187},
     {768, 418, 1053, 554}, 138},
    {"tradeoff", 0.0, {260, 132, 584, 236}, {241, 126, 416, 174},
     {633, 332, 1051, 451}, 0},
    {"tradeoff", 8.0, {280, 149, 527, 268}, {268, 141, 410, 204},
     {712, 365, 1053, 515}, 91},
}};

class PaperOutputs : public ::testing::TestWithParam<Pinned> {};

TEST_P(PaperOutputs, MatchPinnedCountsAndQosSums) {
  const Pinned& pinned = GetParam();
  const SimulationStats stats = run_short(pinned.planner, pinned.staleness);
  for (std::size_t c = 0; c < kSessionClassCount; ++c) {
    const auto session_class = static_cast<SessionClass>(c);
    SCOPED_TRACE(to_string(session_class));
    EXPECT_EQ(stats.class_success(session_class).attempts(),
              pinned.attempts[c]);
    EXPECT_EQ(stats.class_success(session_class).successes(),
              pinned.successes[c]);
    EXPECT_EQ(qos_sum(stats.class_qos(session_class)), pinned.qos_sums[c]);
  }
  EXPECT_EQ(stats.admission_failures(), pinned.admission_failures);
}

INSTANTIATE_TEST_SUITE_P(
    ShortFigure9Runs, PaperOutputs, ::testing::ValuesIn(kPinned),
    [](const ::testing::TestParamInfo<Pinned>& param_info) {
      return std::string(param_info.param.planner) + "_E" +
             std::to_string(static_cast<int>(param_info.param.staleness));
    });

}  // namespace
}  // namespace qres
