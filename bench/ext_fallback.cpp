// Extension experiment: plan fallback under stale observations.
//
// §5.2.4 shows that inaccurate availability observations cost success
// rate: the Psi-minimal plan is computed against an outdated snapshot and
// its reservation can be rejected even though *other* feasible plans for
// the same session would have succeeded. establish() with
// EstablishPolicy::fallback_attempts > 1 falls back down the
// enumerate_plans() list instead of failing the session.
//
// This harness sweeps the staleness bound E and the attempt budget,
// showing how much of the staleness-induced loss the fallback recovers.
#include <iostream>

#include "experiment_common.hpp"
#include "scenario/paper_scenario.hpp"
#include "core/event_queue.hpp"
#include "util/table.hpp"

using namespace qres;
using namespace qres::bench;

namespace {

/// The basic algorithm's choice with ties between equally cheap plans
/// broken in enumerate_plans order, the order fallback walks: attempts=1
/// is exactly the head of every fallback list.
class EnumeratedPlanner final : public IPlanner {
 public:
  PlanResult plan(const Qrg& qrg, Rng& /*rng*/) const override {
    PlanResult result;
    result.sinks = sink_infos(qrg, relax_qrg(qrg));
    for (std::size_t rank = 0; rank < result.sinks.size(); ++rank) {
      if (!result.sinks[rank].reachable) continue;
      std::vector<ReservationPlan> plans =
          enumerate_plans(qrg, qrg.ranked_sink_nodes()[rank], 1);
      if (plans.empty()) continue;
      result.plan = std::move(plans.front());
      break;
    }
    return result;
  }
  std::string name() const override { return "basic-enumerated"; }
};

SimulationStats run_resilient(double rate_per_60, double staleness,
                              std::size_t attempts, double run_length,
                              std::uint64_t seed) {
  PaperScenarioConfig scenario_config;
  scenario_config.setup_seed = seed;
  PaperScenario scenario(scenario_config);
  const SessionSource source = scenario.make_source();

  // Simulation has no establish policy knob, so run the loop directly.
  const EnumeratedPlanner planner;
  EstablishPolicy policy;
  policy.fallback_attempts = attempts;
  SimulationStats stats;
  EventQueue queue;
  Rng rng(seed ^ 0x7e51171e47ULL);
  std::uint32_t next_session = 0;

  std::function<void()> arrival = [&] {
    const double now = queue.now();
    const SessionSpec spec = source(rng, now);
    const SessionId session{next_session++};
    std::function<double(ResourceId)> lag;
    if (staleness > 0.0)
      lag = [&rng, staleness](ResourceId) {
        return rng.uniform(0.0, staleness);
      };
    EstablishResult result = spec.coordinator->establish(
        session, now, planner, rng, spec.traits.scale, lag, policy);
    const std::size_t levels =
        spec.coordinator->service().end_to_end_ranking().size();
    stats.record_session(
        spec.traits.session_class(), result.success,
        result.plan ? static_cast<double>(levels -
                                          result.plan->end_to_end_rank)
                    : 0.0,
        !result.plan.has_value());
    if (result.success) {
      auto holdings = std::make_shared<
          std::vector<std::pair<ResourceId, double>>>(
          std::move(result.holdings));
      SessionCoordinator* coordinator = spec.coordinator;
      queue.schedule_in(spec.traits.duration,
                        [holdings, coordinator, session, &queue] {
                          coordinator->teardown(*holdings, session,
                                                queue.now());
                        });
    }
    const double next_time = now + rng.exponential(rate_per_60 / 60.0);
    if (next_time <= run_length) queue.schedule(next_time, arrival);
  };
  queue.schedule(rng.exponential(rate_per_60 / 60.0), arrival);
  queue.run_all();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions options = parse_options(argc, argv);

  std::cout << "Extension: plan fallback under stale observations "
               "(basic-planner ordering)\n";
  TablePrinter table({"rate", "E", "attempts=1", "attempts=2",
                      "attempts=4"});
  for (double rate : {120.0, 180.0}) {
    for (double staleness : {0.0, 4.0, 8.0}) {
      std::vector<std::string> row{TablePrinter::fmt(rate, 0),
                                   TablePrinter::fmt(staleness, 0)};
      for (std::size_t attempts : {1u, 2u, 4u}) {
        Ratio merged;
        for (std::size_t r = 0; r < options.replicas; ++r)
          merged.merge(run_resilient(rate, staleness, attempts,
                                     options.run_length,
                                     options.base_seed + r)
                           .overall_success());
        row.push_back(TablePrinter::pct(merged.value()));
      }
      table.add_row(std::move(row));
    }
  }
  print_table(table, options, std::cout);
  std::cout << "\n(replicas per point: " << options.replicas
            << ", run length: " << options.run_length << " TU)\n";
  return 0;
}
