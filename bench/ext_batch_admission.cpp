// Extension experiment: admission throughput under flash-crowd arrival
// rates (DESIGN.md §11).
//
// The paper's workload offers ~120 sessions per 60 TUs; this sweep
// drives the figure-9 scenario at 10-100x that rate, so many requests
// share each simulation tick. Same-tick arrivals drain through
// BatchAdmissionQueue as one batch: snapshots and commits stay
// sequential in arrival order, while the planning phase (QRG build +
// two-pass minimax Dijkstra) fans across a worker pool. Results are
// bit-identical for every worker count — the sweep varies only
// wall-clock throughput, reported as plans/sec.
//
// Reported per (rate multiplier, workers): arrivals, admitted share,
// conflict replans (batch members whose pre-batch snapshot went stale
// when an earlier member committed), largest batch, wall-clock
// plans/sec. On a single-CPU host the worker sweep degenerates to
// overhead measurement. Exits 1 when admitted or replans differ across
// worker counts at one rate, so the ctest smoke enforces the contract.
//
// A second, fixed table measures what planning on a shared snapshot
// costs at the paper's own rate (2 sessions/TU, the paper workload's
// fat/long mix). Arrivals are grouped into windows of W TU; each window's
// arrivals go in as one establish_batch at the window's first tick, all
// planned on that pre-window snapshot, with replan_on_conflict off so a
// lost race (a commit refused because an earlier member of the window
// took the capacity) is final. Per W: admitted share and lost races.
// The sweep runs 5400 TU (1500 with --fast) whatever --run-length says.
#include <chrono>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "scenario/paper_scenario.hpp"
#include "sim/batch_admission.hpp"
#include "sim/workload.hpp"
#include "util/table.hpp"

using namespace qres;

namespace {

struct Outcome {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t replans = 0;
  std::size_t max_batch = 0;
  double wall_seconds = 0.0;
};

/// Every (service, domain) pair's coordinator the workload draws from.
std::vector<SessionCoordinator*> all_coordinators(PaperScenario& scenario) {
  std::vector<SessionCoordinator*> coordinators;
  for (int domain = 1; domain <= PaperScenario::kDomains; ++domain)
    for (int service = 1; service <= PaperScenario::kServers; ++service)
      if (service != PaperScenario::excluded_service(domain))
        coordinators.push_back(&scenario.coordinator(service, domain));
  return coordinators;
}

Outcome run(double rate_multiplier, std::size_t workers, double run_length,
            std::uint64_t seed) {
  PaperScenarioConfig config;
  config.setup_seed = seed;
  PaperScenario scenario(config);
  BasicPlanner planner;
  Rng plan_rng(seed ^ 0xba7c4u);
  EventQueue events;
  ThreadPool pool(workers == 0 ? 1 : workers);
  BatchOptions options;
  options.pool = workers == 0 ? nullptr : &pool;
  BatchAdmissionQueue admissions(&events, &planner, &plan_rng, options);
  const std::vector<SessionCoordinator*> coordinators =
      all_coordinators(scenario);

  // Paper workload: 120 sessions / 60 TU; the multiplier scales it.
  const double per_tick = 2.0 * rate_multiplier;
  Rng workload(seed * 77 + 5);
  Outcome outcome;
  std::uint32_t session = 0;
  for (double tick = 1.0; tick <= run_length; tick += 1.0) {
    auto arrivals = static_cast<std::uint32_t>(per_tick);
    if (workload.bernoulli(per_tick - static_cast<double>(arrivals)))
      ++arrivals;
    for (std::uint32_t a = 0; a < arrivals; ++a) {
      SessionCoordinator* coordinator = coordinators[workload.uniform_int(
          0, static_cast<int>(coordinators.size()) - 1)];
      const SessionId id{++session};
      const double holding = workload.uniform(20.0, 180.0);
      ++outcome.arrivals;
      admissions.submit(
          tick, {coordinator, id, 1.0, nullptr},
          [&outcome, &events, coordinator, id, tick,
           holding](const EstablishResult& result) {
            outcome.replans += result.stats.replans;
            if (!result.success) return;
            events.schedule(tick + holding,
                            [coordinator, id, holdings = result.holdings,
                             end = tick + holding] {
                              coordinator->teardown(holdings, id, end);
                            });
          });
    }
  }
  const auto start = std::chrono::steady_clock::now();
  events.run_all();
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  outcome.admitted = admissions.admitted();
  outcome.max_batch = admissions.max_batch();
  return outcome;
}

struct RaceOutcome {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t lost_races = 0;
};

/// The paper's rate with each `window` TU of arrivals admitted as one
/// batch on the pre-window snapshot; a lost race is final.
RaceOutcome run_window(int window, double run_length, std::uint64_t seed) {
  PaperScenarioConfig config;
  config.setup_seed = seed;
  PaperScenario scenario(config);
  BasicPlanner planner;
  Rng plan_rng(seed ^ 0xba7c4u);
  EventQueue events;
  BatchOptions options;
  options.replan_on_conflict = false;
  BatchAdmissionQueue admissions(&events, &planner, &plan_rng, options);
  const std::vector<SessionCoordinator*> coordinators =
      all_coordinators(scenario);

  const WorkloadConfig paper;
  Rng workload(seed * 77 + 5);
  RaceOutcome outcome;
  std::uint32_t session = 0;
  for (int tick = 1; tick <= static_cast<int>(run_length); ++tick) {
    const int first_tick = 1 + (tick - 1) / window * window;
    const auto start = static_cast<double>(first_tick);
    for (int a = 0; a < 2; ++a) {
      SessionCoordinator* coordinator = coordinators[workload.uniform_int(
          0, static_cast<int>(coordinators.size()) - 1)];
      const SessionId id{++session};
      const SessionTraits traits = sample_traits(paper, workload);
      ++outcome.arrivals;
      admissions.submit(
          start, {coordinator, id, traits.scale, nullptr},
          [&outcome, &events, coordinator, id, start,
           duration = traits.duration](const EstablishResult& result) {
            if (result.outcome == EstablishOutcome::kAdmission)
              ++outcome.lost_races;
            if (!result.success) return;
            events.schedule(start + duration,
                            [coordinator, id, holdings = result.holdings,
                             end = start + duration] {
                              coordinator->teardown(holdings, id, end);
                            });
          });
    }
  }
  events.run_all();
  outcome.admitted = admissions.admitted();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  double run_length = 120.0;
  double race_length = 5400.0;
  std::vector<double> multipliers = {10.0, 30.0, 100.0};
  std::vector<std::size_t> worker_counts = {0, 1, 2, 4, 8};
  std::uint64_t seed = 900;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fast") {
      run_length = 30.0;
      race_length = 1500.0;
      multipliers = {10.0, 100.0};
      worker_counts = {0, 4};
    } else if (arg == "--run-length" && i + 1 < argc) {
      run_length = std::atof(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    }
  }

  std::cout << "Extension: batch admission throughput at 10-100x paper "
               "session rates\n";
  TablePrinter table({"rate x", "workers", "arrivals", "admitted",
                      "replans", "max batch", "plans/sec"});
  bool deterministic = true;
  for (const double multiplier : multipliers) {
    std::optional<Outcome> first;
    for (const std::size_t workers : worker_counts) {
      const Outcome o = run(multiplier, workers, run_length, seed);
      if (!first) first = o;
      deterministic = deterministic && o.admitted == first->admitted &&
                      o.replans == first->replans;
      table.add_row(
          {TablePrinter::fmt(multiplier, 0),
           workers == 0 ? "inline" : std::to_string(workers),
           std::to_string(o.arrivals),
           TablePrinter::pct(static_cast<double>(o.admitted) /
                             static_cast<double>(o.arrivals)),
           std::to_string(o.replans), std::to_string(o.max_batch),
           TablePrinter::fmt(o.wall_seconds > 0.0
                                 ? static_cast<double>(o.arrivals) /
                                       o.wall_seconds
                                 : 0.0,
                             0)});
    }
  }
  table.print(std::cout);
  std::cout << "\n(run length: " << run_length
            << " TU; identical seeds per row group — admitted/replans "
               "columns must match across worker counts)\n";

  std::cout << "\nPlanning races at the paper rate: each window's "
               "arrivals planned on one pre-window snapshot, lost races "
               "final\n";
  TablePrinter races({"window", "arrivals", "admitted", "lost races"});
  for (const int window : {1, 2, 3, 6}) {
    const RaceOutcome o = run_window(window, race_length, seed);
    races.add_row({std::to_string(window) + " TU", std::to_string(o.arrivals),
                   TablePrinter::pct(static_cast<double>(o.admitted) /
                                     static_cast<double>(o.arrivals)),
                   std::to_string(o.lost_races)});
  }
  races.print(std::cout);
  std::cout << "\n(run length: " << race_length << " TU)\n";
  if (!deterministic) {
    std::cerr << "admitted/replans differ across worker counts\n";
    return 1;
  }
  return 0;
}
