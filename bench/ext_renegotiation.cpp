// Extension experiment: mid-session QoS renegotiation.
//
// In the base framework a session keeps the QoS level its admission-time
// plan achieved, even if it was degraded and the contention later clears.
// This extension periodically re-plans every *degraded* active session,
// make-before-break: the AdaptationEngine's watchdog drives
// SessionCoordinator::renegotiate, deltas are reserved on top of the old
// plan and the floor moves only at the commit point, so at no instant does
// the session hold less than its committed plan. The baseline arm never
// renegotiates.
//
// Metrics: time-weighted average end-to-end QoS level over each session's
// lifetime (equals the static level when renegotiation is off), overall
// admission success rate (upgraded sessions hold more, so admission can
// get slightly harder), and the upgrade count.
#include <iostream>
#include <map>
#include <memory>

#include "adapt/adaptation_engine.hpp"
#include "core/planner.hpp"
#include "scenario/paper_scenario.hpp"
#include "core/event_queue.hpp"
#include "util/summary.hpp"
#include "util/table.hpp"

using namespace qres;

namespace {

enum class Mode { kOff, kEngine };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kOff: return "off";
    case Mode::kEngine: return "engine (MBB)";
  }
  return "?";
}

struct Active {
  SessionCoordinator* coordinator = nullptr;
  adapt::AdaptationEngine* engine = nullptr;  // engine mode only
  std::vector<std::pair<ResourceId, double>> holdings;
  double scale = 1.0;
  std::size_t rank = 0;       // current end-to-end rank (0 = best)
  double admitted_at = 0.0;
  double last_change = 0.0;
  double weighted_level = 0.0;  // integral of level over time so far
};

struct Outcome {
  Ratio admission;
  Summary lifetime_qos;  // time-weighted level per departed session
  std::uint64_t upgrades = 0;
  std::uint64_t renegotiation_attempts = 0;
};

Outcome run(Mode mode, double rate_per_60, double renegotiation_period,
            double run_length, std::uint64_t seed) {
  PaperScenarioConfig config;
  config.setup_seed = seed;
  PaperScenario scenario(config);
  BasicPlanner planner;
  TradeoffPlanner degrade_planner;
  EventQueue queue;
  Rng rng(seed ^ 0x5e55105ULL);
  Rng watchdog_rng(seed ^ 0x9b2e11dULL);
  const SessionSource source = scenario.make_source();
  Outcome outcome;
  std::map<std::uint32_t, Active> active;
  std::uint32_t next_session = 0;
  const std::size_t levels = kPaperQoSLevels;

  auto level_of = [&](std::size_t rank) {
    return static_cast<double>(levels - rank);
  };

  // Engine mode: one engine per coordinator, sharing a watchdog monitor
  // over every broker, run upgrade-only: contention-driven degradation is
  // ext_adaptation's subject, so here the watchdog pass is exactly this
  // experiment's upgrade probing — but each probe is a make-before-break
  // renegotiation instead of a release/re-reserve gap.
  std::vector<ResourceId> watched;
  for (std::size_t i = 0; i < scenario.registry().size(); ++i)
    watched.push_back(ResourceId{static_cast<std::uint32_t>(i)});
  adapt::ContentionMonitor monitor(&scenario.registry(), std::move(watched));
  std::map<SessionCoordinator*, std::unique_ptr<adapt::AdaptationEngine>>
      engines;
  // Watchdog passes tick the engines in (service, domain) order; walking
  // the pointer-keyed map would tie the order to the heap layout.
  std::vector<adapt::AdaptationEngine*> tick_order;
  if (mode == Mode::kEngine) {
    adapt::EngineConfig engine_config;
    // Probe on every watchdog pass; shedding is out of scope here (see
    // ext_adaptation).
    engine_config.upgrade_cooldown = renegotiation_period;
    engine_config.allow_preemption = false;
    engine_config.upgrade_only = true;
    for (int service = 1; service <= PaperScenario::kServers; ++service)
      for (int domain = 1; domain <= PaperScenario::kDomains; ++domain) {
        if (service == PaperScenario::excluded_service(domain)) continue;
        SessionCoordinator& coordinator =
            scenario.coordinator(service, domain);
        if (engines.count(&coordinator)) continue;
        auto engine = std::make_unique<adapt::AdaptationEngine>(
            &coordinator, &monitor, &planner, &degrade_planner,
            engine_config);
        engine->on_rank_changed = [&](SessionId session, std::size_t old_rank,
                                      std::size_t new_rank) {
          auto it = active.find(session.value());
          if (it == active.end()) return;
          Active& a = it->second;
          const double now = queue.now();
          a.weighted_level += level_of(a.rank) * (now - a.last_change);
          a.last_change = now;
          a.rank = new_rank;
          if (new_rank < old_rank) ++outcome.upgrades;
        };
        tick_order.push_back(engine.get());
        engines.emplace(&coordinator, std::move(engine));
      }
  }

  std::function<void()> arrival = [&] {
    const double now = queue.now();
    const SessionSpec spec = source(rng, now);
    const SessionId session{next_session++};
    adapt::AdaptationEngine* engine =
        mode == Mode::kEngine ? engines.at(spec.coordinator).get() : nullptr;
    EstablishResult result =
        engine ? engine->admit(session, now,
                               adapt::SessionPriority::kStandard,
                               spec.traits.scale, rng)
               : spec.coordinator->establish(session, now, planner, rng,
                                             spec.traits.scale);
    outcome.admission.record(result.success);
    if (result.success) {
      Active entry;
      entry.coordinator = spec.coordinator;
      entry.engine = engine;
      if (!engine) entry.holdings = std::move(result.holdings);
      entry.scale = spec.traits.scale;
      entry.rank = result.plan->end_to_end_rank;
      entry.admitted_at = now;
      entry.last_change = now;
      active.emplace(session.value(), std::move(entry));
      queue.schedule_in(spec.traits.duration, [&, session] {
        auto it = active.find(session.value());
        if (it == active.end()) return;
        Active& a = it->second;
        const double t = queue.now();
        a.weighted_level += level_of(a.rank) * (t - a.last_change);
        const double lifetime = t - a.admitted_at;
        outcome.lifetime_qos.add(
            lifetime > 0.0 ? a.weighted_level / lifetime
                           : level_of(a.rank));
        if (a.engine)
          a.engine->depart(session, t);
        else
          a.coordinator->teardown(a.holdings, session, t);
        active.erase(it);
      });
    }
    const double next_time = now + rng.exponential(rate_per_60 / 60.0);
    if (next_time <= run_length) queue.schedule(next_time, arrival);
  };
  queue.schedule(rng.exponential(rate_per_60 / 60.0), arrival);

  // Engine arm: the watchdog pass probes one rank up per degraded session
  // (additive increase), make-before-break.
  std::function<void()> watchdog = [&] {
    for (adapt::AdaptationEngine* engine : tick_order) {
      outcome.renegotiation_attempts += active.size();  // comparable metric
      engine->tick(queue.now(), watchdog_rng);
    }
    if (queue.now() + renegotiation_period <= run_length)
      queue.schedule_in(renegotiation_period, watchdog);
  };

  if (mode == Mode::kEngine)
    queue.schedule(renegotiation_period, watchdog);

  queue.run_all();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  double run_length = 5400.0;
  std::size_t replicas = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fast") {
      run_length = 1500.0;
      replicas = 2;
    } else if (arg == "--run-length" && i + 1 < argc) {
      run_length = std::atof(argv[++i]);
    } else if (arg == "--replicas" && i + 1 < argc) {
      replicas = static_cast<std::size_t>(std::atoi(argv[++i]));
    }
  }

  std::cout << "Extension: mid-session QoS renegotiation (basic planner)\n";
  TablePrinter table({"rate", "mode", "reneg. period", "admission",
                      "lifetime QoS", "upgrades/1k ssn"});
  for (double rate : {120.0, 180.0, 240.0}) {
    for (Mode mode : {Mode::kOff, Mode::kEngine}) {
      const double period = mode == Mode::kOff ? 0.0 : 30.0;
      Outcome merged;
      for (std::size_t r = 0; r < replicas; ++r) {
        const Outcome o = run(mode, rate, period, run_length, 2000 + r);
        merged.admission.merge(o.admission);
        merged.lifetime_qos.merge(o.lifetime_qos);
        merged.upgrades += o.upgrades;
        merged.renegotiation_attempts += o.renegotiation_attempts;
      }
      table.add_row(
          {TablePrinter::fmt(rate, 0), mode_name(mode),
           period == 0.0 ? "off" : TablePrinter::fmt(period, 0),
           TablePrinter::pct(merged.admission.value()),
           TablePrinter::fmt(merged.lifetime_qos.mean()),
           TablePrinter::fmt(
               1000.0 * static_cast<double>(merged.upgrades) /
                   static_cast<double>(merged.admission.attempts()),
               1)});
    }
  }
  table.print(std::cout);
  std::cout << "\n(replicas per point: " << replicas
            << ", run length: " << run_length
            << " TU; engine (MBB) upgrades make-before-break via the "
               "adaptation engine)\n";
  return 0;
}
