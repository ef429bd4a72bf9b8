// Extension experiment: contention watchdog + graceful-degradation
// adaptation (DESIGN.md §8).
//
// The paper plans once at admission and then only enforces; §6 names
// dynamic resource fluctuation as future work. This experiment runs the
// paper's §5.1 environment under heavy load and compares three arms:
//
//   * plain      — the base framework: sessions keep their admission-time
//                  plan for life, no matter what happens around them;
//   * adaptive   — a ContentionMonitor watchdog samples every broker's
//                  alpha (eq. 5) and the AdaptationEngine renegotiates
//                  live sessions make-before-break: multiplicative
//                  decrease onto the §4.3.1 tradeoff planner when a held
//                  resource turns contended, slow additive rank upgrades
//                  when the environment is calm again;
//   * +priorities — adaptive, plus priority classes: admissions that fail
//                  on capacity may shed the lowest-priority holder of the
//                  contested resource (downgrade-to-worst, then evict),
//                  and a ContentionGovernor fast-rejects background
//                  admissions while the bottleneck EWMA signals overload.
//
// The load is bursty: every kBurstEvery TUs the arrival rate multiplies
// by kBurstFactor for kBurstLength TUs (a flash crowd). That is where
// adaptation earns its keep: the plain framework's admission is
// near-binary — it admits at the top level or rejects outright — so a
// burst mostly turns into rejections. The adaptive arms instead admit
// burst arrivals degraded through the tradeoff planner, shed load off
// genuinely collapsed resources, and upgrade everyone back once the
// watchdog sees the environment calm down (mean session life ~137 TU,
// much longer than the burst, so the recovered headroom matters).
//
// Metrics: admission rate (overall and for the critical class),
// time-weighted end-to-end QoS level over each session's lifetime, the
// engine's adaptation counters, and the ReservationAuditor conservation
// audit (must be clean: every unit the engine moved is accounted for).
#include <cmath>
#include <iostream>
#include <map>
#include <memory>

#include "adapt/adaptation_engine.hpp"
#include "core/planner.hpp"
#include "scenario/paper_scenario.hpp"
#include "broker/auditor.hpp"
#include "core/event_queue.hpp"
#include "util/summary.hpp"
#include "util/table.hpp"

using namespace qres;

namespace {

enum class Arm { kPlain, kAdaptive, kAdaptivePriorities };

// Flash-crowd load shape: rate multiplies by kBurstFactor during
// [kBurstStart, kBurstStart + kBurstLength) of every kBurstEvery cycle.
constexpr double kBurstEvery = 600.0;
constexpr double kBurstStart = 100.0;
constexpr double kBurstLength = 90.0;
constexpr double kBurstFactor = 6.0;

double rate_at(double base_per_60, double now) {
  const double phase = std::fmod(now, kBurstEvery);
  const bool burst =
      phase >= kBurstStart && phase < kBurstStart + kBurstLength;
  return base_per_60 * (burst ? kBurstFactor : 1.0) / 60.0;
}

const char* arm_name(Arm arm) {
  switch (arm) {
    case Arm::kPlain: return "plain";
    case Arm::kAdaptive: return "adaptive";
    case Arm::kAdaptivePriorities: return "+priorities";
  }
  return "?";
}

struct Active {
  SessionCoordinator* coordinator = nullptr;
  adapt::AdaptationEngine* engine = nullptr;  // null in the plain arm
  std::vector<std::pair<ResourceId, double>> holdings;  // plain arm only
  std::size_t rank = 0;
  double admitted_at = 0.0;
  double last_change = 0.0;
  double weighted_level = 0.0;
};

struct Outcome {
  Ratio admission;
  Ratio critical_admission;
  Summary lifetime_qos;
  /// Integral of delivered end-to-end level over time, summed over all
  /// sessions (level-TUs): the system's QoS throughput. Rejected sessions
  /// contribute zero, and a long session weighs by its whole life.
  double delivered_level_time = 0.0;
  double simulated_time = 0.0;
  AdaptationStats adapt;
  std::uint64_t audit_violations = 0;

  void merge(const Outcome& other) {
    admission.merge(other.admission);
    critical_admission.merge(other.critical_admission);
    lifetime_qos.merge(other.lifetime_qos);
    delivered_level_time += other.delivered_level_time;
    simulated_time += other.simulated_time;
    adapt.merge(other.adapt);
    audit_violations += other.audit_violations;
  }
};

Outcome run(Arm arm, double rate_per_60, double run_length,
            std::uint64_t seed) {
  PaperScenarioConfig config;
  config.setup_seed = seed;
  PaperScenario scenario(config);
  BasicPlanner admit_planner;
  TradeoffPlanner degrade_planner;
  EventQueue queue;
  Rng rng(seed ^ 0xada9717ULL);
  Rng watchdog_rng(seed ^ 0x3a7c4d09ULL);
  const SessionSource source = scenario.make_source();
  Outcome outcome;
  std::map<std::uint32_t, Active> active;
  std::uint32_t next_session = 0;

  auto level_of = [](std::size_t rank) {
    return static_cast<double>(kPaperQoSLevels - rank);
  };
  auto account = [&](Active& a, double now) {
    a.weighted_level += level_of(a.rank) * (now - a.last_change);
    a.last_change = now;
  };
  auto finish = [&](std::map<std::uint32_t, Active>::iterator it,
                    double now) {
    Active& a = it->second;
    account(a, now);
    const double lifetime = now - a.admitted_at;
    outcome.lifetime_qos.add(lifetime > 0.0 ? a.weighted_level / lifetime
                                            : level_of(a.rank));
    outcome.delivered_level_time += a.weighted_level;
    active.erase(it);
  };

  // The watchdog watches the four server resources: they are the
  // environment's bottlenecks, and a narrow watch keeps the downgrade
  // blast radius to sessions actually touching a contended server rather
  // than everyone sharing any network path with one.
  std::vector<ResourceId> watched;
  for (int server = 1; server <= PaperScenario::kServers; ++server)
    watched.push_back(scenario.host_resource(server));
  // Alpha over a 3-TU window is a short-horizon trend signal: single fat
  // arrivals dent it just like a flash crowd does, and only persistence
  // tells them apart. A long EWMA half-life smooths the dents away while
  // a sustained burst decline accumulates; the band then separates the
  // burst (EWMA well below one) from steady churn (EWMA near one).
  adapt::MonitorConfig monitor_config;
  monitor_config.ewma_halflife = 6.0;
  monitor_config.enter_contended = 0.50;
  monitor_config.exit_contended = 0.75;
  adapt::ContentionMonitor monitor(&scenario.registry(), std::move(watched),
                                   monitor_config);
  adapt::ContentionGovernor governor(&monitor);
  ReservationAuditor auditor(&scenario.registry());

  // One engine per (service, domain) coordinator, all sharing the monitor
  // and the auditor. Re-sampling the shared monitor at one watchdog
  // timestamp is idempotent.
  std::map<SessionCoordinator*, std::unique_ptr<adapt::AdaptationEngine>>
      engines;
  // Watchdog passes tick the engines in (service, domain) order; walking
  // the pointer-keyed map would tie the order to the heap layout.
  std::vector<adapt::AdaptationEngine*> tick_order;
  if (arm != Arm::kPlain) {
    adapt::EngineConfig engine_config;
    engine_config.allow_preemption = arm == Arm::kAdaptivePriorities;
    // Rank recovery after a burst is additive (one rank per probe); a
    // cooldown shorter than the burst spacing lets sessions climb back
    // within a few watchdog periods once the environment is calm.
    engine_config.upgrade_cooldown = 3.0;
    for (int service = 1; service <= PaperScenario::kServers; ++service)
      for (int domain = 1; domain <= PaperScenario::kDomains; ++domain) {
        if (service == PaperScenario::excluded_service(domain)) continue;
        SessionCoordinator& coordinator =
            scenario.coordinator(service, domain);
        if (engines.count(&coordinator)) continue;
        // Admissions go through the §4.3.1 tradeoff policy: its
        // alpha-scaled psi bound degrades burst-time admissions instead
        // of letting them fail (the paper's own answer to contention) —
        // and unlike the paper, the engine's upgrade probes lift those
        // sessions back up once the burst clears.
        auto engine = std::make_unique<adapt::AdaptationEngine>(
            &coordinator, &monitor, &degrade_planner, &degrade_planner,
            engine_config);
        engine->set_auditor(&auditor);
        engine->on_rank_changed = [&](SessionId session, std::size_t,
                                      std::size_t new_rank) {
          auto it = active.find(session.value());
          if (it == active.end()) return;
          account(it->second, queue.now());
          it->second.rank = new_rank;
        };
        engine->on_evicted = [&](SessionId session) {
          auto it = active.find(session.value());
          if (it != active.end()) finish(it, queue.now());
        };
        if (arm == Arm::kAdaptivePriorities)
          coordinator.set_admission_governor(&governor);
        tick_order.push_back(engine.get());
        engines.emplace(&coordinator, std::move(engine));
      }
  }

  auto draw_priority = [&](Rng& r) {
    const double u = r.uniform(0.0, 1.0);
    if (u < 0.25) return adapt::SessionPriority::kBackground;
    if (u < 0.85) return adapt::SessionPriority::kStandard;
    return adapt::SessionPriority::kCritical;
  };

  std::function<void()> arrival = [&] {
    const double now = queue.now();
    const SessionSpec spec = source(rng, now);
    // Drawn in every arm so the arrival streams stay aligned.
    const adapt::SessionPriority priority = draw_priority(rng);
    const SessionId session{next_session++};
    adapt::AdaptationEngine* engine =
        arm == Arm::kPlain ? nullptr : engines.at(spec.coordinator).get();
    EstablishResult result =
        engine ? engine->admit(session, now, priority, spec.traits.scale, rng)
               : spec.coordinator->establish(session, now, admit_planner, rng,
                                             spec.traits.scale);
    outcome.admission.record(result.success);
    if (priority == adapt::SessionPriority::kCritical)
      outcome.critical_admission.record(result.success);
    if (result.success) {
      Active entry;
      entry.coordinator = spec.coordinator;
      entry.engine = engine;
      if (!engine) entry.holdings = std::move(result.holdings);
      entry.rank = result.plan->end_to_end_rank;
      entry.admitted_at = now;
      entry.last_change = now;
      active.emplace(session.value(), std::move(entry));
      queue.schedule_in(spec.traits.duration, [&, session] {
        auto it = active.find(session.value());
        if (it == active.end()) return;  // evicted earlier
        const double t = queue.now();
        Active& a = it->second;
        if (a.engine)
          a.engine->depart(session, t);
        else
          a.coordinator->teardown(a.holdings, session, t);
        finish(it, t);
      });
    }
    const double next_time = now + rng.exponential(rate_at(rate_per_60, now));
    if (next_time <= run_length) queue.schedule(next_time, arrival);
  };
  queue.schedule(rng.exponential(rate_at(rate_per_60, 0.0)), arrival);

  const double watchdog_period = scenario.config().alpha_window;
  std::function<void()> watchdog = [&] {
    for (adapt::AdaptationEngine* engine : tick_order)
      engine->tick(queue.now(), watchdog_rng);
    if (queue.now() + watchdog_period <= run_length)
      queue.schedule_in(watchdog_period, watchdog);
  };
  if (arm != Arm::kPlain) queue.schedule(watchdog_period, watchdog);

  queue.run_all();
  outcome.simulated_time = run_length;

  // Conservation: every session departed or was evicted, so the audit
  // degenerates to the proof that nothing leaked.
  for (auto& [coordinator, engine] : engines) {
    AdaptationStats stats = engine->stats();
    stats.suppressed_flaps = 0;  // engine copies the shared monitor total
    outcome.adapt.merge(stats);
  }
  outcome.adapt.suppressed_flaps = monitor.total_suppressed_flaps();
  outcome.audit_violations += auditor.audit_hosts().size();
  if (!auditor.model_empty()) ++outcome.audit_violations;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  double run_length = 5400.0;
  std::size_t replicas = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fast") {
      run_length = 1200.0;
      replicas = 2;
    } else if (arg == "--run-length" && i + 1 < argc) {
      run_length = std::atof(argv[++i]);
    } else if (arg == "--replicas" && i + 1 < argc) {
      replicas = static_cast<std::size_t>(std::atoi(argv[++i]));
    }
  }

  std::cout << "Extension: contention watchdog + graceful-degradation "
               "adaptation\n";
  TablePrinter table({"rate", "arm", "admission", "crit. adm.", "QoS (tw)",
                      "QoS thru", "down", "up", "aborts", "shed", "evict",
                      "fast-rej", "audit"});
  std::uint64_t total_violations = 0;
  for (double rate : {60.0, 90.0}) {
    for (Arm arm :
         {Arm::kPlain, Arm::kAdaptive, Arm::kAdaptivePriorities}) {
      Outcome merged;
      for (std::size_t r = 0; r < replicas; ++r)
        merged.merge(run(arm, rate, run_length, 3000 + r));
      total_violations += merged.audit_violations;
      table.add_row(
          {TablePrinter::fmt(rate, 0), arm_name(arm),
           TablePrinter::pct(merged.admission.value()),
           TablePrinter::pct(merged.critical_admission.value()),
           TablePrinter::fmt(merged.lifetime_qos.mean()),
           TablePrinter::fmt(merged.delivered_level_time /
                             merged.simulated_time),
           std::to_string(merged.adapt.downgrades),
           std::to_string(merged.adapt.upgrades),
           std::to_string(merged.adapt.mbb_aborts),
           std::to_string(merged.adapt.preempt_downgrades),
           std::to_string(merged.adapt.preemptions),
           std::to_string(merged.adapt.overload_rejects),
           std::to_string(merged.audit_violations)});
    }
  }
  table.print(std::cout);
  std::cout << "\n(replicas per point: " << replicas
            << ", run length: " << run_length << " TU; rate multiplies by 6 for "
            << kBurstLength << " TU every " << kBurstEvery
            << " TU; QoS (tw) is the time-weighted end-to-end level over "
               "each admitted session's lifetime, 3 = best; QoS thru is "
               "the system's QoS throughput — level-TUs delivered per TU, "
               "counting rejections as zero; audit must be 0)\n";
  return total_violations == 0 ? 0 : 1;
}
