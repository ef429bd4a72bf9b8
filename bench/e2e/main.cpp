// qres_bench: end-to-end and per-layer benchmark of session establishment
// on the typed control plane (see README.md in this directory).
//
//   qres_bench --workload <paper_1x|flash_100x|durable_1x|wide_chain>
//              --seed <s> [--seconds <n>] [--trace <file>] [--quick]
//              [--journal-dir <dir>]
//
// A run is a fixed number of identical rounds. A round builds its
// environment (timed as set-up), warms up, runs a timed phase of fixed
// simulated length, then runs every pending departure and checks that
// every broker is back at full capacity. Every round replays the same
// seeded session stream, so every round must reach the same decisions
// (same digest), and each unit of timed work is reported at its fastest
// over the rounds. The round count follows from --seconds and the
// workload alone (rounds_of), never from how fast rounds go, so that two
// builds take their minima over the same number of rounds.
//
// Arrivals are open-loop in simulated time but driven closed-loop in wall
// time by one caller: each establish returns before the next event runs.
// Latency is the wall time of one establish call (of the whole batch on
// flash_100x); throughput is requests decided per wall second of the timed
// phase. With --trace, untraced and traced rounds alternate: end-to-end
// metrics come from the untraced ones, per-layer metrics from the traced
// ones, and their throughput ratio is the tracing overhead.
//
// The last line of stdout is one JSON object with every metric; the exit
// status is non-zero when a check failed.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/event_queue.hpp"
#include "core/planner.hpp"
#include "probes.hpp"
#include "sim/batch_admission.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "worlds.hpp"

namespace qres::e2e {
namespace {

using Clock = std::chrono::steady_clock;
using Holdings = std::vector<std::pair<ResourceId, double>>;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The process's resident-set high-water mark. Read from VmHWM, which
/// starts afresh at exec: getrusage's ru_maxrss carries over the peak of
/// the process that exec'd us (run.py's Python interpreter).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

// --- Workloads --------------------------------------------------------

enum class Workload : std::uint8_t {
  kPaper1x,
  kFlash100x,
  kDurable1x,
  kWideChain
};

/// Poisson rate on wide_chain, chosen once so that admitted_frac lands
/// inside 0.5-0.9 (about 0.83).
constexpr double kWideChainRate = 0.25;

struct WorkloadSpec {
  Workload workload = Workload::kPaper1x;
  /// Poisson sessions per TU; on flash_100x, same-tick arrivals per TU.
  double rate = 0.0;
  double warmup = 0.0;  ///< simulated TU before the timed phase
  double timed = 0.0;   ///< simulated TU of the timed phase
  /// Wall seconds one round took when the benchmark was sized (4-vCPU VM,
  /// GCC 12, RelWithDebInfo). Only rounds_of reads it.
  double round_s = 0.0;
};

/// Run lengths are fixed in simulated time, never in wall time.
/// durable_1x uses paper_1x's lengths so the two stay comparable session
/// for session (equal digests).
WorkloadSpec spec_of(Workload workload, bool quick) {
  switch (workload) {
    case Workload::kPaper1x:
      return {workload, 2.0, quick ? 200.0 : 2000.0, quick ? 600.0 : 4000.0,
              0.4};
    case Workload::kDurable1x:
      return {workload, 2.0, quick ? 200.0 : 2000.0, quick ? 600.0 : 4000.0,
              1.5};
    case Workload::kFlash100x:
      return {workload, 200.0, quick ? 5.0 : 20.0, quick ? 20.0 : 200.0, 1.1};
    case Workload::kWideChain:
      return {workload, kWideChainRate, (quick ? 50.0 : 300.0) / kWideChainRate,
              (quick ? 300.0 : 1500.0) / kWideChainRate, 1.1};
  }
  return {};
}

/// Rounds in a run of `seconds`: as many as took that long when the
/// benchmark was sized, whatever the speed of the build under test (a
/// faster build's run simply ends sooner). With --trace every other round
/// is traced. --quick and --seconds 0 run a single round of each kind.
int rounds_of(const WorkloadSpec& spec, double seconds, bool quick,
              bool tracing) {
  const int kinds = tracing ? 2 : 1;
  if (quick) return kinds;
  const auto rounds = static_cast<int>(std::lround(seconds / spec.round_s));
  return std::max(rounds, kinds);
}

const std::array<std::pair<const char*, Workload>, 4> kWorkloads = {{
    {"paper_1x", Workload::kPaper1x},
    {"flash_100x", Workload::kFlash100x},
    {"durable_1x", Workload::kDurable1x},
    {"wide_chain", Workload::kWideChain},
}};

struct Options {
  Workload workload = Workload::kPaper1x;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string trace_path;  ///< non-empty: alternate traced rounds
  bool quick = false;
  std::string journal_dir = ".";
};

// --- One round --------------------------------------------------------

struct Counters {
  std::uint64_t wire_bytes = 0;
  std::uint64_t dedup_replays = 0;
  std::uint64_t backpressure = 0;
  ReplicationTotals replication;

  Counters& operator-=(const Counters& o) {
    wire_bytes -= o.wire_bytes;
    dedup_replays -= o.dedup_replays;
    backpressure -= o.backpressure;
    replication.ship_batches -= o.replication.ship_batches;
    replication.ship_records -= o.replication.ship_records;
    replication.quorum_failures -= o.replication.quorum_failures;
    return *this;
  }
  Counters& operator+=(const Counters& o) {
    wire_bytes += o.wire_bytes;
    dedup_replays += o.dedup_replays;
    backpressure += o.backpressure;
    replication.ship_batches += o.replication.ship_batches;
    replication.ship_records += o.replication.ship_records;
    replication.quorum_failures += o.replication.quorum_failures;
    return *this;
  }
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

void fnv1a(std::uint64_t* hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    *hash ^= bytes[i];
    *hash *= 0x100000001b3ULL;
  }
}

/// Chunks the timed phase of a Poisson workload is timed in (flash_100x
/// times each tick).
constexpr int kChunks = 100;
/// Set-up takes well under a millisecond, little next to scheduler and
/// filesystem noise (the first set-up of a round also absorbs the previous
/// round's teardown), so each round sets up this many times and keeps its
/// fastest.
constexpr int kSetupsPerRound = 5;
/// flash_100x's planning pool: with the calling thread, nproc threads on
/// the 4-vCPU machine the benchmark was sized on. The pool is the
/// process's, made once per run, so set-up times the reservation
/// environment alone (starting and joining threads in every set-up made
/// flash_100x's setup_s swing by 25-30 % from run to run).
constexpr std::size_t kFlashWorkers = 3;

struct RoundResult {
  bool traced = false;
  std::vector<double> setup_s;
  std::vector<double> chunk_s;  ///< wall time of each timed-phase chunk
  // Timed phase only:
  std::uint64_t attempted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t failed = 0;
  std::uint64_t conflict_replans = 0;
  double qos_sum = 0.0;  ///< end-to-end QoS levels of admitted sessions
  std::vector<float> latency_us;
  Counters counters;
  std::vector<SpanRecord> spans;
  // Whole round:
  std::uint64_t digest = kFnvOffset;  ///< every decision, warm-up included
  std::size_t queue_high_water = 0;
  std::string conservation;  ///< empty when every broker came back full
  double peak_rss_mb = 0.0;  ///< process high-water mark at the round's end
  bool timing = false;

  /// Folds one establishment outcome into the digest and, inside the
  /// timed phase, into the metrics.
  void record(SessionId session, const SessionCoordinator& coordinator,
              const EstablishResult& result, double latency) {
    const std::uint32_t id = session.value();
    const auto outcome = static_cast<std::uint8_t>(result.outcome);
    const std::uint64_t rank =
        result.plan ? result.plan->end_to_end_rank : ~std::uint64_t{0};
    fnv1a(&digest, &id, sizeof id);
    fnv1a(&digest, &outcome, sizeof outcome);
    fnv1a(&digest, &rank, sizeof rank);
    for (const auto& [resource, amount] : result.holdings) {
      const std::uint32_t rid = resource.value();
      fnv1a(&digest, &rid, sizeof rid);
      fnv1a(&digest, &amount, sizeof amount);
    }
    if (!timing) return;
    ++attempted;
    latency_us.push_back(static_cast<float>(latency));
    conflict_replans += result.stats.replans;
    if (result.success) {
      ++admitted;
      qos_sum += static_cast<double>(
          coordinator.service().end_to_end_ranking().size() -
          result.plan->end_to_end_rank);
    }
    if (result.outcome == EstablishOutcome::kUnreachable ||
        result.outcome == EstablishOutcome::kOverload ||
        result.outcome == EstablishOutcome::kBrokerUnavailable ||
        !result.leaked.empty())
      ++failed;
  }
};

/// Brackets the timed phase: wall clock, counter deltas and, in traced
/// rounds, the spans recorded inside it (warm-up spans are discarded).
class TimedPhase {
 public:
  TimedPhase(const TypedPlane& plane, BrokerRegistry& registry,
             RoundResult* round)
      : plane_(plane), registry_(registry), round_(round) {}

  void begin() {
    if (round_->traced) take_spans();
    before_ = read();
    round_->timing = true;
    lap_ = Clock::now();
  }

  /// Closes the current chunk of the timed phase.
  void lap() {
    const Clock::time_point now = Clock::now();
    round_->chunk_s.push_back(std::chrono::duration<double>(now - lap_).count());
    lap_ = now;
  }

  void end() {
    round_->timing = false;
    round_->counters = read();
    round_->counters -= before_;
    if (round_->traced) round_->spans = take_spans();
  }

 private:
  Counters read() const {
    return {plane_.wire_bytes(), plane_.dedup_replays(),
            plane_.backpressure(), replication_totals(registry_)};
  }

  const TypedPlane& plane_;
  BrokerRegistry& registry_;
  RoundResult* round_;
  Counters before_;
  Clock::time_point lap_;
};

/// SessionCoordinator::establish() is exactly these three phases
/// (proxy/qos_proxy.hpp); traced rounds call them one by one so that each
/// gets a span.
EstablishResult establish_traced(SessionCoordinator& coordinator,
                                 SessionId session, double now,
                                 const IPlanner& planner, Rng& rng,
                                 double scale, std::uint64_t parent) {
  Span root(SpanName::kEstablish, session.value(), parent);
  SessionCoordinator::PlanningSnapshot snapshot;
  {
    Span span(SpanName::kSnapshot);
    snapshot = coordinator.snapshot_for_planning(now);
  }
  PlanResult planned;
  if (!snapshot.overloaded) {
    Span span(SpanName::kPlan);
    planned = coordinator.plan_on_snapshot(snapshot, planner, rng, scale);
  }
  Span span(SpanName::kCommit);
  return coordinator.commit_planned(session, now, snapshot,
                                    std::move(planned));
}

/// establish_batch (sim/batch_admission.cpp) with default options, phase
/// by phase so that each gets a span. Untraced rounds call establish_batch
/// itself, and equal round digests show both take the same decisions.
std::vector<EstablishResult> establish_batch_traced(
    const std::vector<BatchRequest>& requests, double now,
    const IPlanner& planner, Rng& rng, ThreadPool* pool) {
  const std::uint64_t batch = begin_span(SpanName::kBatch, 0, kNoSpan);
  const std::size_t n = requests.size();
  std::vector<SessionCoordinator::PlanningSnapshot> snapshots;
  snapshots.reserve(n);
  std::vector<std::uint64_t> seeds(n);
  for (std::size_t i = 0; i < n; ++i) {
    {
      Span span(SpanName::kSnapshot, requests[i].session.value(), batch);
      snapshots.push_back(requests[i].coordinator->snapshot_for_planning(
          now, requests[i].staleness));
    }
    seeds[i] = rng();
  }
  std::vector<PlanResult> planned(n);
  auto plan_one = [&](std::size_t i) {
    if (snapshots[i].overloaded) return;
    Span span(SpanName::kPlan, requests[i].session.value(), batch);
    Rng slot_rng(seeds[i]);
    planned[i] = requests[i].coordinator->plan_on_snapshot(
        snapshots[i], planner, slot_rng, requests[i].scale);
  };
  if (pool != nullptr)
    pool->parallel_for(n, plan_one, 1);
  else
    for (std::size_t i = 0; i < n; ++i) plan_one(i);
  std::vector<EstablishResult> results(n);
  for (std::size_t i = 0; i < n; ++i) {
    const BatchRequest& request = requests[i];
    {
      Span span(SpanName::kCommit, request.session.value(), batch);
      results[i] = request.coordinator->commit_planned(
          request.session, now, snapshots[i], std::move(planned[i]));
    }
    if (results[i].outcome != EstablishOutcome::kAdmission) continue;
    // Conflict replan, seeded as establish_batch seeds it. Of the
    // accumulated stats only the replan count is read here.
    std::uint64_t mix = seeds[i] ^ 0x9e3779b97f4a7c15ULL;
    Rng retry_rng(splitmix64(mix));
    const std::size_t earlier = results[i].stats.replans;
    results[i] =
        establish_traced(*request.coordinator, request.session, now, planner,
                         retry_rng, request.scale, batch);
    results[i].stats.replans += earlier + 1;
  }
  end_span();
  return results;
}

void teardown(SessionCoordinator& coordinator, const Holdings& holdings,
              SessionId session, double now, bool traced) {
  if (!traced) {
    coordinator.teardown(holdings, session, now);
    return;
  }
  Span span(SpanName::kTeardown, session.value(), kNoSpan);
  coordinator.teardown(holdings, session, now);
}

/// paper_1x, durable_1x, wide_chain: Poisson arrivals, one establish per
/// event. The rng use mirrors sim/simulation.cpp.
double drive_poisson(Environment& env, const WorkloadSpec& spec,
                     std::uint64_t seed, const IPlanner& planner,
                     TimedPhase& phase, RoundResult* round) {
  EventQueue queue;
  Rng rng(seed);
  const SessionSource source = env.make_source();
  const double end_time = spec.warmup + spec.timed;
  const bool traced = round->traced;
  std::uint32_t next_session = 1;
  std::function<void()> arrival = [&] {
    const double now = queue.now();
    const SessionSpec session = source(rng, now);
    const SessionId id{next_session++};
    SessionCoordinator& coordinator = *session.coordinator;
    const Clock::time_point start = Clock::now();
    EstablishResult result =
        traced ? establish_traced(coordinator, id, now, planner, rng,
                                  session.traits.scale, kNoSpan)
               : coordinator.establish(id, now, planner, rng,
                                       session.traits.scale);
    const double latency_us = seconds_since(start) * 1e6;
    round->record(id, coordinator, result, latency_us);
    if (result.success)
      queue.schedule(now + session.traits.duration,
                     [&queue, &coordinator, id, traced,
                      holdings = std::move(result.holdings)] {
                       teardown(coordinator, holdings, id, queue.now(),
                                traced);
                     });
    const double next = now + rng.exponential(spec.rate);
    if (next <= end_time) queue.schedule(next, arrival);
  };
  queue.schedule(rng.exponential(spec.rate), arrival);
  queue.run_until(spec.warmup);
  phase.begin();
  for (int chunk = 1; chunk < kChunks; ++chunk) {
    queue.run_until(spec.warmup + spec.timed * chunk / kChunks);
    phase.lap();
  }
  queue.run_until(end_time);
  phase.lap();
  phase.end();
  queue.run_all();
  return queue.now();
}

/// flash_100x: `spec.rate` same-tick arrivals per TU, admitted as one
/// batch per tick. Arrivals follow bench/ext_batch_admission's flash
/// crowd: a uniform (service, domain) coordinator, base requirements, and
/// a holding time of U(20, 180) TU.
double drive_flash(Environment& env, const WorkloadSpec& spec,
                   std::uint64_t seed, const IPlanner& planner,
                   ThreadPool* pool, TimedPhase& phase, RoundResult* round) {
  EventQueue queue;
  Rng rng(seed);
  const std::vector<Environment::Coordinator> coordinators =
      env.coordinators();
  const int last = static_cast<int>(coordinators.size()) - 1;
  const bool traced = round->traced;
  BatchOptions options;
  options.pool = pool;
  const auto per_tick = static_cast<std::size_t>(spec.rate);
  const auto warmup = static_cast<int>(spec.warmup);
  const int ticks = warmup + static_cast<int>(spec.timed);
  std::uint32_t next_session = 1;
  for (int tick = 1; tick <= ticks; ++tick) {
    const auto now = static_cast<double>(tick);
    if (tick == warmup + 1) phase.begin();
    queue.run_until(now);
    std::vector<BatchRequest> requests;
    std::vector<double> durations;
    for (std::size_t a = 0; a < per_tick; ++a) {
      SessionCoordinator* coordinator =
          coordinators[rng.uniform_int(0, last)].coordinator;
      requests.push_back({coordinator, SessionId{next_session++}, 1.0, nullptr});
      durations.push_back(rng.uniform(20.0, 180.0));
    }
    const Clock::time_point start = Clock::now();
    std::vector<EstablishResult> results =
        traced ? establish_batch_traced(requests, now, planner, rng, pool)
               : establish_batch(requests, now, planner, rng, options);
    const double latency_us = seconds_since(start) * 1e6;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      SessionCoordinator& coordinator = *requests[i].coordinator;
      const SessionId id = requests[i].session;
      round->record(id, coordinator, results[i], latency_us);
      if (results[i].success)
        queue.schedule(now + durations[i],
                       [&queue, &coordinator, id, traced,
                        holdings = std::move(results[i].holdings)] {
                         teardown(coordinator, holdings, id, queue.now(),
                                  traced);
                       });
    }
    if (tick > warmup) phase.lap();
  }
  phase.end();
  queue.run_all();
  return std::max(queue.now(), static_cast<double>(ticks));
}

std::unique_ptr<Environment> make_environment(const Options& options,
                                              bool traced) {
  switch (options.workload) {
    case Workload::kPaper1x:
    case Workload::kFlash100x:
      return make_paper_environment();
    case Workload::kDurable1x:
      return make_durable_environment(options.journal_dir, traced);
    case Workload::kWideChain:
      return make_wide_chain_environment();
  }
  return nullptr;
}

/// `pool` plans flash_100x's batches; nullptr plans them inline.
RoundResult run_round(const Options& options, const WorkloadSpec& spec,
                      bool traced, ThreadPool* pool) {
  RoundResult round;
  round.traced = traced;
  set_alloc_counting(traced);
  const BasicPlanner basic;
  const TimedPlanner timed(basic);
  const IPlanner& planner = traced ? static_cast<const IPlanner&>(timed)
                                   : static_cast<const IPlanner&>(basic);
  FrameProbe frames;

  std::unique_ptr<Environment> env;
  std::unique_ptr<TypedPlane> plane;
  for (int i = 0; i < kSetupsPerRound; ++i) {
    plane.reset();
    env.reset();
    const Clock::time_point start = Clock::now();
    env = make_environment(options, traced);
    plane = std::make_unique<TypedPlane>(*env, traced ? &frames : nullptr);
    round.setup_s.push_back(seconds_since(start));
  }

  TimedPhase phase(*plane, env->registry(), &round);
  const double end =
      spec.workload == Workload::kFlash100x
          ? drive_flash(*env, spec, options.seed, planner, pool, phase,
                        &round)
          : drive_poisson(*env, spec, options.seed, planner, phase, &round);
  round.queue_high_water = plane->queue_high_water();
  round.conservation = conservation_error(env->registry(), end);
  round.peak_rss_mb = peak_rss_mb();
  set_alloc_counting(false);
  return round;
}

// --- Metrics ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Nearest-rank quantile.
double quantile(std::vector<float> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return static_cast<double>(values[index]);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Rounds replay identical work, so each unit of work (one chunk of the
// timed phase, one request) is timed once per round and taken at its
// fastest. Other tenants of the host slow the machine down in stretches
// of up to tens of seconds; a unit's minimum over the rounds is slow only
// when every round met such a stretch at that unit.

/// The timed phase's wall time, each chunk at its fastest over rounds.
double timed_seconds(const std::vector<const RoundResult*>& rounds) {
  double total = 0.0;
  for (std::size_t c = 0; c < rounds.front()->chunk_s.size(); ++c) {
    double fastest = rounds.front()->chunk_s[c];
    for (const RoundResult* round : rounds)
      if (c < round->chunk_s.size())
        fastest = std::min(fastest, round->chunk_s[c]);
    total += fastest;
  }
  return total;
}

double throughput(const std::vector<const RoundResult*>& rounds) {
  return ratio(static_cast<double>(rounds.front()->attempted),
               timed_seconds(rounds));
}

/// Each timed request's latency, at its fastest over rounds.
std::vector<float> request_latency_us(
    const std::vector<const RoundResult*>& rounds) {
  std::vector<float> latency = rounds.front()->latency_us;
  for (const RoundResult* round : rounds) {
    latency.resize(std::min(latency.size(), round->latency_us.size()));
    for (std::size_t i = 0; i < latency.size(); ++i)
      latency[i] = std::min(latency[i], round->latency_us[i]);
  }
  return latency;
}

std::vector<Metric> end_to_end(const std::vector<const RoundResult*>& rounds) {
  std::vector<double> setups;
  for (const RoundResult* round : rounds)
    setups.push_back(
        *std::min_element(round->setup_s.begin(), round->setup_s.end()));
  const std::vector<float> latency = request_latency_us(rounds);
  const RoundResult& first = *rounds.front();
  const auto attempted = static_cast<double>(first.attempted);
  return {
      {"sessions_per_s", throughput(rounds), "1/s"},
      {"establish_p50_us", quantile(latency, 0.50), "us"},
      {"establish_p90_us", quantile(latency, 0.90), "us"},
      {"establish_p99_us", quantile(latency, 0.99), "us"},
      {"admitted_frac", ratio(static_cast<double>(first.admitted), attempted),
       "fraction"},
      {"qos_level_mean",
       ratio(first.qos_sum, static_cast<double>(first.admitted)), "level"},
      {"failed_frac", ratio(static_cast<double>(first.failed), attempted),
       "fraction"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", first.peak_rss_mb, "MB"},
  };
}

/// Span samples of the traced rounds, folded round by round so that only
/// the first traced round's raw spans need to be kept (for --trace).
struct LayerSamples {
  std::array<std::vector<float>, kSpanNameCount> duration_us;
  std::array<std::uint64_t, kSpanNameCount> allocs{};
  std::vector<float> qrg_build_us;  ///< proxy.plan self time
  std::uint64_t qrg_edges = 0;
  std::uint64_t journal_bytes = 0;
  double pool_plan_us = 0.0;  ///< proxy.plan time in batch planning phases

  void add(const std::vector<SpanRecord>& spans) {
    std::unordered_map<std::uint64_t, double> planner_us;  // by proxy.plan
    std::unordered_set<std::uint64_t> batches;
    for (const SpanRecord& span : spans) {
      const auto k = static_cast<std::size_t>(span.name);
      duration_us[k].push_back(static_cast<float>(span.duration_us()));
      allocs[k] += span.allocs;
      if (span.name == SpanName::kCorePlan) {
        qrg_edges += span.count;
        planner_us[span.parent] += span.duration_us();
      }
      if (span.name == SpanName::kJournalAppend) journal_bytes += span.count;
      if (span.name == SpanName::kBatch) batches.insert(span.id);
    }
    for (const SpanRecord& span : spans) {
      if (span.name != SpanName::kPlan) continue;
      qrg_build_us.push_back(
          static_cast<float>(span.duration_us() - planner_us[span.id]));
      // Conflict replans plan under an establish span, on the calling
      // thread.
      if (batches.contains(span.parent)) pool_plan_us += span.duration_us();
    }
  }

  const std::vector<float>& of(SpanName name) const {
    return duration_us[static_cast<std::size_t>(name)];
  }
};

std::vector<Metric> layers(const LayerSamples& samples,
                           const std::vector<const RoundResult*>& traced,
                           const std::vector<const RoundResult*>& untraced) {
  std::vector<Metric> out;
  double sessions = 0.0;
  Counters counters;
  double replans = 0.0;
  std::size_t high_water = 0;
  for (const RoundResult* round : traced) {
    sessions += static_cast<double>(round->attempted);
    counters += round->counters;
    replans += static_cast<double>(round->conflict_replans);
    high_water = std::max(high_water, round->queue_high_water);
  }
  const auto rounds = static_cast<double>(traced.size());

  const auto percentiles = [&](const std::string& name,
                               const std::vector<float>& values) {
    if (values.empty()) return;
    out.push_back({name + ".p50", quantile(values, 0.50), "us"});
    out.push_back({name + ".p99", quantile(values, 0.99), "us"});
  };
  const auto per_session = [&](const std::string& name, double total,
                               const char* unit) {
    out.push_back({name, ratio(total, sessions), unit});
  };
  const auto span_count = [&](SpanName name) {
    return static_cast<double>(samples.of(name).size());
  };
  const auto allocs = [&](SpanName name) {
    return static_cast<double>(samples.allocs[static_cast<std::size_t>(name)]);
  };
  const auto total_us = [&](SpanName name) {
    double total = 0.0;
    for (const float v : samples.of(name)) total += v;
    return total;
  };

  percentiles("proxy.snapshot_us", samples.of(SpanName::kSnapshot));
  percentiles("proxy.plan_us", samples.of(SpanName::kPlan));
  percentiles("proxy.commit_us", samples.of(SpanName::kCommit));
  percentiles("proxy.teardown_us", samples.of(SpanName::kTeardown));
  per_session("proxy.allocs_per_session.snapshot", allocs(SpanName::kSnapshot),
              "count");
  per_session("proxy.allocs_per_session.plan", allocs(SpanName::kPlan),
              "count");
  per_session("proxy.allocs_per_session.commit", allocs(SpanName::kCommit),
              "count");

  percentiles("core.plan_us", samples.of(SpanName::kCorePlan));
  percentiles("core.qrg_build_us", samples.qrg_build_us);
  out.push_back({"core.qrg_edges",
                 ratio(static_cast<double>(samples.qrg_edges),
                       span_count(SpanName::kCorePlan)),
                 "count"});

  per_session("rpc.frames_per_session.query",
              span_count(SpanName::kServerQuery), "count");
  per_session("rpc.frames_per_session.reserve",
              span_count(SpanName::kServerReserve), "count");
  per_session("rpc.frames_per_session.release",
              span_count(SpanName::kServerRelease), "count");
  per_session("rpc.wire_bytes_per_session",
              static_cast<double>(counters.wire_bytes), "B");
  percentiles("rpc.server_us.query", samples.of(SpanName::kServerQuery));
  percentiles("rpc.server_us.reserve", samples.of(SpanName::kServerReserve));
  percentiles("rpc.server_us.release", samples.of(SpanName::kServerRelease));
  out.push_back({"rpc.dedup_replays",
                 ratio(static_cast<double>(counters.dedup_replays), rounds),
                 "count"});
  out.push_back({"rpc.backpressure",
                 ratio(static_cast<double>(counters.backpressure), rounds),
                 "count"});
  out.push_back(
      {"rpc.queue_high_water", static_cast<double>(high_water), "count"});

  percentiles("broker.journal_append_us",
              samples.of(SpanName::kJournalAppend));
  per_session("broker.journal_records_per_session",
              span_count(SpanName::kJournalAppend), "count");
  per_session("broker.journal_bytes_per_session",
              static_cast<double>(samples.journal_bytes), "B");
  percentiles("broker.ship_us", samples.of(SpanName::kShip));
  per_session("broker.ship_batches_per_session",
              static_cast<double>(counters.replication.ship_batches), "count");
  per_session("broker.ship_records_per_session",
              static_cast<double>(counters.replication.ship_records), "count");
  out.push_back(
      {"broker.quorum_failures",
       ratio(static_cast<double>(counters.replication.quorum_failures),
             rounds),
       "count"});

  percentiles("sim.batch_us", samples.of(SpanName::kBatch));
  if (!samples.of(SpanName::kBatch).empty())
    out.push_back(
        {"sim.pool_busy_frac",
         ratio(samples.pool_plan_us,
               total_us(SpanName::kBatch) *
                   static_cast<double>(kFlashWorkers)),
         "fraction"});
  out.push_back({"sim.conflict_replans", ratio(replans, rounds), "count"});

  out.push_back({"trace.overhead_frac",
                 1.0 - ratio(throughput(traced), throughput(untraced)),
                 "fraction"});
  return out;
}

// --- Output -----------------------------------------------------------

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ",";
    out += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) + "}";
  }
  return out + "}";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::cout << title << "\n";
  for (const Metric& m : metrics)
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
}

// --- Command line -----------------------------------------------------

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "qres_bench: " << error
            << "\nusage: qres_bench --workload "
               "<paper_1x|flash_100x|durable_1x|wide_chain> --seed <s> "
               "[--seconds <n>] [--trace <file>] [--quick] "
               "[--journal-dir <dir>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload_name = value();
        const auto it = std::find_if(
            kWorkloads.begin(), kWorkloads.end(),
            [&](const auto& w) { return options.workload_name == w.first; });
        if (it == kWorkloads.end())
          usage("unknown workload '" + options.workload_name + "'");
        options.workload = it->second;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace_path = value();
      } else if (arg == "--quick") {
        options.quick = true;
      } else if (arg == "--journal-dir") {
        options.journal_dir = value();
      } else {
        usage("unknown argument '" + arg + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  if (!(options.seconds >= 0.0)) usage("--seconds must be >= 0");
  return options;
}

/// A private directory for durable_1x's journal files, removed at exit.
class JournalDir {
 public:
  explicit JournalDir(const std::string& parent)
      : path_(std::filesystem::path(parent) /
              ("qres_bench_journal." + std::to_string(::getpid()))) {
    std::filesystem::create_directories(path_);
  }
  ~JournalDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  JournalDir(const JournalDir&) = delete;
  JournalDir& operator=(const JournalDir&) = delete;

  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

int run(int argc, char** argv) {
  Options options = parse(argc, argv);
  const WorkloadSpec spec = spec_of(options.workload, options.quick);
  std::unique_ptr<JournalDir> journal_dir;
  if (options.workload == Workload::kDurable1x) {
    journal_dir = std::make_unique<JournalDir>(options.journal_dir);
    options.journal_dir = journal_dir->path();
  }
  const bool tracing = !options.trace_path.empty();

  std::vector<RoundResult> rounds;
  LayerSamples samples;
  std::vector<SpanRecord> trace_spans;
  std::size_t traced_rounds = 0;
  const int round_count =
      rounds_of(spec, options.seconds, options.quick, tracing);
  std::unique_ptr<ThreadPool> pool;
  if (options.workload == Workload::kFlash100x)
    pool = std::make_unique<ThreadPool>(kFlashWorkers);
  for (int i = 0; i < round_count; ++i) {
    const bool traced = tracing && i % 2 == 1;
    rounds.push_back(run_round(options, spec, traced, pool.get()));
    RoundResult& round = rounds.back();
    if (traced) {
      samples.add(round.spans);
      if (traced_rounds++ == 0)
        trace_spans = std::move(round.spans);
      round.spans = {};
    }
  }

  // durable_1x is figure 9 rebuilt by hand (worlds.cpp) and must decide as
  // PaperScenario does; flash_100x's pool must decide as inline planning
  // does. One more untraced round, outside the measurement, checks each on
  // every run.
  std::vector<std::string> problems;
  if (options.workload == Workload::kDurable1x ||
      options.workload == Workload::kFlash100x) {
    Options check = options;
    const bool durable = options.workload == Workload::kDurable1x;
    if (durable) check.workload = Workload::kPaper1x;
    const RoundResult round = run_round(check, spec, false, nullptr);
    if (round.digest != rounds.front().digest)
      problems.push_back(durable
                             ? "durable_1x decided differently from paper_1x"
                             : "the planning pool decided differently from "
                               "inline planning");
    if (!round.conservation.empty())
      problems.push_back("check round not conserved: " + round.conservation);
  }

  std::vector<const RoundResult*> untraced;
  std::vector<const RoundResult*> traced;
  for (const RoundResult& round : rounds)
    (round.traced ? traced : untraced).push_back(&round);

  const RoundResult& reference = rounds.front();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& round = rounds[i];
    attempted += round.attempted;
    failed += round.failed;
    const std::string label = "round " + std::to_string(i) +
                              (round.traced ? " (traced)" : "");
    if (!round.conservation.empty())
      problems.push_back(label + " not conserved: " + round.conservation);
    if (round.digest != reference.digest ||
        round.attempted != reference.attempted ||
        round.admitted != reference.admitted)
      problems.push_back(label + " decided differently from round 0");
  }
  if (tracing && !write_spans(trace_spans, options.trace_path))
    problems.push_back("cannot write " + options.trace_path);

  const std::vector<Metric> e2e = end_to_end(untraced);
  std::vector<Metric> layer;
  if (tracing) layer = layers(samples, traced, untraced);

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(reference.digest));
  std::cout << "qres_bench " << options.workload_name << " seed "
            << options.seed << ": " << rounds.size() << " rounds ("
            << traced.size() << " traced), " << reference.attempted
            << " timed requests per round, digest " << digest << "\n";
  print_metrics("end-to-end (untraced rounds):", e2e);
  if (tracing) print_metrics("per-layer (traced rounds):", layer);
  for (const std::string& problem : problems)
    std::cerr << "qres_bench: CHECK FAILED: " << problem << "\n";

  std::string problems_json = "[";
  for (const std::string& problem : problems) {
    if (problems_json.size() > 1) problems_json += ",";
    problems_json += json_string(problem);
  }
  problems_json += "]";
  std::cout << "{\"workload\":" << json_string(options.workload_name)
            << ",\"seed\":" << options.seed << ",\"rounds\":" << rounds.size()
            << ",\"traced_rounds\":" << traced.size()
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"correct\":" << (problems.empty() ? "true" : "false")
            << ",\"digest\":\"" << digest << "\""
            << ",\"problems\":" << problems_json
            << ",\"metrics\":" << json_metrics(e2e)
            << ",\"layers\":" << json_metrics(layer) << "}" << std::endl;
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace qres::e2e

int main(int argc, char** argv) {
  try {
    return qres::e2e::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "qres_bench: " << error.what() << "\n";
    return 1;
  }
}
