// Microbenchmarks (google-benchmark) for the runtime algorithm itself,
// validating the paper's O(K * Q^2) complexity claim (§4.2) and the
// batch-admission scaling of DESIGN.md §11. K = number of components in
// the chain, Q = QoS levels per component.
//
// Timing is split by phase so regressions localize: QRG compilation
// (cold, once per service) and re-weighting (warm, once per session),
// pass I alone (topological sweep and heap Dijkstra), pass II alone, and
// the establishment pipeline split into snapshot / plan / full commit via
// SessionCoordinator's three-phase API — earlier revisions timed the
// QRG build and both planner passes as one number, which hid where the
// time went. Every benchmark declares a warm-up so the first-iteration
// allocator and cache effects stay out of the reported rates.
//
// The batch benchmarks report plans_per_sec (a rate counter suitable
// for BENCH_*.json) across worker counts 1..8 on the figure-9 paper
// scenario. Single-CPU machines still run them (the determinism
// contract makes the numbers comparable); the scaling curve is only
// meaningful with real cores.
//
// `--quick` (handled by our main, before google-benchmark's own flags)
// shrinks min_time/warm-up so tier-1 ctest can smoke the whole binary.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "core/random_planner.hpp"
#include "scenario/paper_scenario.hpp"
#include "sim/batch_admission.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qres {
namespace {

/// Synthetic chain: K components, Q levels each, dense tables over one
/// resource per component pair (so the QRG has K*Q^2 translation edges).
struct Synthetic {
  ServiceDefinition service;
  AvailabilityView view;
};

Synthetic make_chain(int k, int q) {
  Rng rng(static_cast<std::uint64_t>(k) * 1000 + q);
  AvailabilityView view;
  std::uint32_t next_resource = 0;
  const QoSSchema schema({"level"});
  std::vector<ServiceComponent> components;
  std::vector<std::pair<ComponentIndex, ComponentIndex>> edges;
  for (int c = 0; c < k; ++c) {
    const int ins = c == 0 ? 1 : q;
    TranslationTable table;
    const ResourceId cpu{next_resource++};
    const ResourceId bw{next_resource++};
    view.set(cpu, 1000.0);
    view.set(bw, 1000.0);
    for (int in = 0; in < ins; ++in)
      for (int out = 0; out < q; ++out) {
        ResourceVector req;
        req.set(cpu, rng.uniform(1.0, 100.0));
        req.set(bw, rng.uniform(1.0, 100.0));
        table.set(static_cast<LevelIndex>(in),
                  static_cast<LevelIndex>(out), req);
      }
    std::vector<QoSVector> levels;
    for (int i = 0; i < q; ++i)
      levels.push_back(QoSVector(schema, {static_cast<double>(q - i)}));
    components.emplace_back("c" + std::to_string(c), std::move(levels),
                            table.as_function());
    if (c > 0)
      edges.push_back({static_cast<ComponentIndex>(c - 1),
                       static_cast<ComponentIndex>(c)});
  }
  ServiceDefinition service("synthetic", std::move(components),
                            std::move(edges), QoSVector(schema, {1.0}));
  return Synthetic{std::move(service), std::move(view)};
}

// ---------------------------------------------------------------------
// Phase-split timings on the synthetic K x Q grid.

void BM_QrgCompile(benchmark::State& state) {
  // Cold: every iteration builds the first Qrg of a fresh copy of the
  // service, which compiles it (translation calls, node numbering, CSR)
  // and then weighs the candidates once. Making and destroying the copy
  // are untimed.
  const Synthetic s =
      make_chain(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1)));
  for (auto _ : state) {
    state.PauseTiming();
    auto fresh = std::make_unique<ServiceDefinition>(s.service);
    state.ResumeTiming();
    benchmark::DoNotOptimize(Qrg(*fresh, s.view).edge_count());
    state.PauseTiming();
    fresh.reset();
    state.ResumeTiming();
  }
  state.SetComplexityN(state.range(0) * state.range(1) * state.range(1));
}

void BM_QrgReweight(benchmark::State& state) {
  // Warm: the per-session cost once the service is compiled — one
  // weighing pass over the candidates against the snapshot.
  const Synthetic s =
      make_chain(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1)));
  benchmark::DoNotOptimize(Qrg(s.service, s.view).edge_count());
  for (auto _ : state) {
    Qrg qrg(s.service, s.view);
    benchmark::DoNotOptimize(qrg.edge_count());
  }
  state.SetComplexityN(state.range(0) * state.range(1) * state.range(1));
}

void BM_PassIRelax(benchmark::State& state) {
  const Synthetic s =
      make_chain(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1)));
  const Qrg qrg(s.service, s.view);
  for (auto _ : state) {
    auto labels = relax_qrg(qrg);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetComplexityN(state.range(0) * state.range(1) * state.range(1));
}

void BM_PassIDijkstraHeap(benchmark::State& state) {
  const Synthetic s =
      make_chain(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1)));
  const Qrg qrg(s.service, s.view);
  for (auto _ : state) {
    auto labels = dijkstra_qrg(qrg);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetComplexityN(state.range(0) * state.range(1) * state.range(1));
}

void BM_PassIIFromLabels(benchmark::State& state) {
  // Pass II alone: sink selection + backtracking from precomputed
  // labels. Timed separately so pass-I changes don't blur it.
  const Synthetic s =
      make_chain(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1)));
  const Qrg qrg(s.service, s.view);
  const auto labels = relax_qrg(qrg);
  for (auto _ : state) {
    PlanResult result = basic_plan_from_labels(qrg, labels);
    benchmark::DoNotOptimize(result.plan);
  }
  state.SetComplexityN(state.range(0) * state.range(1) * state.range(1));
}

void BM_BasicPlanFull(benchmark::State& state) {
  const Synthetic s =
      make_chain(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1)));
  const Qrg qrg(s.service, s.view);
  BasicPlanner planner;
  Rng rng(1);
  for (auto _ : state) {
    PlanResult result = planner.plan(qrg, rng);
    benchmark::DoNotOptimize(result.plan);
  }
  state.SetComplexityN(state.range(0) * state.range(1) * state.range(1));
}

void BM_RandomPlanFull(benchmark::State& state) {
  const Synthetic s =
      make_chain(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1)));
  const Qrg qrg(s.service, s.view);
  RandomPlanner planner;
  Rng rng(1);
  for (auto _ : state) {
    PlanResult result = planner.plan(qrg, rng);
    benchmark::DoNotOptimize(result.plan);
  }
}

// K x Q grid matching §4.2's "fewer than ten components, tens of levels".
void planner_args(benchmark::internal::Benchmark* b) {
  for (int k : {2, 4, 8})
    for (int q : {4, 16, 64}) b->Args({k, q});
}

BENCHMARK(BM_QrgCompile)->Apply(planner_args)->Complexity(benchmark::oN);
BENCHMARK(BM_QrgReweight)->Apply(planner_args)->Complexity(benchmark::oN);
BENCHMARK(BM_PassIRelax)->Apply(planner_args)->Complexity(benchmark::oN);
BENCHMARK(BM_PassIDijkstraHeap)
    ->Args({8, 16})
    ->Args({8, 64});
BENCHMARK(BM_PassIIFromLabels)->Apply(planner_args)->Complexity(
    benchmark::oN);
BENCHMARK(BM_BasicPlanFull)->Apply(planner_args)->Complexity(benchmark::oN);
BENCHMARK(BM_RandomPlanFull)
    ->Args({3, 4})
    ->Args({3, 16});

// ---------------------------------------------------------------------
// Establishment pipeline on the figure-9 paper scenario, split along the
// SessionCoordinator three-phase seams.

void BM_EstablishSnapshotOnly(benchmark::State& state) {
  PaperScenario scenario;
  SessionCoordinator& coordinator = scenario.coordinator(4, 2);
  double now = 0.0;
  for (auto _ : state) {
    now += 1.0;
    auto snapshot = coordinator.snapshot_for_planning(now);
    benchmark::DoNotOptimize(snapshot.view);
  }
}
BENCHMARK(BM_EstablishSnapshotOnly);

void BM_EstablishPlanOnly(benchmark::State& state) {
  // The pure planning phase (QRG build + both passes) against one fixed
  // snapshot — the part batch admission fans across the pool.
  PaperScenario scenario;
  SessionCoordinator& coordinator = scenario.coordinator(4, 2);
  BasicPlanner planner;
  Rng rng(1);
  const auto snapshot = coordinator.snapshot_for_planning(1.0);
  for (auto _ : state) {
    PlanResult result = coordinator.plan_on_snapshot(snapshot, planner, rng);
    benchmark::DoNotOptimize(result.plan);
  }
}
BENCHMARK(BM_EstablishPlanOnly);

void BM_EstablishTeardown(benchmark::State& state) {
  PaperScenario scenario;
  BasicPlanner planner;
  Rng rng(1);
  double now = 0.0;
  std::uint32_t session = 0;
  SessionCoordinator& coordinator = scenario.coordinator(4, 2);
  for (auto _ : state) {
    now += 1.0;
    EstablishResult result =
        coordinator.establish(SessionId{session++}, now, planner, rng);
    if (result.success)
      coordinator.teardown(result.holdings, SessionId{session - 1}, now);
  }
}
BENCHMARK(BM_EstablishTeardown);

// ---------------------------------------------------------------------
// Batch admission scaling: one batch of same-tick arrivals per
// iteration, planning fanned across `workers`; reported as a
// plans_per_sec rate so the 1..8-worker rows form the scaling curve.

void BM_BatchEstablish(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  constexpr std::uint32_t kBatch = 16;
  PaperScenario scenario;
  BasicPlanner planner;
  Rng rng(1);
  ThreadPool pool(workers);
  BatchOptions options;
  options.pool = &pool;
  // Spread the batch over several (service, domain) coordinators like a
  // real flash crowd; teardown after each batch keeps load stationary.
  std::vector<SessionCoordinator*> coordinators;
  for (int domain = 1; domain <= PaperScenario::kDomains; ++domain)
    for (int service = 1; service <= PaperScenario::kServers; ++service)
      if (service != PaperScenario::excluded_service(domain))
        coordinators.push_back(&scenario.coordinator(service, domain));
  double now = 0.0;
  std::uint32_t session = 0;
  for (auto _ : state) {
    now += 1.0;
    std::vector<BatchRequest> requests;
    for (std::uint32_t i = 0; i < kBatch; ++i)
      requests.push_back(
          {coordinators[(session + i) % coordinators.size()],
           SessionId{++session}, 1.0, nullptr});
    const auto results = establish_batch(requests, now, planner, rng, options);
    for (std::uint32_t i = 0; i < kBatch; ++i)
      if (results[i].success)
        requests[i].coordinator->teardown(results[i].holdings,
                                          requests[i].session, now);
    benchmark::DoNotOptimize(results.data());
  }
  state.counters["plans_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kBatch,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchEstablish)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

}  // namespace
}  // namespace qres

// Custom main: strip our --quick flag (tier-1 smoke mode) before
// google-benchmark parses the rest. Warm-up must ride the global flag,
// not per-benchmark MinWarmUpTime: BENCHMARK() registration runs during
// static initialization, before main can see --quick.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool quick = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0)
      quick = true;
    else
      args.push_back(argv[i]);
  }
  // Warm-up keeps first-touch allocator and cache effects out of the
  // reported rates; --quick drops it and shrinks min_time for the ctest
  // smoke. Explicit --benchmark_* flags still win (ours sit in front).
  static char min_time[] = "--benchmark_min_time=0.005";
  static char no_warmup[] = "--benchmark_min_warmup_time=0";
  static char warmup[] = "--benchmark_min_warmup_time=0.05";
  args.insert(args.begin() + 1, quick ? no_warmup : warmup);
  if (quick) args.insert(args.begin() + 1, min_time);
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
