#include "parallel_fuzz.hpp"

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "broker/journal.hpp"
#include "broker/registry.hpp"
#include "broker/resource_broker.hpp"
#include "core/planner.hpp"
#include "core/random_planner.hpp"
#include "fuzz_lib.hpp"
#include "proxy/qos_proxy.hpp"
#include "sim/batch_admission.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qres::fuzz {

namespace {

std::string str(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

// Shared pools, one per worker count under test. Reusing them across
// iterations is sound precisely because of the property under test:
// results must not depend on the pool at all.
ThreadPool& pool_with(std::size_t workers) {
  static ThreadPool one(1), four(4);
  return workers == 1 ? one : four;
}

std::string to_line(const PlanResult& result) {
  std::string line;
  if (result.plan) {
    line += "plan rank=" + std::to_string(result.plan->end_to_end_rank) +
            " level=" + std::to_string(result.plan->end_to_end_level) +
            " psi=" + str(result.plan->bottleneck_psi) + " steps=";
    for (const PlanStep& step : result.plan->steps)
      line += std::to_string(step.component) + ":" +
              std::to_string(step.in_level) + ">" +
              std::to_string(step.out_level) + "@" + str(step.psi) + ",";
  } else {
    line += "no-plan";
  }
  line += " sinks=";
  for (const SinkInfo& sink : result.sinks)
    line += std::to_string(sink.rank) + (sink.reachable ? "+" : "-") +
            str(sink.psi) + ",";
  return line;
}

// ---------------------------------------------------------------------------
// Batch admission differential: identically-seeded coordinator worlds,
// planning inline vs on pools of different sizes, must agree on every
// result field and on the serialized broker state.

QoSVector q(double value) {
  static const QoSSchema schema({"level"});
  return QoSVector(schema, {value});
}

std::vector<QoSVector> levels(int count) {
  std::vector<QoSVector> result;
  for (int i = 0; i < count; ++i)
    result.push_back(q(static_cast<double>(count - i)));
  return result;
}

struct BatchWorld {
  BrokerRegistry registry;
  std::vector<ResourceId> resources;
  std::unique_ptr<ServiceDefinition> service;
  std::unique_ptr<SessionCoordinator> coordinator;
};

// A random chain service over per-component leaf resources. Capacities
// are deliberately tight (a handful of concurrent sessions exhaust
// them), so batches regularly hit the kAdmission replan-on-conflict
// path as well as plain rejections.
void make_batch_world(Rng& rng, BatchWorld& world) {
  const int k = rng.uniform_int(2, 4);
  std::vector<int> out_count(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c)
    out_count[static_cast<std::size_t>(c)] = rng.uniform_int(2, 3);

  std::vector<ServiceComponent> components;
  std::vector<std::pair<ComponentIndex, ComponentIndex>> edges;
  for (int c = 0; c < k; ++c) {
    const HostId host{static_cast<std::uint32_t>(c)};
    world.resources.push_back(world.registry.add_resource(
        "r" + std::to_string(c), ResourceKind::kCpu, host,
        rng.uniform(60.0, 140.0)));
    const std::size_t in_count =
        c == 0 ? 1
               : static_cast<std::size_t>(
                     out_count[static_cast<std::size_t>(c - 1)]);
    TranslationTable table;
    for (std::size_t in = 0; in < in_count; ++in)
      for (int out = 0; out < out_count[static_cast<std::size_t>(c)]; ++out) {
        const double amount = rng.bernoulli(0.2) ? rng.uniform(40.0, 90.0)
                                                 : rng.uniform(8.0, 30.0);
        ResourceVector req;
        req.set(world.resources.back(), amount);
        table.set(static_cast<LevelIndex>(in), static_cast<LevelIndex>(out),
                  req);
      }
    components.emplace_back("c" + std::to_string(c),
                            levels(out_count[static_cast<std::size_t>(c)]),
                            table.as_function(), host);
    if (c > 0)
      edges.push_back({static_cast<ComponentIndex>(c - 1),
                       static_cast<ComponentIndex>(c)});
  }
  world.service = std::make_unique<ServiceDefinition>(
      "batch_chain", std::move(components), std::move(edges), q(10));
  world.coordinator = std::make_unique<SessionCoordinator>(
      world.service.get(), world.resources, &world.registry);
}

std::string to_line(const EstablishResult& result) {
  std::string line = std::string(to_string(result.outcome)) +
                     (result.success ? " ok" : " fail");
  if (result.failed_resource.valid())
    line += " failed=" + std::to_string(result.failed_resource.value());
  line += " " + to_line(PlanResult{result.plan, result.sinks});
  line += " holdings=";
  for (const auto& [id, amount] : result.holdings)
    line += std::to_string(id.value()) + ":" + str(amount) + ",";
  line += " leaked=";
  for (const auto& [id, amount] : result.leaked)
    line += std::to_string(id.value()) + ":" + str(amount) + ",";
  line += " stats=" + std::to_string(result.stats.availability_messages) +
          "/" + std::to_string(result.stats.dispatch_messages) + "/" +
          std::to_string(result.stats.reservations_attempted) + "/" +
          std::to_string(result.stats.reservations_rolled_back) + "/" +
          std::to_string(result.stats.replans);
  return line;
}

std::string batch_differential(std::uint64_t seed, ParallelFuzzStats* stats) {
  Rng shape(seed);
  const std::uint64_t world_seed = shape();
  const std::uint64_t batch_seed = shape();
  const int request_count = shape.uniform_int(1, 6);
  const bool randomized_planner = shape.bernoulli(0.3);
  const bool replan = shape.bernoulli(0.8);
  const double now = shape.uniform(0.0, 50.0);

  // Reference lane: no pool. Comparison lanes: 1-worker and 4-worker
  // pools with different chunking. Identical seeds everywhere else.
  struct Lane {
    ThreadPool* pool;
    std::size_t grain;
  };
  const Lane lanes[] = {{nullptr, 1}, {&pool_with(1), 1}, {&pool_with(4), 0}};

  std::string reference;
  std::vector<std::string> reference_brokers;
  std::uint64_t reference_admitted = 0;
  for (std::size_t lane = 0; lane < 3; ++lane) {
    BatchWorld world;
    {
      Rng gen(world_seed);
      make_batch_world(gen, world);
    }
    const BasicPlanner basic;
    const RandomPlanner random_planner;
    const IPlanner& planner =
        randomized_planner ? static_cast<const IPlanner&>(random_planner)
                           : static_cast<const IPlanner&>(basic);

    std::vector<BatchRequest> requests;
    for (int r = 0; r < request_count; ++r) {
      BatchRequest request;
      request.coordinator = world.coordinator.get();
      request.session = SessionId{static_cast<std::uint32_t>(r + 1)};
      requests.push_back(request);
    }

    BatchOptions options;
    options.pool = lanes[lane].pool;
    options.grain = lanes[lane].grain;
    options.replan_on_conflict = replan;
    Rng batch_rng(batch_seed);
    const auto results =
        establish_batch(requests, now, planner, batch_rng, options);

    std::string summary;
    std::uint64_t admitted = 0;
    for (const EstablishResult& result : results) {
      summary += to_line(result) + "\n";
      if (result.success) ++admitted;
      if (stats && result.stats.replans > 0) ++stats->conflicts_replanned;
    }
    std::vector<std::string> brokers;
    for (ResourceId id : world.resources)
      brokers.push_back(to_line(world.registry.leaf(id)->snapshot(now)));

    if (lane == 0) {
      reference = std::move(summary);
      reference_brokers = std::move(brokers);
      reference_admitted = admitted;
      continue;
    }
    const std::string tag =
        "batch lane " + std::to_string(lane) + " (pool=" +
        std::to_string(lanes[lane].pool ? lanes[lane].pool->worker_count()
                                        : 0) +
        "w)";
    if (summary != reference)
      return tag + " results diverge:\n got: " + summary +
             " want: " + reference;
    for (std::size_t i = 0; i < brokers.size(); ++i)
      if (brokers[i] != reference_brokers[i])
        return tag + " broker " + std::to_string(i) +
               " state diverges:\n got: " + brokers[i] +
               "\n want: " + reference_brokers[i];
  }
  if (stats) {
    ++stats->batches;
    stats->batch_sessions += static_cast<std::uint64_t>(request_count);
    stats->admitted += reference_admitted;
  }
  return {};
}

}  // namespace

std::string run_parallel_iteration(std::uint64_t seed,
                                   ParallelFuzzStats* stats) {
  Rng rng(seed);
  const auto tag = [seed](const std::string& what, const std::string& err) {
    return "seed " + std::to_string(seed) + ": " + what + ": " + err;
  };
  const PsiKind psi_kind = static_cast<PsiKind>(seed % 3);
  const double scale = rng.bernoulli(0.2) ? 2.0 : 1.0;

  for (const bool dag : {false, true}) {
    GenOptions opt;
    opt.dag = dag;
    if (dag) opt.max_components = 6;
    World world = make_world(rng, opt);
    // The first Qrg compiles the service, so check_cache_history's runs
    // on world.service are warm; they race the cold runs on the 4-worker
    // pool.
    const Qrg qrg(world.service, world.view, psi_kind, scale);
    if (stats) ++stats->qrgs;
    const std::string kind = dag ? "dag" : "chain";
    if (auto err = check_cache_history(world, seed, BasicPlanner(),
                                       &pool_with(4));
        !err.empty())
      return tag(kind + " cache history", err);
    if (stats) stats->warm_snapshots += 4;
  }
  if (auto err = batch_differential(rng(), stats); !err.empty())
    return tag("batch", err);
  return {};
}

}  // namespace qres::fuzz
