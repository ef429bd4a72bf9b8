// Extension experiment: session availability under control-plane faults.
//
// The paper's protocols assume a lossless control plane; this harness
// injects RPC loss and scripted host crashes (signal/fault_plane) into the
// centralized establishment path and measures what the robustness layer
// buys. Two configurations run over identical fault schedules:
//
//   * no-heal — plain establish(): an unreachable proxy fails the session;
//   * heal    — establish() with EstablishPolicy::max_replans = 2 plus
//               leased reservations renewed by a LeaseKeeper: dispatch
//               failures re-plan around the dead host (each component has
//               a degraded fallback level on a different host), and
//               holdings of crashed owners expire instead of leaking.
//
// Every poll, dispatch, rollback and teardown is a typed RPC through a
// BrokerService across the fault plane, so rollback and teardown
// releases can both be lost.
//
// Every run is audited: a ReservationAuditor mirrors each reserve/release
// and the final column proves conservation — after all sessions end and
// leases expire, not one unit of capacity is leaked, lost releases
// included. Availability = established / attempted, swept over the fault
// rate (drop probability; crash windows scale with it).
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "broker/registry.hpp"
#include "core/planner.hpp"
#include "proxy/qos_proxy.hpp"
#include "rpc/broker_service.hpp"
#include "broker/auditor.hpp"
#include "core/event_queue.hpp"
#include "signal/fault_plane.hpp"
#include "sim/lease_keeper.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace qres;

namespace {

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

constexpr int kComponents = 2;

struct World {
  BrokerRegistry registry;
  std::vector<ResourceId> resources;
  std::unique_ptr<ServiceDefinition> service;
  HostId main_host{2 * kComponents + 1};
  std::uint32_t host_count = 2 * kComponents + 2;  // hosts 1..main
};

// Chain of kComponents components; component c's preferred level runs on
// host 2c+1, its degraded fallback on host 2c+2 — so recovery always has
// somewhere to re-plan to when one host dies.
void make_world(Rng& rng, World& world) {
  std::vector<ServiceComponent> components;
  for (int c = 0; c < kComponents; ++c) {
    const ResourceId primary = world.registry.add_resource(
        "cpu_p" + std::to_string(c), ResourceKind::kCpu,
        HostId{static_cast<std::uint32_t>(2 * c + 1)},
        rng.uniform(120.0, 180.0));
    const ResourceId backup = world.registry.add_resource(
        "cpu_b" + std::to_string(c), ResourceKind::kCpu,
        HostId{static_cast<std::uint32_t>(2 * c + 2)},
        rng.uniform(120.0, 180.0));
    world.resources.push_back(primary);
    world.resources.push_back(backup);
    TranslationTable table;
    ResourceVector preferred, degraded;
    preferred.set(primary, 30.0);
    degraded.set(backup, 21.0);
    const int in_levels = c == 0 ? 1 : 2;
    for (int in = 0; in < in_levels; ++in) {
      table.set(static_cast<LevelIndex>(in), 0, preferred);
      table.set(static_cast<LevelIndex>(in), 1, degraded);
    }
    components.emplace_back("c" + std::to_string(c), levels(2),
                            table.as_function(),
                            HostId{static_cast<std::uint32_t>(2 * c + 1)});
  }
  std::vector<std::pair<ComponentIndex, ComponentIndex>> edges;
  for (int c = 1; c < kComponents; ++c)
    edges.push_back({static_cast<ComponentIndex>(c - 1),
                     static_cast<ComponentIndex>(c)});
  world.service = std::make_unique<ServiceDefinition>(
      "faulted_chain", std::move(components), std::move(edges), q(10));
}

struct Outcome {
  std::uint64_t sessions = 0;
  std::uint64_t established = 0;
  std::uint64_t replans = 0;
  std::uint64_t leases_expired = 0;
  std::uint64_t leaked_rollbacks = 0;  ///< lost rollback/teardown releases
  std::uint64_t audit_violations = 0;
  double stranded = 0.0;  // capacity still held after everything ended

  void merge(const Outcome& o) {
    sessions += o.sessions;
    established += o.established;
    replans += o.replans;
    leases_expired += o.leases_expired;
    leaked_rollbacks += o.leaked_rollbacks;
    audit_violations += o.audit_violations;
    stranded += o.stranded;
  }
};

Outcome run(double drop_prob, int crashes, bool heal, double run_length,
            double rate_per_60, std::uint64_t seed) {
  Rng rng(seed);
  World world;
  make_world(rng, world);
  for (ResourceId id : world.resources)
    world.registry.broker(id).enable_expiry_log();

  EventQueue queue;
  FaultConfig config;
  config.drop_prob = drop_prob;
  FaultPlane plane(rng(), config);
  for (int c = 0; c < crashes; ++c) {
    const auto host = static_cast<std::uint32_t>(
        rng.uniform_int(1, static_cast<int>(world.host_count) - 1));
    const double from = rng.uniform(0.0, run_length);
    plane.crash_host(HostId{host}, from, from + rng.uniform(4.0, 12.0));
  }

  const LeaseConfig lease_config{6.0, 2.0};
  LeaseKeeper keeper(&queue, &world.registry, lease_config);
  keeper.attach_faults(&plane);
  ReservationAuditor auditor(&world.registry);
  SessionCoordinator coordinator(world.service.get(), world.resources,
                                 &world.registry);
  rpc::BrokerService service(&world.registry);
  coordinator.attach_rpc_service(&service, world.main_host, &plane);
  if (heal) coordinator.enable_leases(lease_config.lease);
  BasicPlanner planner;
  Rng planner_rng(rng());

  Outcome outcome;
  std::map<std::uint32_t, std::vector<std::pair<ResourceId, double>>> live;

  keeper.set_expiry_listener([&](SessionId gone) {
    auto it = live.find(gone.value());
    if (it == live.end()) return;
    for (const auto& [id, amount] : it->second) {
      (void)amount;
      const double expected = auditor.expected_held(gone, id);
      if (expected > 0.0) auditor.on_released(gone, id, expected);
    }
    live.erase(it);
    ++outcome.leases_expired;
  });

  // Aligns the model with expiries the brokers performed lazily.
  const auto reconcile = [&](double now) {
    for (ResourceId id : world.resources) {
      auto& broker = world.registry.broker(id);
      broker.expire_due(now, nullptr);
      std::vector<SessionId> gone;
      broker.take_expired(&gone);
      for (SessionId session : gone) {
        const double expected = auditor.expected_held(session, id);
        if (expected > 0.0) auditor.on_released(session, id, expected);
        live.erase(session.value());
      }
    }
  };

  // A lost teardown release leaves the holding on its broker (until its
  // lease expires, in the healed arm), so the model keeps it too.
  const auto teardown = [&](SessionId session, const auto& holdings) {
    keeper.forget(session);
    const auto undelivered =
        coordinator.teardown(holdings, session, queue.now());
    outcome.leaked_rollbacks += undelivered.size();
    for (const auto& [id, amount] : holdings)
      auditor.on_released(session, id, amount);
    for (const auto& [id, amount] : undelivered)
      auditor.on_reserved(session, id, amount);
  };

  EstablishPolicy policy;
  if (heal) policy.max_replans = 2;
  std::uint32_t next_session = 1;
  std::function<void()> arrival = [&] {
    const double now = queue.now();
    const SessionId session{next_session++};
    const double scale = rng.uniform(0.8, 1.3);
    const double duration = rng.uniform(8.0, 30.0);
    const EstablishResult r = coordinator.establish(
        session, now, planner, planner_rng, scale, nullptr, policy);
    ++outcome.sessions;
    outcome.replans += r.stats.replans;
    outcome.leaked_rollbacks += r.leaked.size();
    for (const auto& [id, amount] : r.leaked)
      auditor.on_reserved(session, id, amount);
    if (r.success) {
      ++outcome.established;
      std::vector<ResourceId> leased;
      for (const auto& [id, amount] : r.holdings) {
        auditor.on_reserved(session, id, amount);
        leased.push_back(id);
      }
      live[session.value()] = r.holdings;
      if (heal) {
        keeper.manage(session, world.main_host, std::move(leased));
      }
      queue.schedule_in(duration, [&, session] {
        auto it = live.find(session.value());
        if (it == live.end()) return;  // lease expired first
        teardown(session, it->second);
        live.erase(it);
      });
    }
    const double next_time = now + rng.exponential(rate_per_60 / 60.0);
    if (next_time <= run_length) queue.schedule(next_time, arrival);
  };
  queue.schedule(rng.exponential(rate_per_60 / 60.0), arrival);

  queue.schedule(run_length * 0.5, [&] {
    reconcile(queue.now());
    outcome.audit_violations += auditor.audit_hosts().size();
  });

  queue.run_until(run_length + 40.0);
  for (auto& [value, holdings] : live) teardown(SessionId{value}, holdings);
  live.clear();
  queue.run_all();
  reconcile(queue.now() + lease_config.lease + 1.0);

  // The model must match broker reality in both arms; only the healed arm
  // promises zero residue — the plain arm's lost releases strand capacity
  // permanently, which is the cost the comparison exists to show.
  outcome.audit_violations += auditor.audit_hosts().size();
  if (heal && !auditor.model_empty()) ++outcome.audit_violations;
  for (ResourceId id : world.resources) {
    const auto& broker = world.registry.broker(id);
    const double residue = broker.capacity() - broker.available();
    outcome.stranded += residue;
    if (heal && (residue > 1e-6 || residue < -1e-6))
      ++outcome.audit_violations;
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  double run_length = 400.0;
  double rate = 12.0;  // sessions per 60 TU
  std::size_t replicas = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fast") {
      run_length = 150.0;
      replicas = 2;
    } else if (arg == "--run-length" && i + 1 < argc) {
      run_length = std::atof(argv[++i]);
    } else if (arg == "--replicas" && i + 1 < argc) {
      replicas = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--rate" && i + 1 < argc) {
      rate = std::atof(argv[++i]);
    }
  }

  std::cout << "Extension: session availability vs control-plane fault "
               "rate (self-healing establishment + leases vs plain)\n";
  TablePrinter table({"drop", "crashes", "avail plain", "avail heal",
                      "replans", "leases expired", "lost releases",
                      "stranded plain", "stranded heal", "audit"});
  std::uint64_t total_violations = 0;
  for (const double drop : {0.0, 0.15, 0.3, 0.45, 0.6}) {
    const int crashes = static_cast<int>(drop * 10.0 + 0.5);
    Outcome plain, heal;
    for (std::size_t r = 0; r < replicas; ++r) {
      const std::uint64_t seed = 100 + r;
      plain.merge(run(drop, crashes, false, run_length, rate, seed));
      heal.merge(run(drop, crashes, true, run_length, rate, seed));
    }
    const auto ratio = [](const Outcome& o) {
      return o.sessions == 0
                 ? 0.0
                 : static_cast<double>(o.established) /
                       static_cast<double>(o.sessions);
    };
    table.add_row(
        {TablePrinter::fmt(drop, 2), std::to_string(crashes),
         TablePrinter::pct(ratio(plain)), TablePrinter::pct(ratio(heal)),
         std::to_string(heal.replans), std::to_string(heal.leases_expired),
         std::to_string(plain.leaked_rollbacks + heal.leaked_rollbacks),
         TablePrinter::fmt(plain.stranded, 1),
         TablePrinter::fmt(heal.stranded, 1),
         std::to_string(plain.audit_violations + heal.audit_violations)});
    total_violations += plain.audit_violations + heal.audit_violations;
  }
  table.print(std::cout);
  std::cout << "\n(replicas per point: " << replicas
            << ", run length: " << run_length << " TU, arrival rate: "
            << rate << "/60 TU; 'audit' must be 0 — the ReservationAuditor "
            << "demands model/broker agreement in both arms and zero "
            << "stranded capacity in the healed arm. 'stranded plain' is "
            << "capacity permanently lost to rollback and teardown releases "
            << "the fault plane ate — the leak the leases exist to close.)\n";
  if (total_violations != 0) {
    std::cerr << "FAIL: " << total_violations
              << " conservation violations\n";
    return 1;
  }
  return 0;
}
