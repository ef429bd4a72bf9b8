// Extension experiment: session availability under broker outages —
// durable (journaled) brokers vs the lose-everything baseline.
//
// PR 2's fault experiments crash *proxies*; this one crashes *broker
// processes* (sim/broker_supervisor) and measures what the write-ahead
// journal buys. Two arms run over identical outage schedules:
//
//   * blank   — un-journaled brokers restart empty: every session holding
//               on the crashed broker silently loses its reservation (the
//               QoS promise is void), and the keeper tears the session
//               down when the next renewal is refused;
//   * durable — journaled brokers recover from the WAL at restart (losing
//               up to a small un-fsynced tail), and the reconciliation
//               protocol (SessionCoordinator::reconcile_broker) re-asserts
//               every live session's holdings: confirmed claims keep
//               their sessions alive, tail-lost claims are forfeit, and
//               orphans of sessions that ended during the outage are
//               reclaimed.
//
// Both arms route new arrivals around down brokers (establish() with
// EstablishPolicy::max_replans + a backup resource per component), so the
// availability gap isolates what recovery does for *established*
// sessions. Every run is audited: a ReservationAuditor mirrors each
// reserve/release/reconciliation and the final column proves conservation
// in both arms — broken promises in the blank arm lose service, never
// accounting.
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "broker/registry.hpp"
#include "core/planner.hpp"
#include "proxy/qos_proxy.hpp"
#include "broker/auditor.hpp"
#include "sim/broker_supervisor.hpp"
#include "core/event_queue.hpp"
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
};

// Same shape as ext_faults: a chain whose component c prefers host 2c+1
// and degrades to host 2c+2, so planning can route around any one down
// broker.
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
      "recovered_chain", std::move(components), std::move(edges), q(10));
}

struct Outcome {
  std::uint64_t sessions = 0;
  std::uint64_t established = 0;
  std::uint64_t unavailable = 0;  ///< typed kBrokerUnavailable rejections
  std::uint64_t replans = 0;
  std::uint64_t reconciles = 0;
  std::uint64_t confirmed = 0;
  std::uint64_t lost_claims = 0;
  std::uint64_t orphans = 0;
  std::uint64_t broken = 0;  ///< sessions whose holdings a blank restart voided
  std::uint64_t lost_records = 0;
  std::uint64_t audit_violations = 0;
  double stranded = 0.0;

  void merge(const Outcome& o) {
    sessions += o.sessions;
    established += o.established;
    unavailable += o.unavailable;
    replans += o.replans;
    reconciles += o.reconciles;
    confirmed += o.confirmed;
    lost_claims += o.lost_claims;
    orphans += o.orphans;
    broken += o.broken;
    lost_records += o.lost_records;
    audit_violations += o.audit_violations;
    stranded += o.stranded;
  }
};

Outcome run(int outages, bool journaled, double run_length,
            double rate_per_60, std::uint64_t seed) {
  Rng rng(seed);
  World world;
  make_world(rng, world);
  for (ResourceId id : world.resources)
    world.registry.broker(id).enable_expiry_log();

  EventQueue queue;
  SupervisorConfig config;
  config.journaled = journaled;
  config.snapshot_every = 32;
  config.lease_grace = 4.0;
  config.max_lost_tail = 2;
  BrokerSupervisor supervisor(&queue, &world.registry, rng(), config);
  supervisor.attach_all(0.0);

  // Identical outage schedule in both arms: the draws happen before any
  // arm-dependent randomness. Windows for one resource must not overlap.
  std::map<std::uint32_t, std::vector<std::pair<double, double>>> windows;
  for (int i = 0; i < outages; ++i) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      const ResourceId id = world.resources[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(world.resources.size()) - 1))];
      const double from = rng.uniform(5.0, run_length - 20.0);
      const double until = from + rng.uniform(4.0, 12.0);
      bool overlaps = false;
      for (const auto& [f, u] : windows[id.value()])
        if (from < u + 0.5 && f < until + 0.5) overlaps = true;
      if (overlaps) continue;
      windows[id.value()].push_back({from, until});
      supervisor.schedule_outage(id, from, until);
      break;
    }
  }

  const LeaseConfig lease_config{6.0, 2.0};
  LeaseKeeper keeper(&queue, &world.registry, lease_config);
  ReservationAuditor auditor(&world.registry);
  SessionCoordinator coordinator(world.service.get(), world.resources,
                                 &world.registry);
  coordinator.enable_leases(lease_config.lease);
  BasicPlanner planner;
  Rng planner_rng(rng());
  EstablishPolicy policy;
  policy.max_replans = 2;

  Outcome outcome;
  std::map<std::uint32_t, std::vector<std::pair<ResourceId, double>>> live;
  std::uint32_t next_session = 1;

  keeper.set_expiry_listener([&](SessionId gone) {
    auto it = live.find(gone.value());
    if (it == live.end()) return;
    for (const auto& [id, amount] : it->second) {
      (void)amount;
      const double expected = auditor.expected_held(gone, id);
      if (expected > 0.0) auditor.on_released(gone, id, expected);
    }
    live.erase(it);
  });

  // Aligns the model with expiries the brokers performed lazily.
  const auto drain_expiries = [&](double now) {
    for (ResourceId id : world.resources) {
      auto& broker = world.registry.broker(id);
      if (!broker.up()) continue;
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

  supervisor.on_restart([&](ResourceId id, double now) {
    if (journaled) {
      // The broker recovered from its journal; every live session
      // re-asserts what it believes it holds there, and each divergence
      // is folded into the auditor as a typed discrepancy.
      std::vector<SessionCoordinator::ReconcileClaim> claims;
      for (const auto& [value, holdings] : live) {
        (void)holdings;
        const SessionId session{value};
        const double expected = auditor.expected_held(session, id);
        if (expected > 1e-12)
          claims.push_back({session, world.main_host, expected});
      }
      const auto report = coordinator.reconcile_broker(id, now, claims);
      ++outcome.reconciles;
      for (const auto& event : report.events) {
        using Resolution = SessionCoordinator::ReconcileResolution;
        switch (event.resolution) {
          case Resolution::kConfirmed:
            ++outcome.confirmed;
            break;
          case Resolution::kLostClaim: {
            // The un-fsynced tail lost part of the claim: the journal's
            // truth stands, the difference leaves the session's books.
            Discrepancy record;
            record.kind = DiscrepancyKind::kLostReservation;
            record.session = event.session;
            record.resource = id;
            record.amount = event.claimed - event.held;
            record.time = now;
            auditor.on_reconciled(record);
            auto it = live.find(event.session.value());
            if (it != live.end())
              for (auto& [rid, amount] : it->second)
                if (rid == id) amount = event.held;
            ++outcome.lost_claims;
            break;
          }
          case Resolution::kExcessReleased:
            // The journal restored more than the model ever tracked (a
            // tail-lost release); the broker already dropped the excess,
            // so model and broker agree again without a model change.
            break;
          case Resolution::kOrphanReleased: {
            Discrepancy record;
            record.kind = DiscrepancyKind::kOrphanReleased;
            record.session = event.session;
            record.resource = id;
            record.amount = auditor.expected_held(event.session, id);
            record.time = now;
            auditor.on_reconciled(record);
            ++outcome.orphans;
            break;
          }
          case Resolution::kRpcFailed:
            break;  // lossless loopback: cannot happen here
        }
      }
      // Dead sessions that neither claimed nor still hold anything (their
      // lease expired and the crash wiped the undelivered expiry log):
      // drop the stranded expectation toward the journal's truth.
      for (std::uint32_t value = 1; value < next_session; ++value) {
        const SessionId session{value};
        if (live.count(value) != 0) continue;
        const double expected = auditor.expected_held(session, id);
        if (expected <= 1e-12) continue;
        if (world.registry.broker(id).held_by(session) > 1e-12) continue;
        Discrepancy record;
        record.kind = DiscrepancyKind::kLostReservation;
        record.session = session;
        record.resource = id;
        record.amount = expected;
        record.time = now;
        auditor.on_reconciled(record);
      }
      return;
    }
    // Blank restart: the broker came back empty. Every session holding
    // here lost its reservation — the promise is void, the session is
    // torn down (the keeper's lost-renewal path, taken immediately so
    // accounting never lags), and dead sessions' expectations are
    // dropped.
    std::vector<std::uint32_t> victims;
    for (const auto& [value, holdings] : live) {
      (void)holdings;
      if (auditor.expected_held(SessionId{value}, id) > 1e-12)
        victims.push_back(value);
    }
    for (std::uint32_t value : victims) {
      const SessionId session{value};
      ++outcome.broken;
      keeper.forget(session);
      for (const auto& [rid, amount] : live[value]) {
        (void)amount;
        world.registry.broker(rid).release(now, session);
        const double expected = auditor.expected_held(session, rid);
        if (expected > 0.0) auditor.on_released(session, rid, expected);
      }
      live.erase(value);
    }
    for (std::uint32_t value = 1; value < next_session; ++value) {
      const SessionId session{value};
      if (live.count(value) != 0) continue;
      const double expected = auditor.expected_held(session, id);
      if (expected > 1e-12) auditor.on_released(session, id, expected);
    }
  });

  std::function<void()> arrival = [&] {
    const double now = queue.now();
    const SessionId session{next_session++};
    const double scale = rng.uniform(0.8, 1.3);
    const double duration = rng.uniform(8.0, 30.0);
    const EstablishResult r = coordinator.establish(
        session, now, planner, planner_rng, scale, nullptr, policy);
    ++outcome.sessions;
    outcome.replans += r.stats.replans;
    if (r.outcome == EstablishOutcome::kBrokerUnavailable)
      ++outcome.unavailable;
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
      keeper.manage(session, world.main_host, std::move(leased));
      queue.schedule_in(duration, [&, session] {
        auto it = live.find(session.value());
        if (it == live.end()) return;  // expired or voided first
        keeper.forget(session);
        coordinator.teardown(it->second, session, queue.now());
        for (const auto& [id, amount] : it->second)
          auditor.on_released(session, id, amount);
        live.erase(it);
      });
    }
    const double next_time = now + rng.exponential(rate_per_60 / 60.0);
    if (next_time <= run_length) queue.schedule(next_time, arrival);
  };
  queue.schedule(rng.exponential(rate_per_60 / 60.0), arrival);

  queue.schedule(run_length * 0.5, [&] {
    drain_expiries(queue.now());
    outcome.audit_violations += auditor.audit_hosts().size();
  });

  queue.run_until(run_length + 40.0);
  for (auto& [value, holdings] : live) {
    const SessionId session{value};
    keeper.forget(session);
    coordinator.teardown(holdings, session, queue.now());
    for (const auto& [id, amount] : holdings)
      auditor.on_released(session, id, amount);
  }
  live.clear();
  queue.run_all();
  drain_expiries(queue.now() + lease_config.lease + config.lease_grace + 1.0);

  // Conservation holds in *both* arms: losing a broker's memory loses
  // service (broken sessions), never accounting — and the durable arm
  // additionally strands not one unit of capacity.
  outcome.audit_violations += auditor.audit_hosts().size();
  if (!auditor.model_empty()) ++outcome.audit_violations;
  for (ResourceId id : world.resources) {
    const auto& broker = world.registry.broker(id);
    const double residue = broker.capacity() - broker.available();
    outcome.stranded += residue;
    if (residue > 1e-6 || residue < -1e-6) ++outcome.audit_violations;
  }
  outcome.lost_records += supervisor.totals().lost_records;
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

  std::cout << "Extension: established-session survival vs broker outage "
               "rate (journaled recovery + reconciliation vs blank "
               "restart)\n";
  TablePrinter table({"outages", "avail durable", "avail blank",
                      "broken blank", "reconciles", "confirmed",
                      "lost claims", "orphans", "tail lost", "audit"});
  std::uint64_t total_violations = 0;
  for (const int outages : {0, 2, 4, 8, 12}) {
    Outcome durable, blank;
    for (std::size_t r = 0; r < replicas; ++r) {
      const std::uint64_t seed = 300 + r;
      durable.merge(run(outages, true, run_length, rate, seed));
      blank.merge(run(outages, false, run_length, rate, seed));
    }
    const auto ratio = [](const Outcome& o) {
      return o.sessions == 0
                 ? 0.0
                 : static_cast<double>(o.established) /
                       static_cast<double>(o.sessions);
    };
    table.add_row(
        {std::to_string(outages), TablePrinter::pct(ratio(durable)),
         TablePrinter::pct(ratio(blank)), std::to_string(blank.broken),
         std::to_string(durable.reconciles),
         std::to_string(durable.confirmed),
         std::to_string(durable.lost_claims),
         std::to_string(durable.orphans),
         std::to_string(durable.lost_records),
         std::to_string(durable.audit_violations +
                        blank.audit_violations)});
    total_violations += durable.audit_violations + blank.audit_violations;
  }
  table.print(std::cout);
  std::cout << "\n(replicas per point: " << replicas
            << ", run length: " << run_length << " TU, arrival rate: "
            << rate << "/60 TU. 'broken blank' counts established sessions "
            << "whose reservations a blank broker restart silently voided "
            << "— the durable arm keeps those alive via journal recovery "
            << "plus reconciliation, losing at most the un-fsynced tail "
            << "('lost claims'). 'audit' must be 0: conservation is exact "
            << "in both arms.)\n";
  if (total_violations != 0) {
    std::cerr << "FAIL: " << total_violations
              << " conservation violations\n";
    return 1;
  }
  return 0;
}
