#include "crash_fuzz.hpp"

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "broker/journal.hpp"
#include "broker/registry.hpp"
#include "broker/resource_broker.hpp"
#include "core/planner.hpp"
#include "proxy/qos_proxy.hpp"
#include "rpc/broker_service.hpp"
#include "broker/auditor.hpp"
#include "sim/broker_supervisor.hpp"
#include "core/event_queue.hpp"
#include "signal/fault_plane.hpp"
#include "sim/lease_keeper.hpp"
#include "util/rng.hpp"

namespace qres::fuzz {

namespace {

std::string str(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

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

// ---------------------------------------------------------------------------
// Random coordinator worlds (the same chain-service shape fault_fuzz uses:
// hosted components over leaf resources, mixed modest/heavy demands).

struct CoordWorld {
  BrokerRegistry registry;
  std::vector<ResourceId> resources;  // one per component, same index
  std::vector<HostId> hosts;
  std::unique_ptr<ServiceDefinition> service;
  HostId main_host;
};

void make_coord_world(Rng& rng, CoordWorld& world) {
  const int k = rng.uniform_int(2, 4);
  std::vector<int> out_count(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c)
    out_count[static_cast<std::size_t>(c)] = rng.uniform_int(2, 3);

  std::vector<ServiceComponent> components;
  std::vector<std::pair<ComponentIndex, ComponentIndex>> edges;
  for (int c = 0; c < k; ++c) {
    const HostId host{static_cast<std::uint32_t>(c)};
    world.hosts.push_back(host);
    world.resources.push_back(world.registry.add_resource(
        "r" + std::to_string(c), ResourceKind::kCpu, host,
        rng.uniform(80.0, 160.0)));
    const std::size_t in_count =
        c == 0 ? 1
               : static_cast<std::size_t>(out_count[static_cast<std::size_t>(
                     c - 1)]);
    TranslationTable table;
    for (std::size_t in = 0; in < in_count; ++in)
      for (int out = 0; out < out_count[static_cast<std::size_t>(c)]; ++out) {
        const double amount = rng.bernoulli(0.15) ? rng.uniform(60.0, 140.0)
                                                  : rng.uniform(8.0, 45.0);
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
      "crash_chain", std::move(components), std::move(edges), q(10));
  world.main_host = world.hosts.front();
}

// ---------------------------------------------------------------------------
// Zero-crash differential: journaling attached but never exercised by an
// outage must be invisible — same decisions, same broker state, and the
// journal must rebuild that state bit-for-bit.

std::string zero_crash_differential(Rng& rng, CrashFuzzStats* stats) {
  const std::uint64_t world_seed = rng();
  const std::uint64_t supervisor_seed = rng();
  const std::uint64_t planner_seed = rng();
  CoordWorld world_a, world_b;
  {
    Rng gen(world_seed);
    make_coord_world(gen, world_a);
  }
  {
    Rng gen(world_seed);
    make_coord_world(gen, world_b);
  }

  EventQueue queue;
  // Small snapshot cadence so compaction happens inside the differential
  // too: a mid-stream snapshot must not disturb the broker either.
  SupervisorConfig config;
  config.snapshot_every = static_cast<std::size_t>(rng.uniform_int(1, 8));
  BrokerSupervisor supervisor(&queue, &world_b.registry, supervisor_seed,
                              config);
  supervisor.attach_all(0.0);

  SessionCoordinator plain(world_a.service.get(), world_a.resources,
                           &world_a.registry);
  SessionCoordinator journaled(world_b.service.get(), world_b.resources,
                               &world_b.registry);
  plain.enable_leases(8.0);
  journaled.enable_leases(8.0);

  BasicPlanner planner;
  Rng rng_a(planner_seed), rng_b(planner_seed);
  for (std::uint32_t s = 1; s <= 6; ++s) {
    const double now = static_cast<double>(s);
    const double scale = 0.8 + 0.2 * static_cast<double>(s % 3);
    const EstablishResult a =
        plain.establish(SessionId{s}, now, planner, rng_a, scale);
    const EstablishResult b =
        journaled.establish(SessionId{s}, now, planner, rng_b, scale);
    if (a.success != b.success || a.outcome != b.outcome)
      return "zero-crash differential: session " + std::to_string(s) +
             " outcome " + std::string(to_string(a.outcome)) + " vs " +
             to_string(b.outcome);
    if (a.plan.has_value() != b.plan.has_value())
      return "zero-crash differential: session " + std::to_string(s) +
             " plan presence diverged";
    if (a.plan &&
        (a.plan->bottleneck_psi != b.plan->bottleneck_psi ||
         a.plan->end_to_end_rank != b.plan->end_to_end_rank))
      return "zero-crash differential: session " + std::to_string(s) +
             " plan diverged (psi " + str(a.plan->bottleneck_psi) + " vs " +
             str(b.plan->bottleneck_psi) + ")";
    if (a.holdings != b.holdings)
      return "zero-crash differential: session " + std::to_string(s) +
             " holdings diverged";
  }

  const double kSnapshotAt = 50.0;
  for (std::size_t r = 0; r < world_a.resources.size(); ++r) {
    ResourceBroker* broker_a = world_a.registry.leaf(world_a.resources[r]);
    ResourceBroker* broker_b = world_b.registry.leaf(world_b.resources[r]);
    if (broker_a == nullptr || broker_b == nullptr)
      return "zero-crash differential: resource " + std::to_string(r) +
             " is not a leaf broker";
    // snapshot() serializes capacity, reserved, holdings, lease deadlines
    // and the alpha history with 17 significant digits: line equality is
    // bit-identity of everything recovery must reproduce.
    const std::string line_a = to_line(broker_a->snapshot(kSnapshotAt));
    const std::string line_b = to_line(broker_b->snapshot(kSnapshotAt));
    if (line_a != line_b)
      return "zero-crash differential: resource " + std::to_string(r) +
             " state diverged under journaling:\n  plain     " + line_a +
             "\n  journaled " + line_b;
    MemoryJournal* journal = supervisor.journal_of(world_b.resources[r]);
    if (journal == nullptr)
      return "zero-crash differential: resource " + std::to_string(r) +
             " has no journal after attach_all";
    if (journal->appended() == 0)
      return "zero-crash differential: resource " + std::to_string(r) +
             " journal is empty (not even the attach snapshot)";
    const ResourceBroker recovered = ResourceBroker::recover(
        journal->records());
    const std::string line_rec = to_line(recovered.snapshot(kSnapshotAt));
    if (line_rec != line_b)
      return "zero-crash differential: resource " + std::to_string(r) +
             " recover() diverged from the live broker:\n  live      " +
             line_b + "\n  recovered " + line_rec;
    if (stats) {
      ++stats->recoveries_checked;
      stats->records_journaled += journal->appended();
      stats->snapshots += journal->snapshots();
    }
  }
  const BrokerSupervisor::Totals& totals = supervisor.totals();
  if (totals.crashes != 0 || totals.restarts != 0 || totals.lost_records != 0)
    return "zero-crash differential: supervisor crashed a broker without "
           "a schedule";
  return "";
}

// ---------------------------------------------------------------------------
// Crashed coordinator runs: scripted broker outages under a lossy control
// plane, reconciliation on every restart, the auditor as the oracle.

std::string crashed_world(Rng& rng, CrashFuzzStats* stats) {
  CoordWorld world;
  {
    Rng gen(rng());
    make_coord_world(gen, world);
  }
  for (ResourceId id : world.resources)
    world.registry.broker(id).enable_expiry_log();

  EventQueue queue;
  FaultConfig config;
  // Up to very lossy (4 attempts per RPC): whole exchanges fail often
  // enough that rollback releases leak and re-sync RPCs get lost, so the
  // reconciliation and lease-grace paths are genuinely exercised.
  config.drop_prob = rng.uniform(0.0, 0.6);
  FaultPlane plane(rng(), config);

  // One or two non-overlapping outage windows per resource, every window
  // closed before t=50 so the epilogue runs against live brokers.
  for (ResourceId id : world.resources) {
    if (!rng.bernoulli(0.6)) continue;
    const double from = rng.uniform(2.0, 30.0);
    const double until = from + rng.uniform(2.0, 8.0);
    plane.crash_broker(id, from, until);
    if (rng.bernoulli(0.3)) {
      const double from2 = until + rng.uniform(1.0, 6.0);
      const double until2 = from2 + rng.uniform(1.0, 6.0);
      if (until2 < 49.0) plane.crash_broker(id, from2, until2);
    }
  }

  SupervisorConfig sup_config;
  sup_config.snapshot_every =
      static_cast<std::size_t>(rng.uniform_int(1, 32));
  sup_config.lease_grace = 4.0;
  sup_config.max_lost_tail =
      rng.bernoulli(0.5) ? static_cast<std::size_t>(rng.uniform_int(1, 4))
                         : 0;
  BrokerSupervisor supervisor(&queue, &world.registry, rng(), sup_config);
  supervisor.attach_all(0.0);
  supervisor.adopt_schedule(plane);

  const LeaseConfig lease_config{6.0, 2.0};
  LeaseKeeper keeper(&queue, &world.registry, lease_config);
  keeper.attach_faults(&plane);
  ReservationAuditor auditor(&world.registry);
  rpc::BrokerService service(&world.registry);
  SessionCoordinator coordinator(world.service.get(), world.resources,
                                 &world.registry);
  coordinator.attach_rpc_service(&service, world.main_host, &plane);
  coordinator.enable_leases(lease_config.lease);
  BasicPlanner planner;
  Rng planner_rng(rng());
  EstablishPolicy policy;
  policy.max_replans = 2;

  // Holdings of currently-established sessions (by session id value).
  std::map<std::uint32_t, std::vector<std::pair<ResourceId, double>>> live;
  std::vector<std::string> violations;

  // A teardown release that was not delivered (lost RPC, or a down broker
  // whose journal resurrects the holding) stays in the model until lease
  // expiry or post-restart reconciliation settles it.
  const auto teardown = [&](SessionId session, const auto& holdings) {
    keeper.forget(session);
    const auto undelivered =
        coordinator.teardown(holdings, session, queue.now());
    for (const auto& [id, amount] : holdings)
      auditor.on_released(session, id, amount);
    for (const auto& [id, amount] : undelivered)
      auditor.on_reserved(session, id, amount);
  };

  keeper.set_expiry_listener([&](SessionId gone) {
    auto it = live.find(gone.value());
    if (it == live.end()) return;
    for (const auto& [id, amount] : it->second) {
      (void)amount;
      const double expected = auditor.expected_held(gone, id);
      if (expected > 0.0) auditor.on_released(gone, id, expected);
    }
    live.erase(it);
    if (stats) ++stats->leases_expired;
  });

  // Aligns the model with lease expiries the brokers performed lazily.
  // Down brokers are skipped: their expiry log died with them, and the
  // post-restart reconciliation settles whatever the journal resurrects.
  const auto reconcile_expired = [&](double now) {
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

  // Folds one reconciliation resolution into the auditor: the journal is
  // the truth, so the model's expectation moves to what the broker holds
  // after the event. Moves *down* are the typed discrepancies the ISSUE's
  // conservation proof is about; moves *up* are resurrected holdings the
  // model never saw (a release record lost with the journal tail).
  using Resolution = SessionCoordinator::ReconcileResolution;
  const auto fold = [&](ResourceId id,
                        const SessionCoordinator::ReconcileEvent& event,
                        double now) {
    const double expected = auditor.expected_held(event.session, id);
    double target = 0.0;
    switch (event.resolution) {
      case Resolution::kConfirmed:
      case Resolution::kExcessReleased:
        target = event.claimed;  // broker now holds exactly the claim
        break;
      case Resolution::kLostClaim:
      case Resolution::kRpcFailed:
        target = event.held;  // broker keeps what the journal rebuilt
        break;
      case Resolution::kOrphanReleased:
        target = 0.0;
        break;
    }
    if (event.resolution == Resolution::kOrphanReleased) {
      Discrepancy record;
      record.kind = DiscrepancyKind::kOrphanReleased;
      record.session = event.session;
      record.resource = id;
      record.amount = expected;
      record.time = now;
      auditor.on_reconciled(record);
      return;
    }
    if (expected > target + 1e-9) {
      Discrepancy record;
      record.kind = DiscrepancyKind::kLostReservation;
      record.session = event.session;
      record.resource = id;
      record.amount = expected - target;
      record.time = now;
      auditor.on_reconciled(record);
    } else if (target > expected + 1e-9) {
      auditor.on_reserved(event.session, id, target - expected);
    }
    if (event.resolution == Resolution::kExcessReleased) {
      // The released excess belonged to no live claim (a resurrected,
      // already-released amount); keep it as a typed record with no
      // claimant and no model change.
      Discrepancy record;
      record.kind = DiscrepancyKind::kOrphanReleased;
      record.resource = id;
      record.amount = event.held - event.claimed;
      record.time = now;
      auditor.on_reconciled(record);
    }
  };

  const int session_count = rng.uniform_int(4, 9);
  const auto max_session = static_cast<std::uint32_t>(session_count);

  // Every restart runs the re-sync protocol: live sessions re-assert what
  // the model says they hold on the restarted broker.
  supervisor.on_restart([&](ResourceId id, double now) {
    std::vector<SessionCoordinator::ReconcileClaim> claims;
    for (const auto& [value, holdings] : live) {
      (void)holdings;
      const SessionId session{value};
      const double expected = auditor.expected_held(session, id);
      if (expected > 1e-12)
        claims.push_back({session, world.main_host, expected});
    }
    const SessionCoordinator::ReconcileReport report =
        coordinator.reconcile_broker(id, now, claims);
    if (stats) {
      ++stats->reconciles;
      stats->confirmed += report.confirmed;
      stats->lost_claims += report.lost_claims;
      stats->orphans_released += report.orphans_released;
      stats->excess_released += report.excess_released;
      stats->rpc_failures += report.rpc_failures;
    }
    for (const SessionCoordinator::ReconcileEvent& event : report.events)
      fold(id, event, now);
    // Dead sessions whose holding the journal shows as already expired
    // produce no reconcile event (nothing to release): the broker holds
    // nothing and nobody claims. The model may still expect a leaked
    // rollback there if the lazy expiry's log entry died with the crash —
    // settle those toward the journal too.
    for (std::uint32_t value = 1; value <= max_session; ++value) {
      const SessionId session{value};
      if (live.count(value) != 0) continue;  // claimed: events covered it
      const double expected = auditor.expected_held(session, id);
      if (expected <= 1e-12) continue;
      if (world.registry.broker(id).held_by(session) > 1e-12)
        continue;  // an orphan-sweep event (or kRpcFailed) covered it
      Discrepancy record;
      record.kind = DiscrepancyKind::kLostReservation;
      record.session = session;
      record.resource = id;
      record.amount = expected;
      record.time = now;
      auditor.on_reconciled(record);
    }
  });

  for (int s = 1; s <= session_count; ++s) {
    const SessionId session{static_cast<std::uint32_t>(s)};
    const double at = rng.uniform(0.0, 40.0);
    const double scale = rng.uniform(0.7, 1.6);
    queue.schedule(at, [&, session, scale] {
      const EstablishResult r = coordinator.establish(
          session, queue.now(), planner, planner_rng, scale, nullptr, policy);
      if (stats) {
        ++stats->sessions;
        stats->leaked_rollbacks += r.leaked.size();
        if (r.success) ++stats->sessions_established;
        if (r.outcome == EstablishOutcome::kBrokerUnavailable)
          ++stats->unavailable;
      }
      for (const auto& [id, amount] : r.leaked)
        auditor.on_reserved(session, id, amount);
      if (!r.success) return;
      std::vector<ResourceId> leased;
      for (const auto& [id, amount] : r.holdings) {
        auditor.on_reserved(session, id, amount);
        leased.push_back(id);
      }
      keeper.manage(session, world.main_host, std::move(leased));
      live[session.value()] = r.holdings;
    });
    if (rng.bernoulli(0.5)) {
      queue.schedule(at + rng.uniform(3.0, 20.0), [&, session] {
        auto it = live.find(session.value());
        if (it == live.end()) return;  // expired or never established
        teardown(session, it->second);
        live.erase(it);
      });
    }
  }

  for (const double t : {20.0, 35.0}) {
    queue.schedule(t, [&, t] {
      reconcile_expired(t);
      for (std::string& v : auditor.audit_hosts())
        violations.push_back("t=" + std::to_string(t) + ": " + v);
      if (stats) ++stats->audits;
    });
  }

  queue.run_until(55.0);
  for (auto& [value, holdings] : live) teardown(SessionId{value}, holdings);
  live.clear();
  queue.run_all();
  reconcile_expired(queue.now() + lease_config.lease +
                    sup_config.lease_grace + 1.0);

  for (std::string& v : auditor.audit_hosts())
    violations.push_back("final: " + v);
  if (stats) ++stats->audits;
  if (!auditor.model_empty())
    violations.push_back(
        "final: auditor model not empty after teardown and expiry");
  for (ResourceId id : world.resources) {
    const auto& broker = world.registry.broker(id);
    const double leaked = broker.capacity() - broker.available();
    if (leaked > 1e-6 || leaked < -1e-6)
      violations.push_back("final: resource " + std::to_string(id.value()) +
                           " leaks " + str(leaked) + " capacity");
  }

  // Post-run recovery proof: after crashes, tail loss, reconciliation and
  // teardown, every journal must still rebuild the live broker exactly.
  const double kSnapshotAt = 200.0;
  for (ResourceId id : world.resources) {
    MemoryJournal* journal = supervisor.journal_of(id);
    ResourceBroker* broker = world.registry.leaf(id);
    if (journal == nullptr || broker == nullptr) {
      violations.push_back("final: resource " + std::to_string(id.value()) +
                           " lost its journal or leaf broker");
      continue;
    }
    const ResourceBroker recovered =
        ResourceBroker::recover(journal->records());
    const std::string line_live = to_line(broker->snapshot(kSnapshotAt));
    const std::string line_rec = to_line(recovered.snapshot(kSnapshotAt));
    if (line_live != line_rec)
      violations.push_back("final: resource " + std::to_string(id.value()) +
                           " recover() diverged:\n  live      " + line_live +
                           "\n  recovered " + line_rec);
    if (stats) {
      ++stats->recoveries_checked;
      stats->records_journaled += journal->appended();
      stats->snapshots += journal->snapshots();
    }
  }
  if (stats) {
    const BrokerSupervisor::Totals& totals = supervisor.totals();
    stats->broker_crashes += totals.crashes;
    stats->broker_restarts += totals.restarts;
    stats->lost_records += totals.lost_records;
  }
  if (!violations.empty()) return "crashed world: " + violations.front();
  return "";
}

}  // namespace

std::string run_crash_iteration(std::uint64_t seed, CrashFuzzStats* stats) {
  Rng rng(seed);
  const auto with_seed = [seed](std::string failure) {
    return failure.empty()
               ? failure
               : "seed " + std::to_string(seed) + ": " + failure;
  };
  std::string failure = zero_crash_differential(rng, stats);
  if (!failure.empty()) return with_seed(std::move(failure));
  failure = crashed_world(rng, stats);
  return with_seed(std::move(failure));
}

}  // namespace qres::fuzz
