// qresctl — interactive/scriptable front end for the reservation planner.
//
//   $ qresctl [--journal <path>] <environment-file> <model.qrm> [< commands]
//
// With --journal, every broker appends its mutations (reserve / release /
// lease traffic, periodic snapshots) to the given write-ahead journal
// file; the `journal` command then dumps and verifies it.
//
// The environment file declares the brokers, one per line:
//
//   resource <name> <cpu|memory|disk_bw|net_bw|other> <capacity>
//
// (names may not contain whitespace; '#' starts a comment). The model file
// is the .qrm format of src/core/model_io.hpp, resolved against those
// resources.
//
// Commands (stdin, one per line):
//   plan [scale]          compute a reservation plan (no reservation)
//   reserve [scale]       plan + reserve; prints the session id
//   release <session-id>  release everything a session holds
//   avail                 print per-resource availability
//   sinks                 print per-end-to-end-level reachability / psi
//   contention            sample the watchdog and dump per-resource
//                         alpha/EWMA/hysteresis state + the adaptation
//                         event log
//   rpc                   issue a typed QueryRequest for every resource
//                         through the RPC shim (rpc::RpcChannel ->
//                         BrokerService) and dump the per-peer RPC stats,
//                         breaker states and service counters
//   journal               dump the write-ahead journal (every record as a
//                         text line, then per-broker record and snapshot
//                         counts) and verify it: replay each
//                         broker's records through
//                         ResourceBroker::recover() and compare against
//                         the live broker, bit for bit
//   mc <topology> [states]
//                         run the explicit-state model checker on a named
//                         micro-topology (see `mc list`) with an optional
//                         distinct-state budget; prints states/sec,
//                         distinct states, frontier depth, reduction ratio
//                         and the verdict (DESIGN.md §13)
//   replication [sync|async]
//                         run an in-process replicated-broker episode
//                         (grants -> mid-epoch primary kill -> promotion
//                         of the most-caught-up standby) and dump the
//                         per-replica roles/epochs/watermarks plus the
//                         full ReplicationStats ledger (DESIGN.md §14)
//   quit
//
// Reservations go through an AdaptationEngine (default config, no
// governor), so `contention` shows the same watchdog state and event log
// the adaptation layer acts on.
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "adapt/adaptation_engine.hpp"
#include "broker/journal.hpp"
#include "broker/registry.hpp"
#include "broker/replication.hpp"
#include "core/model_io.hpp"
#include "mc/checker.hpp"
#include "mc/topology.hpp"
#include "proxy/qos_proxy.hpp"
#include "rpc/broker_service.hpp"
#include "rpc/channel.hpp"

using namespace qres;

namespace {

ResourceKind parse_kind(const std::string& token) {
  if (token == "cpu") return ResourceKind::kCpu;
  if (token == "memory") return ResourceKind::kMemory;
  if (token == "disk_bw") return ResourceKind::kDiskBandwidth;
  if (token == "net_bw") return ResourceKind::kNetworkBandwidth;
  if (token == "other") return ResourceKind::kOther;
  throw std::runtime_error("unknown resource kind '" + token + "'");
}

void load_environment(const std::string& path, BrokerRegistry& registry) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open " + path);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(file, line)) {
    ++line_number;
    std::istringstream stream(line);
    std::string keyword;
    if (!(stream >> keyword) || keyword[0] == '#') continue;
    if (keyword != "resource")
      throw std::runtime_error(path + ":" + std::to_string(line_number) +
                               ": expected 'resource'");
    std::string name, kind;
    double capacity = 0.0;
    if (!(stream >> name >> kind >> capacity) || capacity <= 0.0)
      throw std::runtime_error(path + ":" + std::to_string(line_number) +
                               ": expected: resource <name> <kind> "
                               "<capacity>");
    registry.add_resource(name, parse_kind(kind), HostId{}, capacity);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string journal_path;
  int arg = 1;
  if (arg < argc && std::string(argv[arg]) == "--journal") {
    if (arg + 1 >= argc) {
      std::cerr << "--journal needs a file path\n";
      return 2;
    }
    journal_path = argv[arg + 1];
    arg += 2;
  }
  if (argc - arg != 2) {
    std::cerr << "usage: " << argv[0]
              << " [--journal <path>] <environment-file> <model.qrm>\n";
    return 2;
  }
  BrokerRegistry registry;
  ModelDescription model;
  std::unique_ptr<FileJournal> journal;
  try {
    load_environment(argv[arg], registry);
    std::ifstream model_file(argv[arg + 1]);
    if (!model_file) throw std::runtime_error(std::string("cannot open ") +
                                              argv[arg + 1]);
    model = parse_model(model_file, registry.catalog());
    if (!journal_path.empty()) {
      // One shared append-only file; records carry the resource id, so
      // recovery filters per broker (filter_journal).
      journal = std::make_unique<FileJournal>(journal_path);
      for (std::uint32_t i = 0; i < registry.size(); ++i)
        if (ResourceBroker* broker = registry.leaf(ResourceId{i}))
          broker->attach_journal(journal.get());
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  const ServiceDefinition service = model.instantiate();
  SessionCoordinator coordinator(&service, model.footprint(), &registry);
  BasicPlanner planner;
  TradeoffPlanner degrade_planner;
  Rng rng(1);

  std::vector<ResourceId> watched;
  for (std::uint32_t i = 0; i < registry.size(); ++i)
    watched.push_back(ResourceId{i});
  adapt::ContentionMonitor monitor(&registry, std::move(watched));
  adapt::AdaptationEngine engine(&coordinator, &monitor, &planner,
                                 &degrade_planner);

  // The coordinator's typed control plane: no transport (lossless wire),
  // the registry exposed as a frame server, breaker armed so the `rpc`
  // dump shows a live (closed) breaker per peer.
  rpc::BrokerService rpc_service(&registry);
  rpc::RpcChannel::Config rpc_config;
  rpc_config.breaker.failure_threshold = 3;
  const HostId main_host = service.component(0).host().valid()
                               ? service.component(0).host()
                               : HostId{0};
  coordinator.attach_rpc_service(&rpc_service, main_host, nullptr, nullptr,
                                 rpc_config);
  rpc::RpcChannel& rpc_channel = *coordinator.rpc_channel();

  std::cout << "loaded '" << model.service_name << "' ("
            << service.component_count() << " components) over "
            << registry.size() << " resources\n";

  double now = 0.0;
  std::uint32_t next_session = 1;

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream stream(line);
    std::string command;
    if (!(stream >> command) || command[0] == '#') continue;
    now += 1.0;
    try {
      if (command == "quit" || command == "exit") break;
      if (command == "avail") {
        for (std::uint32_t i = 0; i < registry.size(); ++i) {
          const IBroker& broker = registry.broker(ResourceId{i});
          std::cout << "  " << broker.name() << ": " << broker.available()
                    << "/" << broker.capacity() << "\n";
        }
      } else if (command == "sinks") {
        double scale = 1.0;
        stream >> scale;
        const AvailabilityView view =
            registry.collect(model.footprint(), now);
        const Qrg qrg(service, view, PsiKind::kRatio, scale);
        const auto labels = relax_qrg(qrg);
        for (const SinkInfo& info : sink_infos(qrg, labels)) {
          std::cout << "  level "
                    << service.component(service.sink())
                           .out_level(info.level)
                           .to_string()
                    << " rank " << info.rank << ": "
                    << (info.reachable
                            ? "reachable, psi " +
                                  std::to_string(info.psi)
                            : "unreachable")
                    << "\n";
        }
      } else if (command == "plan" || command == "reserve") {
        double scale = 1.0;
        stream >> scale;
        const SessionId session{next_session};
        EstablishResult result =
            command == "reserve"
                ? engine.admit(session, now,
                               adapt::SessionPriority::kStandard, scale, rng)
                : coordinator.establish(session, now, planner, rng, scale);
        if (!result.plan) {
          std::cout << "no feasible end-to-end plan\n";
          continue;
        }
        std::cout << "plan: level "
                  << service.component(service.sink())
                         .out_level(result.plan->end_to_end_level)
                         .to_string()
                  << ", bottleneck "
                  << registry.catalog().name(
                         result.plan->bottleneck_resource)
                  << " (psi " << result.plan->bottleneck_psi << ")\n";
        for (const PlanStep& step : result.plan->steps) {
          std::cout << "  " << service.component(step.component).name()
                    << ": in " << step.in_level << " -> out "
                    << step.out_level << "\n";
        }
        if (command == "plan") {
          // establish() reserved; undo, since plan is a dry run.
          if (result.success)
            coordinator.teardown(result.holdings, session, now);
        } else if (result.success) {
          std::cout << "reserved as session " << next_session << "\n";
          ++next_session;
        } else {
          std::cout << "reservation failed\n";
        }
      } else if (command == "release") {
        std::uint32_t id = 0;
        if (!(stream >> id) || !engine.live(SessionId{id})) {
          std::cout << "unknown session\n";
          continue;
        }
        engine.depart(SessionId{id}, now);
        std::cout << "released session " << id << "\n";
      } else if (command == "contention") {
        monitor.sample(now);
        const adapt::MonitorConfig& bands = monitor.config();
        std::cout << "bands: contended < " << bands.enter_contended
                  << ", calm > " << bands.exit_contended
                  << ", ewma halflife " << bands.ewma_halflife << "\n";
        for (ResourceId id : monitor.watched()) {
          const adapt::ResourceContention& s = monitor.state(id);
          std::cout << "  " << registry.catalog().name(id) << ": alpha "
                    << s.last_alpha << ", ewma " << s.ewma_alpha << ", "
                    << adapt::to_string(s.level) << ", flips " << s.flips
                    << ", suppressed flaps " << s.suppressed_flaps << "\n";
        }
        const ResourceId bottleneck = monitor.bottleneck_resource();
        if (bottleneck.valid())
          std::cout << "bottleneck: " << registry.catalog().name(bottleneck)
                    << " (ewma " << monitor.bottleneck_ewma() << ")\n";
        else
          std::cout << "bottleneck: none (every ewma >= 1)\n";
        if (engine.events().empty())
          std::cout << "no adaptation events\n";
        for (const adapt::AdaptationEvent& event : engine.events())
          std::cout << "  t=" << event.time << " "
                    << adapt::to_string(event.kind) << " session "
                    << event.session.value() << " rank " << event.old_rank
                    << " -> " << event.new_rank << "\n";
      } else if (command == "rpc") {
        // One typed round trip per invocation so the stats dump always
        // reflects live traffic, not a dead channel.
        rpc::QueryRequest query;
        for (std::uint32_t i = 0; i < registry.size(); ++i)
          query.entries.push_back({i, now});
        const rpc::CallResult result =
            rpc_channel.call(HostId{0}, HostId{1}, query, now);
        std::cout << "rpc query: " << rpc::to_string(result.status) << " ("
                  << result.transmissions << " transmission(s))\n";
        if (const auto* reply = std::get_if<rpc::QueryReply>(&result.reply);
            result.ok() && reply != nullptr) {
          for (const rpc::QuerySample& sample : reply->samples)
            std::cout << "  " << registry.catalog().name(
                                     ResourceId{sample.resource})
                      << ": available " << sample.available << ", alpha "
                      << sample.alpha << ", "
                      << (sample.up != 0 ? "up" : "down") << "\n";
        }
        for (const auto& [peer, s] : rpc_channel.peer_stats())
          std::cout << "peer host " << peer.value() << ": breaker "
                    << rpc::to_string(rpc_channel.breaker_state(peer, now))
                    << ", calls " << s.calls << ", failures " << s.failures
                    << ", retries " << s.retries << ", timeouts "
                    << s.timeouts << ", peer-down " << s.peer_down
                    << ", deadline-exceeded " << s.deadline_exceeded
                    << ", breaker trips " << s.breaker_trips
                    << ", fast-fails " << s.breaker_fast_fails
                    << ", corrupt rounds " << s.corrupt_rounds << ", bytes "
                    << s.bytes_sent << "/" << s.bytes_received << "\n";
        const rpc::BrokerService::Stats service_stats = rpc_service.stats();
        std::cout << "service: frames " << service_stats.frames
                  << ", executed " << service_stats.executed
                  << ", duplicates " << service_stats.duplicates
                  << ", backpressure " << service_stats.backpressure
                  << ", deadline-expired " << service_stats.deadline_expired
                  << ", bad-requests " << service_stats.bad_requests
                  << ", queue high water "
                  << rpc_service.max_queue_high_water() << "\n";
      } else if (command == "journal") {
        if (!journal) {
          std::cout << "no journal attached (run with --journal <path>)\n";
          continue;
        }
        const std::vector<JournalRecord> records =
            FileJournal::read_file(journal->path());
        std::cout << "journal " << journal->path() << ": " << records.size()
                  << " record(s)\n";
        for (const JournalRecord& record : records)
          std::cout << "  " << to_line(record) << "\n";
        bool all_match = true;
        for (std::uint32_t i = 0; i < registry.size(); ++i) {
          const ResourceId id{i};
          ResourceBroker* live = registry.leaf(id);
          if (live == nullptr) continue;
          const std::vector<JournalRecord> own = filter_journal(records, id);
          std::size_t snapshots = 0;
          for (const JournalRecord& record : own)
            if (record.op == JournalOp::kSnapshot) ++snapshots;
          const ResourceBroker recovered = ResourceBroker::recover(own);
          const bool match = to_line(recovered.snapshot(now)) ==
                             to_line(live->snapshot(now));
          all_match = all_match && match;
          std::cout << "  " << live->name() << ": " << own.size()
                    << " record(s), " << snapshots << " snapshot(s), "
                    << (match ? "replay matches" : "REPLAY DIVERGED") << "\n";
        }
        std::cout << (all_match
                          ? "journal verified: replay matches every broker\n"
                          : "journal verification FAILED\n");
      } else if (command == "mc") {
        std::string topology_name;
        if (!(stream >> topology_name) || topology_name == "list") {
          for (const mc::Topology& topology : mc::all_topologies())
            std::cout << "  " << topology.name << ": " << topology.summary
                      << "\n";
          continue;
        }
        const mc::Topology* topology = mc::find_topology(topology_name);
        if (topology == nullptr) {
          std::cout << "unknown topology '" << topology_name
                    << "' (try: mc list)\n";
          continue;
        }
        mc::CheckLimits limits;
        stream >> limits.max_states;
        const auto start = std::chrono::steady_clock::now();
        const mc::CheckResult result =
            mc::check(*topology, topology->config, limits);
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        const std::uint64_t considered =
            result.transitions + result.sleep_pruned;
        std::cout << "mc " << topology->name << ": "
                  << result.distinct_states << " distinct states, "
                  << result.transitions << " transitions, depth "
                  << result.deepest << ", reduction "
                  << (considered == 0
                          ? 0.0
                          : static_cast<double>(result.sleep_pruned) /
                                static_cast<double>(considered))
                  << ", "
                  << static_cast<std::uint64_t>(
                         seconds > 0.0
                             ? static_cast<double>(result.distinct_states) /
                                   seconds
                             : 0.0)
                  << " states/sec\n";
        if (result.violation_found)
          std::cout << "mc verdict: VIOLATION " << result.invariant << " ("
                    << result.trace.size() << "-step minimized trace)\n";
        else if (result.budget_exhausted)
          std::cout << "mc verdict: INCONCLUSIVE (budget exhausted)\n";
        else
          std::cout << "mc verdict: VERIFIED (exhaustive, no violation)\n";
      } else if (command == "replication") {
        std::string mode_token = "sync";
        stream >> mode_token;
        if (mode_token != "sync" && mode_token != "async") {
          std::cout << "usage: replication [sync|async]\n";
          continue;
        }
        ReplicationConfig config;
        config.mode = mode_token == "async" ? ReplicationMode::kAsync
                                            : ReplicationMode::kSync;
        const std::vector<HostId> hosts{HostId{1}, HostId{2}, HostId{3}};
        ReplicatedBroker group(ResourceId{0}, "demo_group", 100.0, hosts,
                               config);
        // A short scripted episode: confirm grants, then kill the primary
        // mid-epoch and promote the most-caught-up standby.
        double t = 0.0;
        int confirmed = 0;
        for (std::uint32_t s = 1; s <= 4; ++s)
          if (group.reserve(t += 1.0, SessionId{s}, 10.0)) ++confirmed;
        group.crash_replica(group.primary_host(), t += 1.0);
        HostId candidate;
        for (HostId host : hosts) {
          if (group.role_of(host) != ReplicaRole::kStandby ||
              !group.replica_up(host))
            continue;
          if (!candidate.valid() ||
              group.watermark_of(host) > group.watermark_of(candidate))
            candidate = host;
        }
        if (candidate.valid() &&
            !group.promote(candidate, group.next_epoch(), t += 1.0))
          std::cout << "promotion refused: host " << candidate.value()
                    << " lost the epoch race; group stays unled\n";
        int survived = 0;
        for (std::uint32_t s = 1; s <= 4; ++s)
          if (group.held_by(SessionId{s}) > 0.0) ++survived;
        std::cout << "replication " << mode_token << ": epoch "
                  << group.epoch() << ", primary host "
                  << group.primary_host().value() << ", quorum "
                  << group.quorum() << "/" << hosts.size() << "\n";
        for (HostId host : hosts)
          std::cout << "  host " << host.value() << ": "
                    << to_string(group.role_of(host)) << ", epoch "
                    << group.epoch_of(host) << ", watermark "
                    << group.watermark_of(host) << ", "
                    << (group.replica_up(host) ? "up" : "down") << "\n";
        const ReplicationStats& rs = group.stats();
        std::cout << "stats: grants " << rs.grants_local << " local / "
                  << rs.grants_confirmed << " confirmed, quorum failures "
                  << rs.quorum_failures << ", batches " << rs.ship_batches
                  << " (" << rs.ship_records << " record(s), "
                  << rs.ship_lost << " lost), acks " << rs.acks
                  << ", gap refusals " << rs.gap_refusals
                  << ", fenced refusals " << rs.fenced_refusals
                  << ", promotions " << rs.promotions << ", truncated "
                  << rs.truncated_records << "\n";
        std::cout << "replication verdict: " << survived << "/" << confirmed
                  << " confirmed grant(s) survived the failover\n";
      } else {
        std::cout << "commands: plan [scale] | reserve [scale] | release "
                     "<id> | avail | sinks | contention | rpc | journal | "
                     "mc <topology> [states] | replication [sync|async] | "
                     "quit\n";
      }
    } catch (const std::exception& error) {
      std::cout << "error: " << error.what() << "\n";
    }
  }
  return 0;
}
