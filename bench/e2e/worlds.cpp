#include "worlds.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "broker/journal.hpp"
#include "core/topology.hpp"
#include "probes.hpp"
#include "scenario/paper_scenario.hpp"
#include "scenario/qos_tables.hpp"

namespace qres::e2e {

namespace {

class PaperEnvironment final : public Environment {
 public:
  PaperEnvironment() : scenario_(config()) {}

  BrokerRegistry& registry() override { return scenario_.registry(); }

  std::vector<Coordinator> coordinators() override {
    std::vector<Coordinator> out;
    for (int s = 1; s <= PaperScenario::kServers; ++s)
      for (int d = 1; d <= PaperScenario::kDomains; ++d)
        if (s != PaperScenario::excluded_service(d))
          out.push_back({&scenario_.coordinator(s, d),
                         scenario_.registry().catalog().host(
                             scenario_.host_resource(s))});
    return out;
  }

  SessionSource make_source() override { return scenario_.make_source(); }

 private:
  static PaperScenarioConfig config() {
    PaperScenarioConfig config;
    config.setup_seed = kSetupSeed;
    return config;
  }

  PaperScenario scenario_;
};

/// Figure 9 rebuilt step for step as PaperScenario's constructor builds it
/// (same topology, same resource-id order, same setup-rng draw order, same
/// session source), with durable brokers in place of in-memory ones.
class DurableEnvironment final : public Environment {
 public:
  static constexpr int kServers = PaperScenario::kServers;
  static constexpr int kDomains = PaperScenario::kDomains;
  static constexpr int kLinks = PaperScenario::kLinks;

  DurableEnvironment(const std::string& journal_dir, bool traced) {
    config_.setup_seed = kSetupSeed;
    Rng setup_rng(config_.setup_seed);

    std::array<HostId, kServers> servers{};
    std::array<HostId, kDomains> domains{};
    for (int i = 0; i < kServers; ++i)
      servers[i] = topology_.add_host("H" + std::to_string(i + 1));
    for (int d = 0; d < kDomains; ++d)
      domains[d] = topology_.add_host("D" + std::to_string(d + 1));
    std::array<LinkId, kLinks> links{};
    int n = 0;
    for (int i = 0; i < kServers; ++i)
      for (int j = i + 1; j < kServers; ++j, ++n)
        links[n] = topology_.add_link("L" + std::to_string(n + 1), servers[i],
                                      servers[j]);
    for (int d = 0; d < kDomains; ++d, ++n)
      links[n] = topology_.add_link(
          "L" + std::to_string(n + 1), domains[d],
          servers[PaperScenario::proxy_host_of_domain(d + 1) - 1]);

    auto draw_capacity = [&] {
      return setup_rng.uniform(config_.capacity_min, config_.capacity_max);
    };
    ReplicationConfig group;
    group.mode = ReplicationMode::kSync;
    group.quorum = 2;
    std::array<ResourceId, kServers> host_res{};
    for (int i = 0; i < kServers; ++i) {
      const std::vector<HostId> replicas = {servers[i],
                                            servers[(i + 1) % kServers],
                                            servers[(i + 2) % kServers]};
      host_res[i] = registry_.add_replicated_resource(
          "h_H" + std::to_string(i + 1), ResourceKind::kCpu, replicas,
          draw_capacity(), group, config_.alpha_window,
          config_.history_keep, config_.alpha_mode);
      if (traced) {
        ReplicatedBroker* replicated = registry_.replicated(host_res[i]);
        ships_.push_back(std::make_unique<ShipProbe>(replicated));
        replicated->set_transport(ships_.back().get());
      }
    }
    std::array<ResourceId, kLinks> link_res{};
    for (int l = 0; l < kLinks; ++l) {
      const std::string& name = topology_.link_name(links[l]);
      link_res[l] = registry_.add_resource(
          name, ResourceKind::kNetworkBandwidth, HostId{}, draw_capacity(),
          config_.alpha_window, config_.history_keep, config_.alpha_mode);
      files_.push_back(
          std::make_unique<FileJournal>(journal_dir + "/" + name + ".journal"));
      IJournalSink* sink = files_.back().get();
      if (traced) {
        timed_.push_back(std::make_unique<TimedJournal>(sink));
        sink = timed_.back().get();
      }
      registry_.leaf(link_res[l])->attach_journal(sink);
    }

    auto path_of = [&](HostId from, HostId to) {
      std::vector<ResourceId> ids;
      for (LinkId link : topology_.route(from, to))
        ids.push_back(link_res[link.value()]);
      return ids;
    };
    std::array<std::array<ResourceId, kServers>, kServers> net_pair{};
    for (int i = 0; i < kServers; ++i)
      for (int j = i + 1; j < kServers; ++j) {
        const ResourceId id = registry_.add_network_path(
            "net(H" + std::to_string(i + 1) + "-H" + std::to_string(j + 1) +
                ")",
            path_of(servers[i], servers[j]));
        net_pair[i][j] = id;
        net_pair[j][i] = id;
      }
    std::array<ResourceId, kDomains> net_access{};
    for (int d = 0; d < kDomains; ++d) {
      const int proxy = PaperScenario::proxy_host_of_domain(d + 1) - 1;
      net_access[d] = registry_.add_network_path(
          "net(H" + std::to_string(proxy + 1) + "-D" + std::to_string(d + 1) +
              ")",
          path_of(servers[proxy], domains[d]));
    }

    services_.resize(static_cast<std::size_t>(kServers) * kDomains);
    coordinators_.resize(services_.size());
    PaperServiceOptions options;
    options.low_diversity = config_.low_diversity;
    options.requirement_scale = config_.requirement_scale;
    for (int s = 1; s <= kServers; ++s) {
      const QosTableKind kind =
          (s == 1 || s == 4) ? QosTableKind::kTypeA : QosTableKind::kTypeB;
      for (int d = 1; d <= kDomains; ++d) {
        if (PaperScenario::excluded_service(d) == s) continue;
        const int proxy = PaperScenario::proxy_host_of_domain(d);
        ServiceResources resources;
        resources.server_local = host_res[s - 1];
        resources.proxy_local = host_res[proxy - 1];
        resources.net_server_proxy = net_pair[s - 1][proxy - 1];
        resources.net_proxy_client = net_access[d - 1];
        const int index = (s - 1) * kDomains + (d - 1);
        services_[index] = std::make_unique<ServiceDefinition>(
            make_paper_service(
                "S" + std::to_string(s) + "@D" + std::to_string(d), kind,
                resources, servers[s - 1], servers[proxy - 1],
                domains[d - 1], options));
        coordinators_[index] = std::make_unique<SessionCoordinator>(
            services_[index].get(), paper_service_footprint(resources),
            &registry_, config_.psi_kind);
      }
      main_hosts_[s - 1] = servers[s - 1];
    }
    popularity_.fill(1.0);
    next_reroll_ = config_.popularity_period;
  }

  BrokerRegistry& registry() override { return registry_; }

  std::vector<Coordinator> coordinators() override {
    std::vector<Coordinator> out;
    for (std::size_t i = 0; i < coordinators_.size(); ++i)
      if (coordinators_[i])
        out.push_back({coordinators_[i].get(), main_hosts_[i / kDomains]});
    return out;
  }

  // PaperScenario::make_source, draw for draw.
  SessionSource make_source() override {
    return [this](Rng& rng, double now) {
      while (now >= next_reroll_) {
        for (double& weight : popularity_)
          weight = rng.uniform(config_.popularity_min, config_.popularity_max);
        next_reroll_ += config_.popularity_period;
      }
      const int domain = rng.uniform_int(1, kDomains);
      const int excluded = PaperScenario::excluded_service(domain);
      std::vector<double> weights;
      std::vector<int> candidates;
      for (int s = 1; s <= kServers; ++s) {
        if (s == excluded) continue;
        candidates.push_back(s);
        weights.push_back(popularity_[s - 1]);
      }
      const int service = candidates[rng.categorical(weights)];
      SessionSpec spec;
      spec.coordinator =
          coordinators_[(service - 1) * kDomains + (domain - 1)].get();
      spec.traits = sample_traits(config_.workload, rng);
      return spec;
    };
  }

 private:
  PaperScenarioConfig config_;
  Topology topology_;
  // Sinks and probes outlive the brokers that hold pointers to them.
  std::vector<std::unique_ptr<FileJournal>> files_;
  std::vector<std::unique_ptr<TimedJournal>> timed_;
  std::vector<std::unique_ptr<ShipProbe>> ships_;
  BrokerRegistry registry_;
  std::vector<std::unique_ptr<ServiceDefinition>> services_;
  /// Index (service - 1) * kDomains + (domain - 1); null when excluded.
  std::vector<std::unique_ptr<SessionCoordinator>> coordinators_;
  std::array<HostId, kServers> main_hosts_{};
  std::array<double, kServers> popularity_{};
  double next_reroll_ = 0.0;
};

class WideChainEnvironment final : public Environment {
 public:
  WideChainEnvironment() {
    Rng setup_rng(kSetupSeed);
    const PaperScenarioConfig paper;
    auto draw_capacity = [&] {
      return setup_rng.uniform(paper.capacity_min, paper.capacity_max);
    };
    for (int c = 0; c < kChainComponents; ++c)
      hosts_.push_back(topology_.add_host("N" + std::to_string(c + 1)));
    std::vector<ResourceId> cpu;
    std::vector<ResourceId> bandwidth;
    for (int c = 0; c < kChainComponents; ++c)
      cpu.push_back(registry_.add_resource("cpu_N" + std::to_string(c + 1),
                                           ResourceKind::kCpu, hosts_[c],
                                           draw_capacity()));
    for (int l = 0; l + 1 < kChainComponents; ++l) {
      const LinkId link = topology_.add_link("W" + std::to_string(l + 1),
                                             hosts_[l], hosts_[l + 1]);
      bandwidth.push_back(registry_.add_resource(
          topology_.link_name(link), ResourceKind::kNetworkBandwidth,
          HostId{}, draw_capacity()));
    }
    std::vector<ResourceId> footprint = cpu;
    footprint.insert(footprint.end(), bandwidth.begin(), bandwidth.end());
    for (int s = 0; s < kChainServices; ++s) {
      services_.push_back(std::make_unique<ServiceDefinition>(
          chain_service(s, cpu, bandwidth, setup_rng)));
      coordinators_.push_back(std::make_unique<SessionCoordinator>(
          services_.back().get(), footprint, &registry_));
    }
  }

  BrokerRegistry& registry() override { return registry_; }

  std::vector<Coordinator> coordinators() override {
    std::vector<Coordinator> out;
    for (const auto& coordinator : coordinators_)
      out.push_back({coordinator.get(), hosts_.front()});
    return out;
  }

  SessionSource make_source() override {
    return [this](Rng& rng, double) {
      SessionSpec spec;
      spec.coordinator =
          coordinators_[rng.uniform_int(0, kChainServices - 1)].get();
      spec.traits = sample_traits(WorkloadConfig{}, rng);
      return spec;
    };
  }

 private:
  /// Dense K x Q tables, drawn the way bench_planner's make_chain draws
  /// them: per (in, out) entry one U(1, 100) CPU amount, then one
  /// U(1, 100) bandwidth amount.
  ServiceDefinition chain_service(int index, const std::vector<ResourceId>& cpu,
                                  const std::vector<ResourceId>& bandwidth,
                                  Rng& rng) const {
    const QoSSchema schema({"level"});
    std::vector<ServiceComponent> components;
    std::vector<std::pair<ComponentIndex, ComponentIndex>> edges;
    for (int c = 0; c < kChainComponents; ++c) {
      const int ins = c == 0 ? 1 : kChainLevels;
      const ResourceId link = bandwidth[std::max(c, 1) - 1];
      TranslationTable table;
      for (int in = 0; in < ins; ++in)
        for (int out = 0; out < kChainLevels; ++out) {
          ResourceVector requirement;
          requirement.set(cpu[c], rng.uniform(1.0, 100.0));
          requirement.set(link, rng.uniform(1.0, 100.0));
          table.set(static_cast<LevelIndex>(in), static_cast<LevelIndex>(out),
                    requirement);
        }
      std::vector<QoSVector> levels;
      for (int i = 0; i < kChainLevels; ++i)
        levels.push_back(
            QoSVector(schema, {static_cast<double>(kChainLevels - i)}));
      components.emplace_back("c" + std::to_string(c), std::move(levels),
                              table.as_function(), hosts_[c]);
      if (c > 0)
        edges.push_back({static_cast<ComponentIndex>(c - 1),
                         static_cast<ComponentIndex>(c)});
    }
    return ServiceDefinition("chain" + std::to_string(index + 1),
                             std::move(components), std::move(edges),
                             QoSVector(schema, {1.0}));
  }

  Topology topology_;
  std::vector<HostId> hosts_;
  BrokerRegistry registry_;
  std::vector<std::unique_ptr<ServiceDefinition>> services_;
  std::vector<std::unique_ptr<SessionCoordinator>> coordinators_;
};

}  // namespace

std::unique_ptr<Environment> make_paper_environment() {
  return std::make_unique<PaperEnvironment>();
}

std::unique_ptr<Environment> make_durable_environment(
    const std::string& journal_dir, bool traced) {
  return std::make_unique<DurableEnvironment>(journal_dir, traced);
}

std::unique_ptr<Environment> make_wide_chain_environment() {
  return std::make_unique<WideChainEnvironment>();
}

TypedPlane::TypedPlane(Environment& env, rpc::IFrameFaults* frames) {
  for (const Environment::Coordinator& entry : env.coordinators()) {
    services_.push_back(
        std::make_unique<rpc::BrokerService>(&env.registry()));
    entry.coordinator->attach_rpc_service(services_.back().get(),
                                          entry.main_host, nullptr, frames);
    coordinators_.push_back(entry.coordinator);
  }
}

std::uint64_t TypedPlane::dedup_replays() const {
  std::uint64_t total = 0;
  for (const auto& service : services_) total += service->stats().duplicates;
  return total;
}

std::uint64_t TypedPlane::backpressure() const {
  std::uint64_t total = 0;
  for (const auto& service : services_) total += service->stats().backpressure;
  return total;
}

std::size_t TypedPlane::queue_high_water() const {
  std::size_t high = 0;
  for (const auto& service : services_)
    high = std::max(high, service->max_queue_high_water());
  return high;
}

std::uint64_t TypedPlane::wire_bytes() const {
  std::uint64_t total = 0;
  for (const SessionCoordinator* coordinator : coordinators_)
    for (const auto& [peer, stats] : coordinator->rpc_channel()->peer_stats())
      total += stats.bytes_sent + stats.bytes_received;
  return total;
}

ReplicationTotals replication_totals(BrokerRegistry& registry) {
  ReplicationTotals totals;
  for (std::uint32_t i = 0; i < registry.size(); ++i)
    if (const ReplicatedBroker* group = registry.replicated(ResourceId{i})) {
      totals.ship_batches += group->stats().ship_batches;
      totals.ship_records += group->stats().ship_records;
      totals.quorum_failures += group->stats().quorum_failures;
    }
  return totals;
}

std::string conservation_error(BrokerRegistry& registry, double now) {
  std::ostringstream error;
  const auto check_empty = [&](const ResourceBroker& broker,
                               const std::string& where) {
    if (broker.active_sessions() != 0 ||
        std::abs(broker.available() - broker.capacity()) >
            1e-9 * broker.capacity())
      error << where << ": " << broker.active_sessions() << " sessions hold "
            << broker.capacity() - broker.available() << "; ";
  };
  for (std::uint32_t i = 0; i < registry.size(); ++i) {
    const ResourceId id{i};
    const std::string& name = registry.catalog().name(id);
    if (const ResourceBroker* leaf = registry.leaf(id)) {
      check_empty(*leaf, name);
    } else if (ReplicatedBroker* group = registry.replicated(id)) {
      if (!group->flush(now)) error << name << ": final flush missed quorum; ";
      const ResourceBroker& primary =
          group->replica_broker(group->primary_host());
      for (const HostId host : group->hosts()) {
        const ResourceBroker& replica = group->replica_broker(host);
        const std::string where =
            name + " replica " + std::to_string(host.value());
        check_empty(replica, where);
        if (replica.reserved() != primary.reserved() ||
            replica.history() != primary.history())
          error << where << ": disagrees with the primary; ";
      }
    }
  }
  return error.str();
}

}  // namespace qres::e2e
