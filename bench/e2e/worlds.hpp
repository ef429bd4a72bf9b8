// The environments qres_bench drives, built from public APIs only, and the
// typed control plane they run on.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "broker/registry.hpp"
#include "proxy/qos_proxy.hpp"
#include "rpc/broker_service.hpp"
#include "sim/simulation.hpp"

namespace qres::e2e {

/// Broker capacities and QoS tables come from this fixed seed, so that a
/// run's --seed varies only the session stream, never the environment.
inline constexpr std::uint64_t kSetupSeed = 42;

/// A reservation environment: brokers, services, their coordinators and a
/// session source. Coordinators start on the implicit plane; TypedPlane
/// moves them onto the typed one.
class Environment {
 public:
  struct Coordinator {
    SessionCoordinator* coordinator = nullptr;
    HostId main_host;  ///< where this main QoSProxy runs
  };

  virtual ~Environment() = default;

  virtual BrokerRegistry& registry() = 0;
  virtual std::vector<Coordinator> coordinators() = 0;
  /// The environment's session stream; draws only from the rng it is
  /// handed. The source refers to this environment and must not outlive it.
  virtual SessionSource make_source() = 0;
};

/// Figure 9 as `PaperScenario` builds it: in-memory brokers.
std::unique_ptr<Environment> make_paper_environment();

/// Figure 9 rebuilt with the same resource ids, capacities and session
/// stream as `PaperScenario`, but durable: the four server host resources
/// are 3-replica sync groups (quorum 2, in-process shipping) and the 14
/// link brokers journal to FileJournal files under `journal_dir`.
/// `traced` wraps the journals in TimedJournal and ships through
/// ShipProbe.
std::unique_ptr<Environment> make_durable_environment(
    const std::string& journal_dir, bool traced);

/// Four chain services of kChainComponents x kChainLevels over a line of
/// hosts: component c runs on host c and needs that host's CPU plus the
/// bandwidth of the link into it (component 0: the link out of it).
inline constexpr int kChainComponents = 8;
inline constexpr int kChainLevels = 16;
inline constexpr int kChainServices = 4;
std::unique_ptr<Environment> make_wide_chain_environment();

/// Puts every coordinator of an environment on the typed control plane.
///
/// Each coordinator gets its own BrokerService over the shared registry.
/// Every RpcChannel numbers its requests from 1, so coordinators sharing
/// one service collide in its request-id dedup cache: one coordinator's
/// Reserve is answered with another's cached reply (a wrong reply type
/// aborts the run with std::bad_variant_access within the first 100 TU on
/// figure 9, and a matching type is a phantom grant). See README.md,
/// "Known issues".
class TypedPlane {
 public:
  /// `frames` (optional) is installed as every channel's frame hook.
  TypedPlane(Environment& env, rpc::IFrameFaults* frames);

  /// Requests answered from a dedup cache, over every service.
  std::uint64_t dedup_replays() const;
  /// kBackpressure fast-rejects, over every service.
  std::uint64_t backpressure() const;
  /// Deepest any service's execution queue has been.
  std::size_t queue_high_water() const;
  /// Request and reply bytes over every coordinator's channel.
  std::uint64_t wire_bytes() const;

 private:
  std::vector<SessionCoordinator*> coordinators_;
  std::vector<std::unique_ptr<rpc::BrokerService>> services_;
};

/// Replication counters summed over every replica group of a registry.
struct ReplicationTotals {
  std::uint64_t ship_batches = 0;
  std::uint64_t ship_records = 0;
  std::uint64_t quorum_failures = 0;
};
ReplicationTotals replication_totals(BrokerRegistry& registry);

/// Empty when every leaf broker and every replica group of `registry` is
/// back at full capacity with no holdings, and the replicas of each group
/// agree after a final flush; otherwise what is wrong.
std::string conservation_error(BrokerRegistry& registry, double now);

}  // namespace qres::e2e
