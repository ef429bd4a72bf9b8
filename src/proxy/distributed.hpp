// The *distributed* model-storage mode of the paper's architecture (§3):
// "in a distributed approach, the Q_in and Q_out levels and the
// Translation Function of each service component will be stored and
// accessed by the QoSProxy of the host where the service component runs."
//
// With the model fragments distributed, no single proxy can build the
// whole QRG. For chain services the bottleneck-shortest-path computation
// decomposes naturally into a hop-by-hop protocol:
//
//   forward pass   — each proxy receives the upstream frontier (one label
//                    per upstream output level), extends it across its own
//                    translation edges using *locally observed*
//                    availability, and forwards its own output frontier
//                    (one message per dependency edge);
//   backward pass  — the sink proxy picks the end-to-end level (highest
//                    reachable; or the §4.3.1 tradeoff rule) and each
//                    proxy backtracks its recorded predecessor choice,
//                    demanding one output level from its upstream
//                    neighbor (one message per edge);
//   reserve pass   — each proxy reserves its own segment with its local
//                    brokers; any failure aborts and rolls back the
//                    already-reserved segments (one message per proxy).
//
// On chains this computes exactly the centralized basic/tradeoff plan
// (property-tested), with 2(K-1) + K protocol messages instead of
// centralized collection + dispatch. Messages are explicit structs so the
// protocol is inspectable and testable.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "broker/registry.hpp"
#include "core/planner.hpp"
#include "proxy/qos_proxy.hpp"  // EstablishResult / CoordinationStats
#include "rpc/channel.hpp"

namespace qres {

/// One frontier entry of the forward pass: the pass-I label of an
/// upstream output-level node, as shipped between proxies.
struct FrontierLabel {
  bool reachable = false;
  double value = 0.0;
  double alpha = 1.0;
  ResourceId bottleneck;
};

/// Forward-pass message: labels of the sender component's output levels.
struct ForwardMessage {
  std::vector<FrontierLabel> out_labels;
};

/// Backward-pass message: the output level demanded from the upstream
/// component.
struct BackwardMessage {
  LevelIndex demanded_out = 0;
};

/// The per-host planning agent: holds one component's model fragment and
/// processes the protocol messages. Availability is observed through the
/// host's own brokers only.
class ComponentAgent {
 public:
  /// The agent of component `index` of `service`.
  ComponentAgent(const ServiceDefinition* service, ComponentIndex index,
                 std::vector<ResourceId> local_footprint,
                 BrokerRegistry* registry);

  /// Processes the upstream frontier at time `now`: relaxes all local
  /// translation edges (scaled by `scale`) and returns the local output
  /// frontier. Must be called before backward()/reserve().
  ForwardMessage forward(const ForwardMessage& upstream, double now,
                         double scale, PsiKind psi_kind,
                         const PlannerOptions& options);

  /// Processes the downstream demand: fixes this component's operating
  /// point and returns the demand for the upstream component.
  BackwardMessage backward(const BackwardMessage& demand);

  /// The operating point fixed by backward(); valid afterwards.
  const PlanStep& chosen_step() const;

  /// Reserves the chosen step's requirement with the local brokers;
  /// returns false on admission failure (nothing partially held locally).
  /// `lease` > 0 takes leased reservations of that duration; `failed`
  /// (optional) receives the resource that was rejected.
  bool reserve(SessionId session, double now, double lease = 0.0,
               ResourceId* failed = nullptr);

  /// Releases exactly what reserve() took for the session.
  void release(SessionId session, double now);

 private:
  const ServiceDefinition* service_;
  ComponentIndex index_;
  std::vector<ResourceId> footprint_;
  BrokerRegistry* registry_;

  // Per-output-level working state recorded by forward().
  struct OutState {
    FrontierLabel label;
    LevelIndex pred_in = 0;
    std::uint32_t candidate = 0;  ///< the compiled operating point
    double edge_psi = 0.0;
  };
  std::vector<OutState> out_states_;
  double scale_ = 1.0;  ///< of the last forward()
  std::optional<PlanStep> chosen_;

  friend class DistributedSession;
};

/// Orchestrates one chain service session in distributed mode.
class DistributedSession {
 public:
  /// `per_component_footprint[i]` lists the resources component i's
  /// translation may reference (all local to that component's host).
  DistributedSession(const ServiceDefinition* service,
                     std::vector<std::vector<ResourceId>> per_component_footprint,
                     BrokerRegistry* registry,
                     PsiKind psi_kind = PsiKind::kRatio,
                     PlannerOptions options = {});

  /// Routes every protocol message (forward/backward hops between
  /// neighboring proxies, reserve-pass dispatches from the sink) through
  /// `transport`, wrapped in an rpc::RpcChannel shim (request ids,
  /// per-peer stats, optional breaker/deadline via rpc_channel()).
  /// Components with invalid hosts exchange no RPCs (they are
  /// co-located). Without a transport the control plane is perfect.
  void attach_faults(IControlTransport* transport);

  /// The shim every protocol message goes through (null until
  /// attach_faults). Exposed so callers can tune the breaker config or
  /// read per-peer stats.
  rpc::RpcChannel* rpc_channel() const noexcept { return channel_.get(); }

  /// Reserve-pass reservations become leases of `lease_duration` (see
  /// SessionCoordinator::enable_leases).
  void enable_leases(double lease_duration);

  /// Runs the three passes. `use_tradeoff` applies the §4.3.1 sink rule
  /// at the sink proxy. Returns the same result shape as the centralized
  /// coordinator; stats count protocol messages.
  EstablishResult establish(SessionId session, double now, double scale = 1.0,
                            bool use_tradeoff = false);

  void teardown(const std::vector<std::pair<ResourceId, double>>& holdings,
                SessionId session, double now);

 private:
  /// Host of agent i's component (invalid when the component is unhosted).
  HostId agent_host(std::size_t i) const;
  /// One protocol RPC from `from` to `to` at `now`; true when delivered
  /// (trivially so when either host is invalid or they coincide). Updates
  /// `stats` retransmission/unreachable counters.
  bool protocol_exchange(HostId from, HostId to, double now,
                         CoordinationStats& stats);

  const ServiceDefinition* service_;
  BrokerRegistry* registry_;
  PsiKind psi_kind_;
  PlannerOptions options_;
  std::unique_ptr<rpc::RpcChannel> channel_;
  double lease_ = 0.0;  ///< 0 = permanent reservations
  std::vector<ComponentAgent> agents_;  // in topological (chain) order
};

}  // namespace qres
