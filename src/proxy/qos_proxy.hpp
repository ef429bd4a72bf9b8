// QoSProxy runtime architecture (paper §3, §4.2).
//
// A QoSProxy runs on each end host and coordinates multi-resource
// reservation for the sessions that involve its host. The paper's
// centralized mode is implemented: the *main* QoSProxy (on the service's
// main server) stores the QoS-Resource Model and runs the algorithm. A
// session establishment has three phases:
//   1. every participating QoSProxy reports current resource availability
//      to the main proxy (one message round trip per participant),
//   2. the main proxy builds the QRG and runs the planner locally,
//   3. the main proxy dispatches each plan segment to the participating
//      proxies, which reserve with their local Resource Brokers.
// Phase 3 is all-or-nothing: if any reservation fails, everything already
// reserved for the session is rolled back and establishment fails.
//
// Every phase-1 poll and phase-3 dispatch, rollback, teardown and re-sync
// travels as a typed frame through an rpc::BrokerService (DESIGN.md §12):
// the one attached with attach_rpc_service, or else a private lossless
// in-process loopback the coordinator creates on first use.
//
// CoordinationStats counts the message rounds of §4.2 so the overhead
// model can be examined by tests and benches.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "broker/registry.hpp"
#include "core/admission.hpp"
#include "core/planner.hpp"
#include "core/transport.hpp"
#include "rpc/broker_service.hpp"
#include "rpc/channel.hpp"

namespace qres {

/// Message/overhead accounting for one establishment (paper §4.2: one
/// round trip per participating proxy plus local algorithm execution).
struct CoordinationStats {
  std::size_t participating_proxies = 0;
  std::size_t availability_messages = 0;  ///< phase-1 request/report pairs
  std::size_t dispatch_messages = 0;      ///< phase-3 plan segments sent
  std::size_t reservations_attempted = 0;
  std::size_t reservations_rolled_back = 0;
  /// Fault-plane accounting (all zero without an attached transport).
  std::size_t retransmissions = 0;       ///< extra RPC attempts that got through
  std::size_t unreachable_proxies = 0;   ///< RPC rounds that never got through
  std::size_t replans = 0;               ///< recovery rounds after kUnreachable
};

/// Why a session establishment ended the way it did. Separates hard
/// rejections (no plan / admission) from control-plane faults
/// (kUnreachable), which EstablishPolicy::max_replans re-plans around, and
/// from overload fast-rejects (kOverload), which an admission governor
/// issues before any planning or RPC work is spent.
enum class EstablishOutcome : std::uint8_t {
  kOk,           ///< established; holdings are live
  kNoPlan,       ///< no feasible end-to-end plan for the snapshot
  kAdmission,    ///< a broker rejected a plan segment (stale observation)
  kUnreachable,  ///< a participating proxy could not be reached
  kOverload,     ///< rejected fast by the admission governor
  /// No feasible plan while one or more footprint brokers were down (or,
  /// defensively, a dispatch hit a down broker). A broker outage is a
  /// fault, not a rejection: the coordinator routes around down brokers
  /// when any alternative exists, so this outcome means the outage itself
  /// is (potentially) what blocked the session — retry after restart.
  kBrokerUnavailable,
};

const char* to_string(EstablishOutcome outcome) noexcept;

/// Outcome of a session establishment attempt.
struct EstablishResult {
  bool success = false;
  EstablishOutcome outcome = EstablishOutcome::kNoPlan;
  /// Resource whose reservation or dispatch failed (invalid otherwise).
  ResourceId failed_resource;
  /// The computed plan (present whenever planning succeeded, even if the
  /// subsequent reservation failed due to stale observations).
  std::optional<ReservationPlan> plan;
  /// Diagnostics for every end-to-end QoS level.
  std::vector<SinkInfo> sinks;
  /// What was actually reserved (resource, amount) — empty on failure;
  /// needed to tear the session down later.
  std::vector<std::pair<ResourceId, double>> holdings;
  /// Reservations whose rollback release could not be dispatched (the
  /// owning proxy was unreachable). They stay held by the session until
  /// the broker lease expires (lease mode) or an explicit release; the
  /// caller must account for them (the auditor does).
  std::vector<std::pair<ResourceId, double>> leaked;
  CoordinationStats stats;
};

/// How hard one establish() call tries before giving up. The default is
/// the paper's single attempt: one snapshot, one plan, one dispatch.
struct EstablishPolicy {
  /// Plans dispatched in total when a plan's reservation is rejected
  /// (kAdmission — possible only under stale observations): the planner's
  /// choice first, then the next-cheapest feasible plans of the same, then
  /// lower-ranked, end-to-end levels (enumerate_plans order). Values above
  /// 1 require a chain service.
  std::size_t fallback_attempts = 1;
  /// Recovery rounds after a kUnreachable dispatch: every footprint
  /// resource on the dead host is marked unavailable, and the session is
  /// re-snapshotted and re-planned around it (at degraded QoS if the
  /// planner must). Stats accumulate across rounds; stats.replans counts
  /// the rounds taken.
  int max_replans = 0;
};

/// The main-QoSProxy coordination logic for one distributed service.
class SessionCoordinator {
 public:
  /// `footprint` lists every resource any translation of `service` may
  /// reference (the set the main proxy asks the participants to report).
  /// `psi_kind` selects the contention-index definition used when
  /// building QRGs (paper eq. 2 / footnote 2).
  SessionCoordinator(const ServiceDefinition* service,
                     std::vector<ResourceId> footprint,
                     BrokerRegistry* registry,
                     PsiKind psi_kind = PsiKind::kRatio);

  /// Routes the control plane through `service`: phase-1 polls become
  /// versioned QueryRequest frames answered from the brokers, and phase-3
  /// dispatches / rollback releases / teardowns / re-syncs become
  /// Reserve/Release/ReconcileRequest frames executed through the
  /// service's bounded per-broker queues, all via one rpc::RpcChannel
  /// shim (request ids, per-peer stats, optional circuit breaker and
  /// deadline — see rpc_channel() / set_rpc_deadline). `main_host` is
  /// where this coordinator (the main QoSProxy) runs; resources whose
  /// catalog host is invalid count as main-local and cross no transport.
  /// `transport` (optional) decides reachability and retransmission cost
  /// per call; `faults` (optional) injects frame-level corruption /
  /// duplication / reordering; `config` tunes the shim's retry policy and
  /// circuit breaker. Without this call the coordinator uses a private
  /// lossless loopback: its own BrokerService over the registry, main
  /// host = service().component(0).host(), created on first use.
  void attach_rpc_service(rpc::BrokerService* service, HostId main_host,
                          IControlTransport* transport = nullptr,
                          rpc::IFrameFaults* faults = nullptr,
                          rpc::RpcChannel::Config config = {});

  /// Per-call deadline budget: every subsequent coordination RPC carries
  /// an absolute deadline of now + `budget` (propagated to the broker
  /// service, truncating the transport's retry trains).
  /// Infinity (the default) disables deadlines.
  void set_rpc_deadline(double budget);

  /// Client-transparent re-homing after failover (DESIGN.md §14): typed
  /// dispatches for resources the directory knows route to its primary
  /// and carry its epoch; a kNotPrimary redirect is followed under the
  /// same request id (RpcChannel::call_routed) and the directory learns
  /// the new primary/epoch from the redirect, so the next dispatch goes
  /// straight there. Null (the default) keeps catalog-host routing.
  void set_replication_directory(ReplicationDirectory* directory) {
    directory_ = directory;
  }

  /// The shim every coordination RPC goes through (null until
  /// attach_rpc_service or the loopback's first use). Exposed for
  /// per-peer stats (`qresctl rpc`).
  rpc::RpcChannel* rpc_channel() const noexcept { return channel_.get(); }

  /// Phase-3 reservations become leases of `lease_duration` time units:
  /// if the owning proxy (or this coordinator) crashes before renewing,
  /// the broker reclaims the capacity instead of leaking it. The caller
  /// renews through a LeaseKeeper (src/sim) or directly via the brokers.
  void enable_leases(double lease_duration);

  /// Consults `governor` at the start of every establish call; when it
  /// rejects, the attempt fails immediately with kOverload — no planning,
  /// no RPC rounds, no broker churn. Null (the default) disables the
  /// check; renegotiation is never governed (adaptation must keep running
  /// under overload — that is its job).
  void set_admission_governor(const IAdmissionGovernor* governor) {
    governor_ = governor;
  }

  /// Priority the governor sees for subsequent establish calls (the
  /// AdaptationEngine sets this per admission; plain callers stay at 0).
  void set_priority_hint(int priority) { priority_hint_ = priority; }

  /// Runs the three-phase establishment for `session` at time `now` using
  /// `planner`. `scale` multiplies the service's base requirements (the
  /// paper's fat sessions). `staleness` (optional) maps each resource to
  /// how many time units old its observation is (§5.2.4); accurate when
  /// null. `rng` feeds randomized planners only. `policy` adds plan
  /// fallback and self-healing replans (see EstablishPolicy); fallback
  /// plans dispatch through the same typed path as the first.
  EstablishResult establish(SessionId session, double now,
                            const IPlanner& planner, Rng& rng,
                            double scale = 1.0,
                            const std::function<double(ResourceId)>&
                                staleness = nullptr,
                            EstablishPolicy policy = {});

  // --- Phase-split establishment (DESIGN.md §11). establish() with the
  // default policy is exactly snapshot_for_planning + plan_on_snapshot +
  // commit_planned; batch admission (src/sim/batch_admission.*) composes
  // the same three phases with the middle one fanned across a ThreadPool.

  /// Everything phase 2 needs, captured sequentially. Snapshotting
  /// observes brokers (alpha history advances) and spends RPC rounds, so
  /// it mutates world state and must stay in arrival order; the captured
  /// snapshot is immutable afterwards.
  struct PlanningSnapshot {
    bool overloaded = false;  ///< governor fast-reject; skip planning
    AvailabilityView view;
    std::vector<ResourceId> down;  ///< footprint brokers that were down
    CoordinationStats stats;       ///< phase-1 accounting so far
  };

  /// Phase 0+1 of establish(): governor check, participant polling, and
  /// the footprint availability snapshot. `dead` resources are pinned at
  /// zero availability regardless of their brokers (recovery replans).
  PlanningSnapshot snapshot_for_planning(
      double now,
      const std::function<double(ResourceId)>& staleness = nullptr,
      const std::vector<ResourceId>& dead = {});

  /// Phase 2 of establish(): QRG build + planner run against a snapshot.
  /// A pure const function of its arguments — safe to call concurrently
  /// from ThreadPool workers on distinct (snapshot, rng) pairs while
  /// nobody mutates the coordinator or its registry. Requires a
  /// non-overloaded snapshot.
  PlanResult plan_on_snapshot(const PlanningSnapshot& snapshot,
                              const IPlanner& planner, Rng& rng,
                              double scale = 1.0) const;

  /// Phase 3 of establish(): dispatch plus all-or-nothing reservation of
  /// a planned result against broker state *now* — which may have moved
  /// since the snapshot (an earlier member of the same batch may have
  /// taken the capacity); that surfaces as kAdmission exactly like a
  /// stale observation would. Handles overloaded snapshots (kOverload)
  /// and planless results (kNoPlan / kBrokerUnavailable) uniformly.
  EstablishResult commit_planned(SessionId session, double now,
                                 const PlanningSnapshot& snapshot,
                                 PlanResult planned);

  /// Make-before-break renegotiation of a live session (the adaptation
  /// layer's primitive, see src/adapt). Re-plans against a fresh snapshot
  /// in which the session's `current` holdings are credited back as
  /// available (the new plan may reuse anything already held), then
  /// reserves only the positive per-resource deltas of the new plan;
  /// once every delta is in place the transition commits and the excess
  /// of the old holdings is released. The session therefore never holds
  /// less than its committed plan mid-transition: an abort (admission
  /// rejection or unreachable proxy) rolls the deltas back and leaves
  /// exactly the old holdings — never the zero-holdings window of the
  /// old break-before-make loop.
  ///
  /// `min_rank` clamps how good the new plan may be: the chosen sink's
  /// end-to-end rank is >= min_rank (AIMD additive upgrades pass
  /// current_rank - 1; forced priority shedding passes the worst rank).
  ///
  /// On success result.holdings is the complete replacement holdings set
  /// (old holdings are consumed); an excess release whose RPC failed
  /// stays both in result.holdings and in result.leaked, so the caller's
  /// record keeps matching the broker until a later renegotiation or the
  /// final teardown releases it. On failure result.holdings is empty and
  /// the caller keeps `current` — plus result.leaked, the delta
  /// reservations whose rollback release could not be dispatched.
  ///
  /// `on_commit` (optional) fires at the commit point — every delta
  /// reserved, nothing released yet — with the new plan's per-resource
  /// totals. From before the call until that instant the session's
  /// broker holdings cover `current`; from that instant on they cover the
  /// reported totals. The AdaptationEngine uses it to maintain the
  /// holdings floor the make-before-break invariant is audited against.
  EstablishResult renegotiate(
      SessionId session, double now, const IPlanner& planner, Rng& rng,
      double scale,
      const std::vector<std::pair<ResourceId, double>>& current,
      std::size_t min_rank = 0,
      const std::function<double(ResourceId)>& staleness = nullptr,
      const std::function<
          void(const std::vector<std::pair<ResourceId, double>>&)>&
          on_commit = nullptr);

  /// Releases every holding of a previously established session (one
  /// ReleaseRequest each) and returns the releases that could not be
  /// delivered — an unreachable owner, or a down broker whose journal
  /// restores the holding at restart. They stay held until lease expiry or
  /// reconciliation reclaims them (or a later teardown retries them); the
  /// caller accounts for them like EstablishResult::leaked.
  std::vector<std::pair<ResourceId, double>> teardown(
      const std::vector<std::pair<ResourceId, double>>& holdings,
      SessionId session, double now);

  const ServiceDefinition& service() const noexcept { return *service_; }

  // --- Post-restart session reconciliation (DESIGN.md §9).

  /// One live session's belief about `resource`: it holds `amount` there
  /// and is owned by proxy host `owner`.
  struct ReconcileClaim {
    SessionId session;
    HostId owner;
    double amount = 0.0;
  };

  /// How one (session, holding) divergence was resolved — always toward
  /// the journal, whose recovered broker state is the durable truth.
  enum class ReconcileResolution : std::uint8_t {
    kConfirmed,       ///< claim matches the recovered holding (lease renewed)
    kLostClaim,       ///< journal lost the claim's tail; the claim is forfeit
    kOrphanReleased,  ///< recovered holding has no live claimant; released
    kExcessReleased,  ///< recovered holding exceeds the claim; excess released
    kRpcFailed,       ///< re-sync RPC lost; left to lease grace / next pass
  };

  struct ReconcileEvent {
    ReconcileResolution resolution = ReconcileResolution::kConfirmed;
    SessionId session;
    double claimed = 0.0;  ///< what the session believes it holds
    double held = 0.0;     ///< what the recovered broker holds
  };

  struct ReconcileReport {
    ResourceId resource;
    std::vector<ReconcileEvent> events;
    std::size_t confirmed = 0;
    std::size_t lost_claims = 0;
    std::size_t orphans_released = 0;
    std::size_t excess_released = 0;
    std::size_t rpc_failures = 0;
  };

  /// Re-sync protocol after `resource`'s broker restarted: every live
  /// claimant re-asserts its holding (one ReconcileRequest from its owner
  /// host to the broker's host, subject to the attached transport), and
  /// divergences between the claims and the journal-recovered broker
  /// state are resolved toward the journal:
  ///   * claim == recovered holding: confirmed; in lease mode the
  ///     re-assertion renews the lease;
  ///   * claim > recovered holding (crash lost the journal tail): the
  ///     difference is forfeit (kLostClaim) — the caller drops it from
  ///     the session's books and may re-reserve via establish;
  ///   * recovered holding with no (or a smaller) live claim — the
  ///     session died or tore down during the outage: the orphan amount
  ///     is released at the broker (one coordinator-to-broker-host RPC);
  ///   * any re-sync RPC that never gets through leaves that holding
  ///     untouched, protected by the restart lease grace until a later
  ///     pass or expiry reclaims it.
  /// The caller folds each event into the ReservationAuditor (typed
  /// Discrepancy records) so conservation stays exact. The broker must be
  /// a leaf and up.
  ReconcileReport reconcile_broker(ResourceId resource, double now,
                                   const std::vector<ReconcileClaim>& claims);

 private:
  /// The attached channel, or the loopback's (created here on first use).
  rpc::RpcChannel& channel();

  /// Phase 1: polls every remote participating proxy once (one
  /// QueryRequest per owner host) and observes main-local resources
  /// directly, so each broker is observed exactly once. Down footprint
  /// resources are reported at zero availability (the planner routes
  /// around them) and appended to snapshot->down in footprint order;
  /// resources of unreachable owners, and `dead` ones, are pinned at zero.
  void observe_footprint(double now,
                         const std::function<double(ResourceId)>& staleness,
                         const std::vector<ResourceId>& dead,
                         PlanningSnapshot* snapshot);

  /// One snapshot + plan + dispatch round of establish(), dispatching up
  /// to `fallback_attempts` plans; `dead` resources are pinned at zero.
  EstablishResult establish_round(
      SessionId session, double now, const IPlanner& planner, Rng& rng,
      double scale, const std::function<double(ResourceId)>& staleness,
      const std::vector<ResourceId>& dead, std::size_t fallback_attempts);

  /// All-or-nothing phase-3 dispatch of `amounts`: on success the
  /// reserved pairs land in `reserved`; on the first failed dispatch
  /// result->outcome / failed_resource are typed, everything reserved so
  /// far is rolled back (undeliverable releases land in result->leaked)
  /// and false is returned.
  bool reserve_all(const ResourceVector& amounts, SessionId session,
                   double now, EstablishResult* result,
                   std::vector<std::pair<ResourceId, double>>* reserved);

  /// One ReserveRequest for `amount` of `id`: kOk, kAdmission (the broker
  /// refused), kBrokerUnavailable (the broker is down) or kUnreachable
  /// (the owner, or its reply, never got through).
  EstablishOutcome dispatch_reserve(ResourceId id, double now,
                                    SessionId session, double amount,
                                    CoordinationStats* stats);

  /// One ReleaseRequest (rollback, excess release, teardown). False = the
  /// release could not be delivered (the holding leaks to lease expiry /
  /// reconciliation). `stats` may be null.
  bool dispatch_release(ResourceId id, double now, SessionId session,
                        double amount, CoordinationStats* stats);

  /// Counts one routed call's transport cost into `stats` (may be null);
  /// false when the call never produced a usable reply — including a
  /// redirect chain that did not converge, whose hint the directory
  /// learns so the next attempt routes to the new primary.
  bool routed_ok(ResourceId id, const rpc::RoutedResult& routed,
                 CoordinationStats* stats);

  /// The absolute deadline for an RPC issued at `now`.
  double rpc_deadline(double now) const;

  /// Routing for `id`: the replication directory's primary (writing its
  /// epoch into *epoch) when one is known, else the catalog owner, else
  /// the main host.
  HostId route_for(ResourceId id, std::uint64_t* epoch) const;

  const ServiceDefinition* service_;
  std::vector<ResourceId> footprint_;
  BrokerRegistry* registry_;
  PsiKind psi_kind_;
  std::size_t participating_proxies_ = 1;  ///< distinct component hosts
  std::unique_ptr<rpc::BrokerService> loopback_;  ///< when none attached
  std::unique_ptr<rpc::RpcChannel> channel_;
  HostId main_host_;
  double rpc_deadline_budget_ = rpc::RpcChannel::kNoDeadline;
  double lease_ = 0.0;  ///< 0 = permanent reservations
  const IAdmissionGovernor* governor_ = nullptr;
  int priority_hint_ = 0;
  ReplicationDirectory* directory_ = nullptr;
};

const char* to_string(SessionCoordinator::ReconcileResolution
                          resolution) noexcept;

}  // namespace qres
