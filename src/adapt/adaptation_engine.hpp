// Graceful-degradation adaptation engine (DESIGN.md §8).
//
// Sits on top of SessionCoordinator and reacts to the ContentionMonitor's
// watchdog per live session:
//
//   * downgrade — when a session holds a *contended* resource and can
//     still degrade, renegotiate it make-before-break onto the tradeoff
//     planner's choice at a strictly worse end-to-end rank (the
//     multiplicative-decrease half of AIMD: the tradeoff policy's
//     alpha-scaled psi bound drops the session as far as the trend
//     demands, not one rank at a time);
//   * upgrade — when the environment is calm again, probe one rank up
//     (additive increase), rate-limited by a per-session cooldown;
//   * priority shedding — an admission that fails on capacity may, if the
//     arriving session outranks someone, shed the lowest-priority holder
//     of the contested resource: downgrade-to-worst first, evict as the
//     last resort;
//   * overload governance — a ContentionGovernor plugged into the
//     coordinator fast-rejects low-priority admissions (kOverload) while
//     the bottleneck EWMA alpha is below the reject threshold.
//
// Every transition is make-before-break (SessionCoordinator::renegotiate):
// the engine's per-session holdings *floor* — what the broker must hold
// for the session at minimum, at every instant, even mid-transition and
// under control-plane faults — moves only at the renegotiation commit
// point. The fuzz harness (tests/fuzz/adapt_fuzz) audits broker state
// against this floor from inside the transport, i.e. in the middle of the
// make/break windows, and the ReservationAuditor proves conservation of
// every unit the engine touched.
//
// With `enabled = false` the engine never samples a broker and never
// renegotiates — admissions pass straight through to the coordinator, so
// a disabled-engine run is bit-identical to a plain one (fuzzed).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "adapt/contention_monitor.hpp"
#include "adapt/stats.hpp"
#include "broker/auditor.hpp"
#include "core/planner.hpp"
#include "proxy/qos_proxy.hpp"
#include "util/flat_map.hpp"

namespace qres::adapt {

/// Session importance for shedding and overload governance. Higher values
/// outrank lower ones; only strictly lower-priority sessions may be shed
/// to admit a session, and the governor only fast-rejects priorities
/// below its protection threshold.
enum class SessionPriority : int {
  kBackground = 0,
  kStandard = 1,
  kCritical = 2,
};

const char* to_string(SessionPriority priority) noexcept;

/// Overload-aware admission governor: while the watchdog's bottleneck
/// EWMA alpha is below `alpha_reject`, establishments with priority below
/// `protect_priority` are rejected fast (kOverload) instead of churning
/// the brokers with plan/reserve/rollback rounds they would lose anyway.
class ContentionGovernor final : public IAdmissionGovernor {
 public:
  ContentionGovernor(const ContentionMonitor* monitor,
                     double alpha_reject = 0.7,
                     int protect_priority =
                         static_cast<int>(SessionPriority::kStandard));

  bool should_reject(double now, int priority) const override;

  double alpha_reject() const noexcept { return alpha_reject_; }
  int protect_priority() const noexcept { return protect_priority_; }

 private:
  const ContentionMonitor* monitor_;
  double alpha_reject_;
  int protect_priority_;
};

struct EngineConfig {
  /// Master switch: disabled, the engine is a transparent pass-through to
  /// the coordinator (bit-identical to not having an engine at all).
  bool enabled = true;
  /// Minimum time between upgrade probes of one session (AIMD additive
  /// increase is deliberately slow; downgrades are never rate-limited).
  double upgrade_cooldown = 10.0;
  /// Highest-priority admissions may shed at most this many victims per
  /// attempt before giving up.
  std::size_t max_preemptions_per_admit = 4;
  /// Allows priority shedding at admission (the "+priorities" bench arm;
  /// off, admissions fail exactly like the plain coordinator's).
  bool allow_preemption = true;
  /// Runs the watchdog pass as pure make-before-break upgrade probing:
  /// contention state is ignored entirely — no downgrades, no calm gate
  /// on upgrades. For environments where graceful degradation is out of
  /// scope and only the renegotiation mechanism is under study
  /// (ext_renegotiation's engine arm).
  bool upgrade_only = false;
};

/// One live session as the engine tracks it.
struct SessionRecord {
  SessionPriority priority = SessionPriority::kStandard;
  double scale = 1.0;
  std::size_t rank = 0;       ///< current end-to-end rank (0 = best)
  std::size_t num_ranks = 1;  ///< sink count; worst rank is num_ranks - 1
  double admitted_at = 0.0;
  double last_upgrade_try = -1e300;
  /// The engine's book of what the brokers hold for this session —
  /// including reservations stuck on unreachable proxies (leaked rollback
  /// releases), folded in so the book always matches broker state.
  std::vector<std::pair<ResourceId, double>> holdings;
};

/// Adaptation decision log entry (dumped by `qresctl contention`).
struct AdaptationEvent {
  enum class Kind : std::uint8_t {
    kAdmit,
    kOverloadReject,
    kUpgrade,
    kDowngrade,
    kMbbAbort,          ///< renegotiation aborted; old plan kept
    kPreemptDowngrade,  ///< victim shed to worst rank for an admission
    kEvict,             ///< victim torn down for an admission
    kDepart,
  };
  Kind kind;
  double time = 0.0;
  SessionId session;
  std::size_t old_rank = 0;
  std::size_t new_rank = 0;
};

const char* to_string(AdaptationEvent::Kind kind) noexcept;

class AdaptationEngine {
 public:
  /// `admit_planner` establishes and probes upgrades (the basic
  /// psi-minimal algorithm in the benches); `degrade_planner` handles
  /// watchdog downgrades and shedding (the §4.3.1 tradeoff policy, whose
  /// alpha-scaled bound is the multiplicative-decrease control law). All
  /// pointers must outlive the engine.
  AdaptationEngine(SessionCoordinator* coordinator,
                   ContentionMonitor* monitor, const IPlanner* admit_planner,
                   const IPlanner* degrade_planner, EngineConfig config = {});

  /// Attaches the conservation auditor: every broker-state change the
  /// engine initiates is mirrored into the model as it happens.
  void set_auditor(ReservationAuditor* auditor) { auditor_ = auditor; }

  /// Fired after a committed rank change (old rank, new rank).
  std::function<void(SessionId, std::size_t, std::size_t)> on_rank_changed;
  /// Fired after a session is evicted by priority shedding.
  std::function<void(SessionId)> on_evicted;

  /// Admits `session` through the coordinator (governor consulted there).
  /// On a capacity rejection, `allow_preemption` and a priority above
  /// kBackground shed lower-priority holders of the contested resource
  /// and retry. On success the session is tracked for adaptation.
  EstablishResult admit(SessionId session, double now,
                        SessionPriority priority, double scale, Rng& rng);

  /// Tears the session down and forgets it (no-op when not live, so
  /// departure races eviction idempotently).
  void depart(SessionId session, double now);

  /// One watchdog pass: sample the monitor, then AIMD-adapt every live
  /// session in deterministic (session-id) order. Never runs disabled.
  void tick(double now, Rng& rng);

  bool live(SessionId session) const { return sessions_.contains(session); }
  const SessionRecord* record(SessionId session) const;
  std::size_t live_count() const noexcept { return sessions_.size(); }
  const FlatMap<SessionId, SessionRecord>& sessions() const noexcept {
    return sessions_;
  }

  /// The make-before-break floor: per live session, the per-resource
  /// amounts its brokers are guaranteed to hold at this very instant,
  /// valid *during* renegotiations (it moves only at commit points).
  /// Null for sessions the engine does not track.
  const FlatMap<ResourceId, double>* floor(SessionId session) const;

  /// Reservations stranded by failed admissions whose rollback release,
  /// or by departures and evictions whose teardown release, could not be
  /// dispatched (the owning proxy was unreachable). They stay held on the
  /// brokers — leased runs reclaim them by expiry; release_zombies()
  /// retries the releases, settles the auditor's book for each one
  /// delivered and keeps the rest. Returns the number of holdings
  /// released.
  struct ZombieHolding {
    SessionId session;
    ResourceId resource;
    double amount = 0.0;
  };
  const std::vector<ZombieHolding>& zombies() const noexcept {
    return zombies_;
  }
  std::size_t release_zombies(double now);

  const AdaptationStats& stats() const noexcept { return stats_; }
  const std::vector<AdaptationEvent>& events() const noexcept {
    return events_;
  }
  const ContentionMonitor& monitor() const noexcept { return *monitor_; }
  const EngineConfig& config() const noexcept { return config_; }

 private:
  /// Renegotiates one tracked session make-before-break and reconciles
  /// the record, the floor and the auditor with whatever happened
  /// (committed transition, abort, leaked deltas). Returns success.
  bool renegotiate_session(SessionId id, SessionRecord& rec, double now,
                           const IPlanner& planner, std::size_t min_rank,
                           Rng& rng);

  /// Lowest-priority (then lowest-id) live session below `max_priority`
  /// holding `contested`; invalid id when nobody qualifies.
  SessionId pick_victim(ResourceId contested, SessionPriority max_priority)
      const;

  /// Sheds one victim: downgrade-to-worst when it still has ranks to
  /// give, eviction otherwise. Returns false when shedding failed (the
  /// victim could not be moved or released).
  bool shed_one(SessionId victim, double now, Rng& rng);

  /// Tears a session's holdings down; releases the control plane could
  /// not deliver stay held and become zombies (the auditor keeps them).
  void release_session(
      SessionId session,
      const std::vector<std::pair<ResourceId, double>>& holdings,
      double now);

  /// Applies the auditor delta between two holdings books of a session.
  void audit_transition(
      SessionId id, const std::vector<std::pair<ResourceId, double>>& before,
      const std::vector<std::pair<ResourceId, double>>& after);

  void push_event(AdaptationEvent::Kind kind, double time, SessionId session,
                  std::size_t old_rank, std::size_t new_rank);

  SessionCoordinator* coordinator_;
  ContentionMonitor* monitor_;
  const IPlanner* admit_planner_;
  const IPlanner* degrade_planner_;
  EngineConfig config_;
  ReservationAuditor* auditor_ = nullptr;
  FlatMap<SessionId, SessionRecord> sessions_;
  FlatMap<SessionId, FlatMap<ResourceId, double>> floors_;
  std::vector<ZombieHolding> zombies_;
  AdaptationStats stats_;
  std::vector<AdaptationEvent> events_;
};

}  // namespace qres::adapt
