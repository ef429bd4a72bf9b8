#include "adapt/adaptation_engine.hpp"

#include "util/assert.hpp"

namespace qres::adapt {
namespace {
constexpr double kEps = 1e-9;
}  // namespace

const char* to_string(SessionPriority priority) noexcept {
  switch (priority) {
    case SessionPriority::kBackground: return "background";
    case SessionPriority::kStandard: return "standard";
    case SessionPriority::kCritical: return "critical";
  }
  return "?";
}

const char* to_string(AdaptationEvent::Kind kind) noexcept {
  switch (kind) {
    case AdaptationEvent::Kind::kAdmit: return "admit";
    case AdaptationEvent::Kind::kOverloadReject: return "overload-reject";
    case AdaptationEvent::Kind::kUpgrade: return "upgrade";
    case AdaptationEvent::Kind::kDowngrade: return "downgrade";
    case AdaptationEvent::Kind::kMbbAbort: return "mbb-abort";
    case AdaptationEvent::Kind::kPreemptDowngrade: return "preempt-downgrade";
    case AdaptationEvent::Kind::kEvict: return "evict";
    case AdaptationEvent::Kind::kDepart: return "depart";
  }
  return "?";
}

ContentionGovernor::ContentionGovernor(const ContentionMonitor* monitor,
                                       double alpha_reject,
                                       int protect_priority)
    : monitor_(monitor),
      alpha_reject_(alpha_reject),
      protect_priority_(protect_priority) {
  QRES_REQUIRE(monitor != nullptr, "ContentionGovernor: null monitor");
  QRES_REQUIRE(alpha_reject > 0.0 && alpha_reject <= 1.0,
               "ContentionGovernor: alpha_reject must be in (0, 1]");
}

bool ContentionGovernor::should_reject(double /*now*/, int priority) const {
  return priority < protect_priority_ &&
         monitor_->bottleneck_ewma() < alpha_reject_;
}

AdaptationEngine::AdaptationEngine(SessionCoordinator* coordinator,
                                   ContentionMonitor* monitor,
                                   const IPlanner* admit_planner,
                                   const IPlanner* degrade_planner,
                                   EngineConfig config)
    : coordinator_(coordinator),
      monitor_(monitor),
      admit_planner_(admit_planner),
      degrade_planner_(degrade_planner),
      config_(config) {
  QRES_REQUIRE(coordinator != nullptr, "AdaptationEngine: null coordinator");
  QRES_REQUIRE(monitor != nullptr, "AdaptationEngine: null monitor");
  QRES_REQUIRE(admit_planner != nullptr && degrade_planner != nullptr,
               "AdaptationEngine: null planner");
  QRES_REQUIRE(config_.upgrade_cooldown >= 0.0,
               "AdaptationEngine: negative upgrade cooldown");
}

const SessionRecord* AdaptationEngine::record(SessionId session) const {
  const auto it = sessions_.find(session);
  return it == sessions_.end() ? nullptr : &it->second;
}

const FlatMap<ResourceId, double>* AdaptationEngine::floor(
    SessionId session) const {
  const auto it = floors_.find(session);
  return it == floors_.end() ? nullptr : &it->second;
}

void AdaptationEngine::push_event(AdaptationEvent::Kind kind, double time,
                                  SessionId session, std::size_t old_rank,
                                  std::size_t new_rank) {
  events_.push_back({kind, time, session, old_rank, new_rank});
}

void AdaptationEngine::audit_transition(
    SessionId id, const std::vector<std::pair<ResourceId, double>>& before,
    const std::vector<std::pair<ResourceId, double>>& after) {
  if (!auditor_) return;
  FlatMap<ResourceId, double> b;
  FlatMap<ResourceId, double> a;
  for (const auto& [res, amt] : before) b[res] += amt;
  for (const auto& [res, amt] : after) a[res] += amt;
  for (const auto& [res, amt] : a) {
    const auto it = b.find(res);
    const double had = it == b.end() ? 0.0 : it->second;
    if (amt - had > kEps) auditor_->on_reserved(id, res, amt - had);
  }
  for (const auto& [res, amt] : b) {
    const auto it = a.find(res);
    const double have = it == a.end() ? 0.0 : it->second;
    if (amt - have > kEps) auditor_->on_released(id, res, amt - have);
  }
}

bool AdaptationEngine::renegotiate_session(SessionId id, SessionRecord& rec,
                                           double now,
                                           const IPlanner& planner,
                                           std::size_t min_rank, Rng& rng) {
  const std::vector<std::pair<ResourceId, double>> before = rec.holdings;
  EstablishResult r = coordinator_->renegotiate(
      id, now, planner, rng, rec.scale, rec.holdings, min_rank, nullptr,
      [this, id](const std::vector<std::pair<ResourceId, double>>&
                     committed) {
        // Commit point: every delta reserved, nothing released yet. The
        // session's guaranteed floor switches from the old plan to the
        // new one at this very instant.
        FlatMap<ResourceId, double>& floor = floors_[id];
        floor.clear();
        for (const auto& [res, amt] : committed)
          floor.insert_or_assign(res, amt);
      });
  if (r.success) {
    rec.rank = r.plan->end_to_end_rank;
    rec.holdings = r.holdings;
    audit_transition(id, before, rec.holdings);
    return true;
  }
  // Abort: the old plan stands (and so does the old floor). Delta
  // reservations whose rollback release could not be dispatched stay
  // held; fold them into the book so it keeps matching the broker.
  if (!r.leaked.empty()) {
    FlatMap<ResourceId, double> book;
    for (const auto& [res, amt] : rec.holdings) book[res] += amt;
    for (const auto& [res, amt] : r.leaked) book[res] += amt;
    std::vector<std::pair<ResourceId, double>> after(book.begin(),
                                                     book.end());
    audit_transition(id, before, after);
    rec.holdings = std::move(after);
  }
  return false;
}

SessionId AdaptationEngine::pick_victim(ResourceId contested,
                                        SessionPriority max_priority) const {
  SessionId best;
  SessionPriority best_priority = max_priority;
  for (const auto& [id, rec] : sessions_) {
    if (rec.priority >= max_priority) continue;
    // An invalid contested id (kNoPlan: saturation without a named
    // resource) lets any lower-priority holder qualify.
    bool holds = !contested.valid();
    for (const auto& [res, amt] : rec.holdings)
      if (res == contested && amt > kEps) {
        holds = true;
        break;
      }
    if (!holds) continue;
    if (!best.valid() || rec.priority < best_priority) {
      best = id;
      best_priority = rec.priority;
    }
  }
  return best;
}

bool AdaptationEngine::shed_one(SessionId victim, double now, Rng& rng) {
  auto it = sessions_.find(victim);
  QRES_REQUIRE(it != sessions_.end(), "shed_one: victim is not live");
  SessionRecord& rec = it->second;
  // Graceful first: push the victim to the worst end-to-end rank, which
  // frees the difference without killing it.
  if (rec.rank + 1 < rec.num_ranks) {
    const std::size_t old_rank = rec.rank;
    if (renegotiate_session(victim, rec, now, *degrade_planner_,
                            rec.num_ranks - 1, rng)) {
      ++stats_.preempt_downgrades;
      push_event(AdaptationEvent::Kind::kPreemptDowngrade, now, victim,
                 old_rank, rec.rank);
      if (on_rank_changed) on_rank_changed(victim, old_rank, rec.rank);
      return true;
    }
  }
  // Last resort: evict. The victim's floor goes first: its teardown
  // releases are RPCs, and mid-teardown it no longer holds its plan.
  floors_.erase(victim);
  release_session(victim, rec.holdings, now);
  ++stats_.preemptions;
  push_event(AdaptationEvent::Kind::kEvict, now, victim, rec.rank, rec.rank);
  sessions_.erase(victim);
  if (on_evicted) on_evicted(victim);
  return true;
}

EstablishResult AdaptationEngine::admit(SessionId session, double now,
                                        SessionPriority priority,
                                        double scale, Rng& rng) {
  QRES_REQUIRE(session.valid(), "AdaptationEngine::admit: invalid session");
  QRES_REQUIRE(!live(session),
               "AdaptationEngine::admit: session already live");
  coordinator_->set_priority_hint(static_cast<int>(priority));
  FlatMap<ResourceId, double> leaked_book;
  const auto track_leaks = [&](const EstablishResult& r) {
    for (const auto& [res, amt] : r.leaked) {
      leaked_book[res] += amt;
      if (auditor_) auditor_->on_reserved(session, res, amt);
    }
  };

  EstablishResult result =
      coordinator_->establish(session, now, *admit_planner_, rng, scale);
  track_leaks(result);
  if (result.outcome == EstablishOutcome::kOverload) {
    ++stats_.overload_rejects;
    push_event(AdaptationEvent::Kind::kOverloadReject, now, session, 0, 0);
    return result;
  }

  // Priority shedding: a capacity rejection may displace strictly
  // lower-priority holders — downgrade first, evict as the last resort —
  // then retry, a bounded number of times. kAdmission names the
  // contested resource; kNoPlan (the usual face of saturation under
  // accurate observations) does not, so any holder qualifies then.
  if (config_.enabled && config_.allow_preemption &&
      priority > SessionPriority::kBackground) {
    std::size_t shed = 0;
    while (!result.success &&
           (result.outcome == EstablishOutcome::kAdmission ||
            result.outcome == EstablishOutcome::kNoPlan) &&
           shed < config_.max_preemptions_per_admit) {
      const SessionId victim = pick_victim(result.failed_resource, priority);
      if (!victim.valid() || !shed_one(victim, now, rng)) break;
      ++shed;
      result =
          coordinator_->establish(session, now, *admit_planner_, rng, scale);
      track_leaks(result);
    }
  }

  if (!result.success) {
    // Rollback releases stuck on unreachable proxies stay held by a
    // session that was never admitted; remember them for cleanup.
    for (const auto& [res, amt] : leaked_book)
      zombies_.push_back({session, res, amt});
    return result;
  }

  SessionRecord rec;
  rec.priority = priority;
  rec.scale = scale;
  rec.rank = result.plan->end_to_end_rank;
  rec.num_ranks = result.sinks.size();
  rec.admitted_at = now;
  rec.holdings = result.holdings;
  if (auditor_)
    for (const auto& [res, amt] : rec.holdings)
      auditor_->on_reserved(session, res, amt);
  FlatMap<ResourceId, double>& floor = floors_[session];
  floor.clear();
  for (const auto& [res, amt] : rec.holdings) floor[res] += amt;
  // Leaks from earlier failed attempts of this same admission belong to
  // this session too; fold them in so the final teardown settles them.
  if (!leaked_book.empty()) {
    FlatMap<ResourceId, double> book;
    for (const auto& [res, amt] : rec.holdings) book[res] += amt;
    for (const auto& [res, amt] : leaked_book) book[res] += amt;
    rec.holdings.assign(book.begin(), book.end());
  }
  push_event(AdaptationEvent::Kind::kAdmit, now, session, rec.rank,
             rec.rank);
  sessions_.insert_or_assign(session, std::move(rec));
  return result;
}

void AdaptationEngine::depart(SessionId session, double now) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  floors_.erase(session);  // see shed_one
  release_session(session, it->second.holdings, now);
  push_event(AdaptationEvent::Kind::kDepart, now, session, it->second.rank,
             it->second.rank);
  sessions_.erase(session);
}

void AdaptationEngine::release_session(
    SessionId session,
    const std::vector<std::pair<ResourceId, double>>& holdings, double now) {
  const auto undelivered = coordinator_->teardown(holdings, session, now);
  if (auditor_) auditor_->on_session_released(session);
  for (const auto& [res, amt] : undelivered) {
    zombies_.push_back({session, res, amt});
    if (auditor_) auditor_->on_reserved(session, res, amt);
  }
}

std::size_t AdaptationEngine::release_zombies(double now) {
  std::vector<ZombieHolding> pending;
  pending.swap(zombies_);
  std::size_t released = 0;
  for (const ZombieHolding& z : pending) {
    if (!coordinator_->teardown({{z.resource, z.amount}}, z.session, now)
             .empty()) {
      zombies_.push_back(z);
      continue;
    }
    if (auditor_) auditor_->on_released(z.session, z.resource, z.amount);
    ++released;
  }
  return released;
}

void AdaptationEngine::tick(double now, Rng& rng) {
  if (!config_.enabled) return;
  monitor_->sample(now);
  stats_.suppressed_flaps = monitor_->total_suppressed_flaps();
  const double calm_gate = monitor_->config().exit_contended;
  for (auto& [id, rec] : sessions_) {
    bool held_contended = false;
    if (!config_.upgrade_only)
      for (const auto& [res, amt] : rec.holdings)
        if (amt > kEps && monitor_->contended(res)) {
          held_contended = true;
          break;
        }
    if (held_contended && rec.rank + 1 < rec.num_ranks) {
      // Watchdog fired: multiplicative decrease. The tradeoff planner's
      // alpha-scaled psi bound decides how far to drop (min_rank only
      // forbids staying put or improving).
      ++stats_.downgrade_attempts;
      const std::size_t old_rank = rec.rank;
      if (renegotiate_session(id, rec, now, *degrade_planner_, rec.rank + 1,
                              rng)) {
        ++stats_.downgrades;
        push_event(AdaptationEvent::Kind::kDowngrade, now, id, old_rank,
                   rec.rank);
        if (on_rank_changed) on_rank_changed(id, old_rank, rec.rank);
      } else {
        ++stats_.mbb_aborts;
        push_event(AdaptationEvent::Kind::kMbbAbort, now, id, old_rank,
                   rec.rank);
      }
    } else if (!held_contended && rec.rank > 0 &&
               now - rec.last_upgrade_try >= config_.upgrade_cooldown &&
               (config_.upgrade_only ||
                monitor_->bottleneck_ewma() >= calm_gate)) {
      // Contention cleared: additive increase — probe exactly one rank
      // up, rate-limited per session. With its own holdings credited the
      // current plan stays feasible, so the probe commits either one
      // rank better or a no-op; it can regress only when a proxy died
      // since the last tick.
      rec.last_upgrade_try = now;
      ++stats_.upgrade_attempts;
      const std::size_t old_rank = rec.rank;
      if (renegotiate_session(id, rec, now, *admit_planner_, rec.rank - 1,
                              rng)) {
        if (rec.rank < old_rank) {
          ++stats_.upgrades;
          push_event(AdaptationEvent::Kind::kUpgrade, now, id, old_rank,
                     rec.rank);
          if (on_rank_changed) on_rank_changed(id, old_rank, rec.rank);
        } else if (rec.rank > old_rank) {
          ++stats_.downgrades;
          push_event(AdaptationEvent::Kind::kDowngrade, now, id, old_rank,
                     rec.rank);
          if (on_rank_changed) on_rank_changed(id, old_rank, rec.rank);
        }
      } else {
        ++stats_.mbb_aborts;
        push_event(AdaptationEvent::Kind::kMbbAbort, now, id, old_rank,
                   rec.rank);
      }
    }
  }
}

}  // namespace qres::adapt
