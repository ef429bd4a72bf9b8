#include "failover_fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "broker/journal.hpp"
#include "broker/replication.hpp"
#include "util/rng.hpp"

namespace qres::fuzz {
namespace {

constexpr double kEps = 1e-9;
constexpr int kSessions = 4;

SessionId session_id(int index) {
  return SessionId{201 + static_cast<std::uint32_t>(index)};
}

/// In-process shipping that can be partitioned (drops everything) and is
/// flaky even when healed (drops a batch with probability `drop_rate`),
/// so the primary's rewind/retry paths are exercised on every run.
class FlakyTransport final : public IShipTransport {
 public:
  FlakyTransport(ReplicatedBroker* group, Rng* rng, double drop_rate)
      : group_(group), rng_(rng), drop_rate_(drop_rate) {}

  std::optional<ShipAckInfo> ship(HostId to, const ShipBatch& batch,
                                  double now) override {
    if (partitioned || rng_->bernoulli(drop_rate_)) return std::nullopt;
    return group_->apply_ship(to, batch, now);
  }

  bool partitioned = false;
  double drop_rate() const noexcept { return drop_rate_; }
  void set_drop_rate(double rate) noexcept { drop_rate_ = rate; }

 private:
  ReplicatedBroker* group_;
  Rng* rng_;
  double drop_rate_;
};

/// What the "client side" believes about one session: `confirmed` is the
/// amount the group acknowledged; `durable` the portion known to be
/// quorum-held (== confirmed in sync mode; advanced at quorum-met flushes
/// in async mode). Durable amounts must survive every failover.
struct SessionModel {
  double confirmed = 0.0;
  double durable = 0.0;
};

struct World {
  std::unique_ptr<ReplicatedBroker> group;
  std::unique_ptr<FlakyTransport> transport;
  std::vector<HostId> hosts;
  std::vector<SessionModel> sessions;
  double capacity = 1.0;
  double now = 0.0;
};

std::string seed_msg(std::uint64_t seed, const std::string& what) {
  std::ostringstream out;
  out << "seed " << seed << ": " << what;
  return out.str();
}

std::size_t down_count(const World& w) {
  std::size_t down = 0;
  for (HostId host : w.hosts)
    if (!w.group->replica_up(host)) ++down;
  return down;
}

/// Invariants that must hold after every single operation.
std::string check_step_invariants(const World& w, std::uint64_t seed) {
  int live_primaries = 0;
  for (HostId host : w.hosts)
    if (w.group->role_of(host) == ReplicaRole::kPrimary &&
        w.group->replica_up(host))
      ++live_primaries;
  if (live_primaries > 1)
    return seed_msg(seed, "split-brain: " + std::to_string(live_primaries) +
                              " live primaries");
  if (w.group->up()) {
    double held = 0.0;
    for (int s = 0; s < kSessions; ++s)
      held += w.group->held_by(session_id(s));
    const double reserved = w.capacity - w.group->available();
    if (std::fabs(reserved - held) > kEps)
      return seed_msg(seed, "primary conservation broke: reserved " +
                                std::to_string(reserved) + " vs held " +
                                std::to_string(held));
  }
  return "";
}

/// Durable grants must be held by whoever serves after a failover.
std::string check_durability(const World& w, std::uint64_t seed,
                             FailoverFuzzStats* stats) {
  if (!w.group->up()) return "";
  ++stats->durability_checks;
  for (int s = 0; s < kSessions; ++s) {
    const double held = w.group->held_by(session_id(s));
    const double durable = w.sessions[static_cast<std::size_t>(s)].durable;
    if (held + kEps < durable)
      return seed_msg(seed, "durable grant lost after failover: session " +
                                std::to_string(s) + " holds " +
                                std::to_string(held) + " < durable " +
                                std::to_string(durable));
  }
  return "";
}

void mark_durable(World* w) {
  for (SessionModel& s : w->sessions) s.durable = s.confirmed;
}

/// The coordinator's candidate rule: most-caught-up up standby,
/// earliest-host tie-break.
HostId best_candidate(const World& w) {
  HostId candidate;
  std::uint64_t best = 0;
  for (HostId host : w.hosts) {
    if (w.group->role_of(host) != ReplicaRole::kStandby ||
        !w.group->replica_up(host))
      continue;
    const std::uint64_t mark = w.group->watermark_of(host);
    if (!candidate.valid() || mark > best) {
      candidate = host;
      best = mark;
    }
  }
  return candidate;
}

/// Builds the group into `w` and drives it through the schedule `rng`
/// draws; returns the first oracle failure (tagged with `seed`) or "".
std::string drive_group(std::uint64_t seed, Rng& rng,
                        FailoverFuzzStats* stats, World& w) {
  const std::size_t replicas = rng.bernoulli(0.25) ? 5 : 3;
  for (std::size_t i = 0; i < replicas; ++i)
    w.hosts.push_back(HostId{static_cast<std::uint32_t>(10 + i)});
  ReplicationConfig config;
  config.mode =
      rng.bernoulli(0.5) ? ReplicationMode::kSync : ReplicationMode::kAsync;
  config.quorum = 0;  // majority
  config.fencing = true;
  config.max_async_lag = static_cast<std::size_t>(rng.uniform_int(1, 6));
  config.ship_batch_max = static_cast<std::size_t>(rng.uniform_int(1, 8));
  config.snapshot_every = static_cast<std::size_t>(rng.uniform_int(8, 64));
  w.group = std::make_unique<ReplicatedBroker>(
      ResourceId{7}, "fuzz-failover", w.capacity, w.hosts, config);
  w.transport = std::make_unique<FlakyTransport>(w.group.get(), &rng,
                                                 rng.uniform(0.0, 0.25));
  w.group->set_transport(w.transport.get());
  w.sessions.assign(kSessions, SessionModel{});
  const bool sync = config.mode == ReplicationMode::kSync;
  // A durable record is held by some majority; as long as fewer than
  // (replicas - quorum + 1) replicas are ever down at once, a live
  // holder always exists and promotion (which refuses lagging
  // candidates) cannot lose it. The schedule stays inside that bound —
  // the regime the durability guarantee is defined for.
  const std::size_t max_down = replicas - w.group->quorum();

  const int ops = rng.uniform_int(40, 80);
  for (int op = 0; op < ops; ++op) {
    w.now += rng.uniform(0.1, 1.0);
    const int pick = rng.uniform_int(0, 99);
    if (pick < 40) {  // grant
      const int s = rng.uniform_int(0, kSessions - 1);
      const double amount = rng.uniform(0.05, 0.3);
      ++stats->grants_attempted;
      if (w.group->reserve(w.now, session_id(s), amount)) {
        ++stats->grants_confirmed;
        SessionModel& m = w.sessions[static_cast<std::size_t>(s)];
        m.confirmed += amount;
        if (sync) m.durable = m.confirmed;
      } else {
        ++stats->grants_refused;
      }
    } else if (pick < 52) {  // release
      const int s = rng.uniform_int(0, kSessions - 1);
      if (w.group->up()) {
        w.group->release(w.now, session_id(s));
        ++stats->releases;
        SessionModel& m = w.sessions[static_cast<std::size_t>(s)];
        m.confirmed = 0.0;
        m.durable = 0.0;
      }
    } else if (pick < 60) {  // crash
      if (down_count(w) < max_down) {
        std::vector<HostId> up;
        for (HostId host : w.hosts)
          if (w.group->replica_up(host)) up.push_back(host);
        if (!up.empty()) {
          const HostId victim = up[rng.uniform_u64(0, up.size() - 1)];
          w.group->crash_replica(victim, w.now);
          ++stats->crashes;
        }
      }
    } else if (pick < 72) {  // restart
      std::vector<HostId> down;
      for (HostId host : w.hosts)
        if (!w.group->replica_up(host)) down.push_back(host);
      if (!down.empty()) {
        const HostId riser = down[rng.uniform_u64(0, down.size() - 1)];
        w.group->restart_replica(riser, w.now);
        ++stats->restarts;
      }
    } else if (pick < 80) {  // promote (only once the group is headless)
      if (!w.group->primary_host().valid()) {
        const HostId candidate = best_candidate(w);
        if (candidate.valid()) {
          // A lagging candidate must be refused while a live standby is
          // more caught up — probe one before the real promotion.
          for (HostId host : w.hosts) {
            if (host == candidate ||
                w.group->role_of(host) != ReplicaRole::kStandby ||
                !w.group->replica_up(host))
              continue;
            if (w.group->watermark_of(host) <
                w.group->watermark_of(candidate)) {
              if (w.group->promote(host, w.group->next_epoch(), w.now))
                return seed_msg(seed, "lagging candidate was promoted past "
                                      "a live caught-up standby");
              ++stats->promote_refused;
              break;
            }
          }
          if (!w.group->promote(candidate, w.group->next_epoch(), w.now))
            return seed_msg(seed, "most-caught-up candidate refused");
          ++stats->promotions;
          const std::string lost = check_durability(w, seed, stats);
          if (!lost.empty()) return lost;
          // Re-home the client model: async grants inside the lag window
          // (and releases that never shipped) are legitimately absent at
          // the new primary — confirmed re-syncs, durable never grows.
          for (int s = 0; s < kSessions; ++s) {
            SessionModel& m = w.sessions[static_cast<std::size_t>(s)];
            m.confirmed = w.group->held_by(session_id(s));
            m.durable = std::min(m.durable, m.confirmed);
          }
        }
      }
    } else if (pick < 88) {  // partition toggle
      w.transport->partitioned = !w.transport->partitioned;
      if (w.transport->partitioned) ++stats->partitions;
    } else {  // flush tick
      if (w.group->up() && w.group->flush(w.now)) mark_durable(&w);
    }
    // Fencing probe: a non-primary replica never grants.
    if (rng.bernoulli(0.15)) {
      const HostId primary = w.group->primary_host();
      for (HostId host : w.hosts) {
        if (host == primary || !w.group->replica_up(host)) continue;
        if (w.group->reserve_at(host, w.now, session_id(0), 0.01))
          return seed_msg(seed, "non-primary replica granted");
        break;
      }
    }
    const std::string broke = check_step_invariants(w, seed);
    if (!broke.empty()) return broke;
  }

  // Final phase: heal, bring everyone back, ship everything, and prove
  // convergence + recovery bit-identity.
  w.transport->partitioned = false;
  w.transport->set_drop_rate(0.0);
  for (HostId host : w.hosts) {
    if (!w.group->replica_up(host)) {
      w.now += 0.5;
      w.group->restart_replica(host, w.now);
      ++stats->restarts;
    }
  }
  if (!w.group->up())
    return seed_msg(seed, "group headless after restarting every replica");
  // A single flush ships until each standby acks or refuses; a gap
  // refusal rewinds and needs another round, so give it a few.
  for (int round = 0; round < 8; ++round) {
    w.now += 0.5;
    if (w.group->flush(w.now)) mark_durable(&w);
  }
  const std::string lost = check_durability(w, seed, stats);
  if (!lost.empty()) return lost;

  const HostId primary = w.group->primary_host();
  const std::uint64_t primary_mark = w.group->watermark_of(primary);
  for (HostId host : w.hosts) {
    if (host == primary || w.group->role_of(host) != ReplicaRole::kStandby)
      continue;
    if (w.group->watermark_of(host) != primary_mark)
      return seed_msg(seed, "standby not caught up after lossless flush");
    ++stats->convergence_checks;
    const ResourceBroker& shadow = w.group->replica_broker(host);
    const ResourceBroker& lead = w.group->replica_broker(primary);
    if (std::fabs(shadow.available() - lead.available()) > kEps)
      return seed_msg(seed, "converged standby disagrees on available");
    for (int s = 0; s < kSessions; ++s)
      if (std::fabs(shadow.held_by(session_id(s)) -
                    lead.held_by(session_id(s))) > kEps)
        return seed_msg(seed, "converged standby disagrees on a holding");
  }

  // The serving primary's journal must rebuild it exactly (same proof
  // crash_fuzz runs for leaf brokers, here across promotions).
  const std::vector<JournalRecord> records =
      w.group->primary_journal_records();
  if (records.empty()) return seed_msg(seed, "primary journal empty");
  ResourceBroker rebuilt = ResourceBroker::recover(records);
  ++stats->recoveries_checked;
  if (to_line(rebuilt.snapshot(w.now)) !=
      to_line(w.group->primary_snapshot(w.now)))
    return seed_msg(seed, "recover() diverged from the serving primary");
  return "";
}

}  // namespace

std::string run_failover_iteration(std::uint64_t seed,
                                   FailoverFuzzStats* stats) {
  Rng rng(seed);  // outlives w: w.transport draws from it
  World w;
  const std::string verdict = drive_group(seed, rng, stats, w);
  // Shipping totals count failing iterations too.
  const ReplicationStats& gs = w.group->stats();
  stats->ship_batches += gs.ship_batches;
  stats->ship_lost += gs.ship_lost;
  stats->quorum_failures += gs.quorum_failures;
  stats->truncated_records += gs.truncated_records;
  return verdict;
}

}  // namespace qres::fuzz
