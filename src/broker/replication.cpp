#include "broker/replication.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace qres {

const char* to_string(ReplicationMode mode) noexcept {
  switch (mode) {
    case ReplicationMode::kSync: return "sync";
    case ReplicationMode::kAsync: return "async";
  }
  return "?";
}

const char* to_string(ReplicaRole role) noexcept {
  switch (role) {
    case ReplicaRole::kPrimary: return "primary";
    case ReplicaRole::kStandby: return "standby";
    case ReplicaRole::kFenced: return "fenced";
  }
  return "?";
}

const char* to_string(ShipAckCode code) noexcept {
  switch (code) {
    case ShipAckCode::kApplied: return "applied";
    case ShipAckCode::kGap: return "gap";
    case ShipAckCode::kFenced: return "fenced";
    case ShipAckCode::kDown: return "down";
  }
  return "?";
}

ReplicatedBroker::ReplicatedBroker(ResourceId id, std::string name,
                                   double capacity, std::vector<HostId> hosts,
                                   ReplicationConfig config,
                                   double alpha_window, double history_keep,
                                   AlphaMode alpha_mode)
    : id_(id),
      name_(std::move(name)),
      capacity_(capacity),
      config_(config),
      hosts_(std::move(hosts)) {
  QRES_REQUIRE(!hosts_.empty(), "ReplicatedBroker: no replica hosts");
  QRES_REQUIRE(config_.quorum <= hosts_.size(),
               "ReplicatedBroker: quorum exceeds replica count");
  QRES_REQUIRE(config_.ship_batch_max > 0 && config_.max_async_lag > 0,
               "ReplicatedBroker: malformed config");
  replicas_.reserve(hosts_.size());
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    Replica r;
    r.host = hosts_[i];
    r.store = std::make_unique<MemoryJournal>();
    r.sink = std::make_unique<CaptureSink>(r.store.get(), this, i,
                                           &ReplicatedBroker::on_capture);
    r.broker = std::make_unique<ResourceBroker>(
        id_, name_, capacity_, alpha_window, history_keep, alpha_mode);
    replicas_.push_back(std::move(r));
  }
  // Replica 0 starts as the primary in epoch 1; standbys adopt epochs as
  // shipped batches (or promotions) reach them.
  replicas_[0].role = ReplicaRole::kPrimary;
  replicas_[0].epoch = 1;
  // Attach after roles are set: the primary's initial snapshot becomes
  // ship record 0, so a standby's first catch-up starts from a
  // self-contained state. The standbys' own initial snapshots are local
  // only (their captures are ignored while they are not primary).
  for (Replica& r : replicas_)
    r.broker->attach_journal(r.sink.get(), config_.snapshot_every);
}

void ReplicatedBroker::on_capture(void* owner, std::size_t replica,
                                  const JournalRecord& record) {
  auto* self = static_cast<ReplicatedBroker*>(owner);
  Replica& r = self->replicas_[replica];
  // Only the authoritative primary ships. A deposed primary still in
  // kPrimary role (fencing off) journals locally — its divergence is
  // exactly the split-brain the model checker demonstrates — and a
  // standby's own restart markers/snapshots never enter the group log.
  if (r.role != ReplicaRole::kPrimary || r.epoch != self->epoch()) return;
  self->ship_log_.push_back(record);
  ++self->ship_next_;
  r.watermark = self->ship_next_;
}

ReplicatedBroker::Replica* ReplicatedBroker::find(HostId host) {
  for (Replica& r : replicas_)
    if (r.host == host) return &r;
  return nullptr;
}

const ReplicatedBroker::Replica* ReplicatedBroker::find(HostId host) const {
  for (const Replica& r : replicas_)
    if (r.host == host) return &r;
  return nullptr;
}

ReplicatedBroker::Replica* ReplicatedBroker::primary() {
  Replica* best = nullptr;
  for (Replica& r : replicas_)
    if (r.role == ReplicaRole::kPrimary &&
        (best == nullptr || r.epoch > best->epoch))
      best = &r;
  return best;
}

const ReplicatedBroker::Replica* ReplicatedBroker::primary() const {
  const Replica* best = nullptr;
  for (const Replica& r : replicas_)
    if (r.role == ReplicaRole::kPrimary &&
        (best == nullptr || r.epoch > best->epoch))
      best = &r;
  return best;
}

std::uint64_t ReplicatedBroker::epoch() const noexcept {
  std::uint64_t e = 0;
  for (const Replica& r : replicas_) e = std::max(e, r.epoch);
  return e;
}

HostId ReplicatedBroker::primary_host() const noexcept {
  const Replica* p = primary();
  return (p != nullptr && p->broker->up()) ? p->host : HostId{};
}

ReplicaRole ReplicatedBroker::role_of(HostId host) const {
  const Replica* r = find(host);
  QRES_REQUIRE(r != nullptr, "ReplicatedBroker::role_of: unknown host");
  return r->role;
}

std::uint64_t ReplicatedBroker::epoch_of(HostId host) const {
  const Replica* r = find(host);
  QRES_REQUIRE(r != nullptr, "ReplicatedBroker::epoch_of: unknown host");
  return r->epoch;
}

std::uint64_t ReplicatedBroker::watermark_of(HostId host) const {
  const Replica* r = find(host);
  QRES_REQUIRE(r != nullptr, "ReplicatedBroker::watermark_of: unknown host");
  return r->watermark;
}

bool ReplicatedBroker::replica_up(HostId host) const {
  const Replica* r = find(host);
  QRES_REQUIRE(r != nullptr, "ReplicatedBroker::replica_up: unknown host");
  return r->broker->up();
}

std::size_t ReplicatedBroker::quorum() const noexcept {
  return config_.quorum != 0 ? config_.quorum : replicas_.size() / 2 + 1;
}

const ResourceBroker& ReplicatedBroker::replica_broker(HostId host) const {
  const Replica* r = find(host);
  QRES_REQUIRE(r != nullptr,
               "ReplicatedBroker::replica_broker: unknown host");
  return *r->broker;
}

bool ReplicatedBroker::up() const noexcept {
  const Replica* p = primary();
  return p != nullptr && p->broker->up();
}

const ResourceBroker& ReplicatedBroker::read_broker() const {
  const Replica* p = primary();
  QRES_REQUIRE(p != nullptr && p->broker->up(),
               "ReplicatedBroker: read on a headless group (check up())");
  return *p->broker;
}

double ReplicatedBroker::available() const noexcept {
  const Replica* p = primary();
  if (p == nullptr || !p->broker->up()) return 0.0;
  return p->broker->available();
}

double ReplicatedBroker::available_at(double t) const {
  return read_broker().available_at(t);
}

ResourceObservation ReplicatedBroker::observe(double t) const {
  return read_broker().observe(t);
}

double ReplicatedBroker::held_by(SessionId session) const {
  const Replica* p = primary();
  if (p == nullptr || !p->broker->up()) return 0.0;
  return p->broker->held_by(session);
}

double ReplicatedBroker::lease_deadline(SessionId session) const {
  const Replica* p = primary();
  if (p == nullptr || !p->broker->up())
    return std::numeric_limits<double>::infinity();
  return p->broker->lease_deadline(session);
}

void ReplicatedBroker::enable_expiry_log(std::size_t capacity) {
  // All replicas, so a promoted standby keeps the same observability
  // configuration the group was built with.
  for (Replica& r : replicas_) r.broker->enable_expiry_log(capacity);
}

void ReplicatedBroker::take_expired(std::vector<SessionId>* into) {
  Replica* p = primary();
  if (p != nullptr && p->broker->up()) p->broker->take_expired(into);
}

bool ReplicatedBroker::reserve(double now, SessionId session, double amount) {
  return reserve_at(primary_host(), now, session, amount, 0.0);
}

bool ReplicatedBroker::reserve_leased(double now, SessionId session,
                                      double amount, double lease) {
  QRES_REQUIRE(lease > 0.0, "ReplicatedBroker::reserve_leased: zero lease");
  return reserve_at(primary_host(), now, session, amount, lease);
}

bool ReplicatedBroker::reserve_at(HostId host, double now, SessionId session,
                                  double amount, double lease) {
  if (!host.valid()) return false;
  Replica* r = find(host);
  QRES_REQUIRE(r != nullptr, "ReplicatedBroker::reserve_at: unknown host");
  if (!r->broker->up() || r->role == ReplicaRole::kFenced) return false;
  if (r->role != ReplicaRole::kPrimary) return false;  // standbys never grant
  if (config_.fencing && r->epoch != epoch()) return false;
  const bool ok =
      lease > 0.0 ? r->broker->reserve_leased(now, session, amount, lease)
                  : r->broker->reserve(now, session, amount);
  if (!ok) return false;
  ++stats_.grants_local;
  if (r->epoch != epoch()) {
    // Deposed primary, fencing off: the grant is split-brain divergence
    // confirmed locally — the violation the mc/fuzz oracles look for.
    ++stats_.grants_confirmed;
    return true;
  }
  if (config_.mode == ReplicationMode::kSync) {
    if (!auto_commit_) return true;  // service appends its reply, then commits
    return confirm_grant(*r, now, session, amount);
  }
  // Async: confirm now, ship when the lag bound is reached.
  ++stats_.grants_confirmed;
  after_async_mutation(now);
  return true;
}

void ReplicatedBroker::release(double now, SessionId session) {
  Replica* p = primary();
  if (p == nullptr || !p->broker->up()) return;
  p->broker->release(now, session);
  after_mutation(now);
}

void ReplicatedBroker::release_amount(double now, SessionId session,
                                      double amount) {
  Replica* p = primary();
  if (p == nullptr || !p->broker->up()) return;
  p->broker->release_amount(now, session, amount);
  after_mutation(now);
}

bool ReplicatedBroker::renew_lease(double now, SessionId session,
                                   double lease) {
  Replica* p = primary();
  if (p == nullptr || !p->broker->up()) return false;
  const bool renewed = p->broker->renew_lease(now, session, lease);
  if (renewed) after_mutation(now);
  return renewed;
}

double ReplicatedBroker::expire_due(double now,
                                    std::vector<SessionId>* expired) {
  Replica* p = primary();
  if (p == nullptr || !p->broker->up()) return 0.0;
  const double freed = p->broker->expire_due(now, expired);
  if (freed > 0.0) after_mutation(now);
  return freed;
}

void ReplicatedBroker::after_mutation(double now) {
  if (!auto_commit_) return;  // the service flushes at its commit point
  if (config_.mode == ReplicationMode::kSync)
    // qres-lint: allow(unchecked-status): releases/renews tolerate a failed
    // ship — losing one under-reports free capacity, which reconciliation
    // repairs; grants are confirmed separately in confirm_grant
    (void)flush(now);
  else
    after_async_mutation(now);
}

void ReplicatedBroker::after_async_mutation(double now) {
  // Lag = records not yet acknowledged by the *most* caught-up standby:
  // the bound on what a primary kill can lose after confirmation.
  std::uint64_t best_acked = 0;
  bool any = false;
  for (const Replica& r : replicas_) {
    if (r.role != ReplicaRole::kStandby || !r.broker->up()) continue;
    best_acked = std::max(best_acked, r.acked);
    any = true;
  }
  if (!any) return;
  // qres-lint: allow(unchecked-status): the lag-bound ship is opportunistic;
  // async mode promises at most max_async_lag lost records, not zero
  if (ship_next_ - best_acked >= config_.max_async_lag) (void)flush(now);
}

bool ReplicatedBroker::confirm_grant(Replica& p, double now,
                                     SessionId session, double amount) {
  // qres-lint: allow(unchecked-status): quorum_met on the next line is the
  // authoritative confirmation check, not flush's aggregate verdict
  (void)flush(now);
  if (quorum_met(ship_next_)) {
    ++stats_.grants_confirmed;
    return true;
  }
  ++stats_.quorum_failures;
  // Compensate: a journaled inverse release, so primary state and journal
  // stay in lockstep and the standbys (when reachable again) converge to
  // the same no-grant outcome. The caller sees a refusal.
  p.broker->release_amount(now, session, amount);
  // qres-lint: allow(unchecked-status): the caller already sees a refusal;
  // the compensating release ships whenever the standbys are next reachable
  (void)flush(now);  // best effort; the compensation ships like any record
  return false;
}

bool ReplicatedBroker::quorum_met(std::uint64_t target) const {
  const Replica* p = primary();
  std::size_t holders = 0;
  for (const Replica& r : replicas_) {
    if (!r.broker->up() || r.role == ReplicaRole::kFenced) continue;
    const std::uint64_t held = (&r == p) ? r.watermark : r.acked;
    if (held >= target) ++holders;
  }
  return holders >= quorum();
}

bool ReplicatedBroker::flush(double now) {
  Replica* p = primary();
  if (p == nullptr || !p->broker->up() || p->epoch != epoch()) return false;
  for (Replica& r : replicas_) {
    if (&r == p || r.role != ReplicaRole::kStandby || !r.broker->up())
      continue;
    ship_to(r, now);
  }
  // Prune entries every live standby has acknowledged (a down standby
  // pins the log: it needs the tail to catch up after restart).
  std::uint64_t min_acked = ship_next_;
  for (const Replica& r : replicas_) {
    if (r.role != ReplicaRole::kStandby) continue;
    min_acked = std::min(min_acked, r.acked);
  }
  while (!ship_log_.empty() && ship_next_ - ship_log_.size() < min_acked)
    ship_log_.pop_front();
  return quorum_met(ship_next_);
}

void ReplicatedBroker::ship_to(Replica& to, double now) {
  while (to.acked < ship_next_) {
    const std::uint64_t first = ship_next_ - ship_log_.size();
    const std::uint64_t from = std::max(to.acked, first);
    if (from >= ship_next_) return;  // needed records were pruned away
    ShipBatch batch;
    batch.resource = id_;
    batch.epoch = epoch();
    batch.seq_first = from;
    const auto base = static_cast<std::size_t>(from - first);
    std::size_t take = std::min<std::size_t>(config_.ship_batch_max,
                                             ship_log_.size() - base);
    // Never cut a batch between a mutation and its grouped reply record:
    // a standby promoted while holding the mutation but not the reply
    // would re-execute a retried request against surviving holdings —
    // the double grant the journal's drop_tail rule exists to prevent.
    while (base + take < ship_log_.size() &&
           ship_log_[base + take].op == JournalOp::kReplyCache &&
           ship_log_[base + take].grouped)
      ++take;
    batch.records.assign(ship_log_.begin() + base,
                         ship_log_.begin() + base + take);
    ++stats_.ship_batches;
    stats_.ship_records += batch.records.size();
    std::optional<ShipAckInfo> ack;
    if (transport_ != nullptr)
      ack = transport_->ship(to.host, batch, now);
    else
      ack = apply_ship(to.host, batch, now);
    if (!ack.has_value()) {
      ++stats_.ship_lost;
      return;
    }
    switch (ack->code) {
      case ShipAckCode::kApplied:
        ++stats_.acks;
        if (ack->watermark <= to.acked) return;  // no progress; stop
        to.acked = ack->watermark;
        break;
      case ShipAckCode::kGap:
        ++stats_.gap_refusals;
        if (ack->watermark >= to.acked) return;  // cannot converge now
        to.acked = ack->watermark;  // rewind and re-ship
        break;
      case ShipAckCode::kFenced:
        ++stats_.fenced_refusals;
        return;  // we were deposed; stop shipping entirely
      case ShipAckCode::kDown:
        return;
    }
  }
}

ShipAckInfo ReplicatedBroker::apply_ship(HostId host, const ShipBatch& batch,
                                         double now) {
  (void)now;
  Replica* r = find(host);
  QRES_REQUIRE(r != nullptr, "ReplicatedBroker::apply_ship: unknown host");
  if (!r->broker->up())
    return {ShipAckCode::kDown, r->epoch, r->watermark};
  if (r->role == ReplicaRole::kFenced)
    return {ShipAckCode::kFenced, r->epoch, r->watermark};
  if (config_.fencing) {
    if (batch.epoch < r->epoch)
      return {ShipAckCode::kFenced, r->epoch, r->watermark};
    if (batch.epoch > r->epoch) {
      // A newer primary speaks: adopt its epoch; a replica that still
      // believed itself primary is hereby fenced (its local tail may
      // have diverged and must never ship or serve).
      if (r->role == ReplicaRole::kPrimary) {
        r->role = ReplicaRole::kFenced;
        r->epoch = batch.epoch;
        return {ShipAckCode::kFenced, r->epoch, r->watermark};
      }
      r->epoch = batch.epoch;
    }
  }
  if (batch.seq_first > r->watermark)
    return {ShipAckCode::kGap, r->epoch, r->watermark};
  for (std::size_t i = 0; i < batch.records.size(); ++i) {
    const std::uint64_t seq = batch.seq_first + i;
    if (seq < r->watermark) continue;  // idempotent redelivery
    const JournalRecord& rec = batch.records[i];
    // The standby's own journal is its durable truth for promotion and
    // restart; a refused append stops the batch at the applied prefix.
    if (r->store->append(rec) != JournalStatus::kOk) break;
    r->broker->apply_replicated(rec);
    r->watermark = seq + 1;
  }
  return {ShipAckCode::kApplied, r->epoch, r->watermark};
}

bool ReplicatedBroker::promote(HostId host, std::uint64_t new_epoch,
                               double now) {
  (void)now;
  Replica* r = find(host);
  QRES_REQUIRE(r != nullptr, "ReplicatedBroker::promote: unknown host");
  if (!r->broker->up() || r->role == ReplicaRole::kFenced) return false;
  // Strictly newer than everything the group has seen: the second of two
  // racing promotions (equal watermarks or not) loses on the epoch, so
  // there is never a moment with two authoritative primaries.
  if (new_epoch <= epoch()) return false;
  // Only the most-caught-up live standby may take over. A
  // quorum-confirmed record is held by at least one standby (the quorum
  // intersects every majority), so as long as that standby is alive,
  // refusing lagging candidates preserves every confirmed grant. The
  // coordinator already selects by watermark; this check stops a naive
  // or racing promoter — the checker's failover-sync-partition topology
  // found the lost-update this rule closes: a stale standby promoted
  // during a partition re-grants capacity the old quorum had confirmed.
  for (const Replica& o : replicas_) {
    if (&o == r || o.role != ReplicaRole::kStandby || !o.broker->up())
      continue;
    if (o.watermark > r->watermark) return false;
  }
  for (Replica& o : replicas_) {
    if (&o == r || o.role != ReplicaRole::kPrimary) continue;
    if (config_.fencing) o.role = ReplicaRole::kFenced;
    // Fencing off: the deposed primary keeps believing it serves — the
    // split-brain demonstration topology.
  }
  r->role = ReplicaRole::kPrimary;
  r->epoch = new_epoch;
  // The promoted journal is the new truth: records beyond its watermark
  // existed only on the dead primary. None of them was quorum-confirmed
  // (the promoted standby is the most-caught-up acker), so truncating
  // them loses nothing a client was promised.
  if (ship_next_ > r->watermark) {
    stats_.truncated_records += ship_next_ - r->watermark;
    ship_log_.resize(ship_log_.size() -
                     std::min<std::uint64_t>(ship_log_.size(),
                                             ship_next_ - r->watermark));
    ship_next_ = r->watermark;
  }
  for (Replica& o : replicas_) o.acked = std::min(o.acked, ship_next_);
  ++stats_.promotions;
  return true;
}

void ReplicatedBroker::crash_replica(HostId host, double now) {
  Replica* r = find(host);
  QRES_REQUIRE(r != nullptr, "ReplicatedBroker::crash_replica: unknown host");
  r->broker->crash(now);
}

void ReplicatedBroker::restart_replica(HostId host, double now,
                                       double lease_grace) {
  Replica* r = find(host);
  QRES_REQUIRE(r != nullptr,
               "ReplicatedBroker::restart_replica: unknown host");
  // Recovers from the replica's own journal (snapshot + tail). A
  // restarted primary's restart marker and snapshot are captured and
  // ship like any record; a standby's stay local and its watermark —
  // which counts *shipped* records only — is untouched.
  r->broker->restart(now, lease_grace);
}

bool ReplicatedBroker::append_aux(const JournalRecord& record) {
  Replica* p = primary();
  if (p == nullptr || !p->broker->up() || p->epoch != epoch()) return false;
  JournalRecord rec = record;
  rec.resource = id_;
  return p->sink->append(rec) == JournalStatus::kOk;
}

std::uint64_t ReplicatedBroker::journaled_mutations() const noexcept {
  const Replica* p = primary();
  if (p == nullptr || !p->broker->up()) return 0;
  return p->broker->journaled_mutations();
}

std::vector<JournalRecord> ReplicatedBroker::primary_journal_records() const {
  const Replica* p = primary();
  if (p == nullptr || !p->broker->up()) return {};
  return p->store->load();
}

}  // namespace qres
