#include "rpc/broker_service.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "util/assert.hpp"

namespace qres::rpc {

namespace {

/// The request header of any of the five *Request alternatives.
RequestHeader header_of(const AnyMessage& request) {
  return std::visit(
      [](const auto& m) -> RequestHeader {
        if constexpr (requires { m.header; })
          return m.header;
        else
          return RequestHeader{};
      },
      request);
}

/// A typed error reply matching the request's type.
AnyMessage error_reply(MessageType type, std::uint64_t request_id,
                       RpcCode code) {
  switch (type) {
    case MessageType::kReserveRequest:
      return ReserveReply{request_id, code, 0.0};
    case MessageType::kReleaseRequest:
      return ReleaseReply{request_id, code, 0.0};
    case MessageType::kRenewRequest:
      return RenewReply{request_id, code, 0};
    case MessageType::kReconcileRequest:
      return ReconcileReply{request_id, code, 0.0};
    case MessageType::kQueryRequest:
      return QueryReply{request_id, code, {}};
    // qres-lint: allow(wire-exhaustive-switch): only the five request types reach error_reply; the QRES_REQUIRE below pins that
    default:
      break;
  }
  QRES_REQUIRE(false, "BrokerService: error reply for a non-request");
  return ReserveReply{};
}

bool finite_nonnegative(double v) noexcept {
  return std::isfinite(v) && v >= 0.0;
}

/// A request is expired when `now` has passed its absolute deadline
/// (the default +inf never expires; a NaN deadline counts as expired).
bool expired(const RequestHeader& header, double now) noexcept {
  return !(now <= header.deadline);
}

}  // namespace

BrokerService::BrokerService(BrokerRegistry* registry)
    : BrokerService(registry, Config{}) {}

BrokerService::BrokerService(BrokerRegistry* registry, Config config)
    : registry_(registry), config_(config) {
  QRES_REQUIRE(registry != nullptr, "BrokerService: null registry");
  QRES_REQUIRE(config.queue_capacity >= 1 && config.dedup_capacity >= 1,
               "BrokerService: capacities must be >= 1");
}

bool BrokerService::known_resource(ResourceId resource) const {
  return resource.valid() && resource.value() < registry_->size();
}

ExecutionQueue& BrokerService::queue_for_mut(ResourceId resource) {
  MutexLock lock(mutex_);
  const auto it = queues_.find(resource);
  if (it != queues_.end()) return *it->second;
  return *queues_.insert_or_assign(
      resource,
      std::make_unique<ExecutionQueue>(config_.queue_capacity));
}

const ExecutionQueue* BrokerService::queue_for(ResourceId resource) const {
  MutexLock lock(mutex_);
  const auto it = queues_.find(resource);
  return it == queues_.end() ? nullptr : it->second.get();
}

std::size_t BrokerService::max_queue_high_water() const {
  // Collect the stable queue pointers under the map lock, then read each
  // queue's own internally-locked stats.
  std::vector<const ExecutionQueue*> queues;
  {
    MutexLock lock(mutex_);
    queues.reserve(queues_.size());
    for (const auto& [id, queue] : queues_) queues.push_back(queue.get());
  }
  std::size_t high = 0;
  for (const ExecutionQueue* queue : queues)
    high = std::max(high, queue->stats().high_water);
  return high;
}

bool BrokerService::replay_cached(
    std::uint64_t request_id,
    std::vector<std::vector<std::uint8_t>>* replies) {
  MutexLock lock(mutex_);
  const auto it = dedup_.find(request_id);
  if (it == dedup_.end()) return false;
  ++stats_.duplicates;
  replies->push_back(it->second.bytes);
  return true;
}

void BrokerService::insert_dedup_locked(std::uint64_t request_id,
                                        CachedReply entry) {
  while (dedup_order_.size() >= config_.dedup_capacity) {
    dedup_.erase(dedup_order_.front());
    dedup_order_.pop_front();
  }
  dedup_.insert_or_assign(request_id, std::move(entry));
  dedup_order_.push_back(request_id);
}

bool BrokerService::cache_reply(std::uint64_t request_id,
                                const std::vector<std::uint8_t>& reply,
                                ResourceId resource) {
  MutexLock lock(mutex_);
  if (dedup_.contains(request_id)) return false;
  insert_dedup_locked(request_id, CachedReply{reply, resource});
  return true;
}

void BrokerService::overwrite_cached_reply(
    std::uint64_t request_id, const std::vector<std::uint8_t>& reply,
    ResourceId resource) {
  MutexLock lock(mutex_);
  if (dedup_.contains(request_id)) {
    dedup_.insert_or_assign(request_id, CachedReply{reply, resource});
    return;
  }
  insert_dedup_locked(request_id, CachedReply{reply, resource});
}

BrokerService::DedupState BrokerService::dedup_state() const {
  MutexLock lock(mutex_);
  return DedupState{dedup_, dedup_order_};
}

void BrokerService::restore_dedup(DedupState state) {
  MutexLock lock(mutex_);
  dedup_ = std::move(state.entries);
  dedup_order_ = std::move(state.order);
}

void BrokerService::forget_dedup(ResourceId resource) {
  MutexLock lock(mutex_);
  std::deque<std::uint64_t> kept;
  for (const std::uint64_t id : dedup_order_) {
    const auto it = dedup_.find(id);
    if (it != dedup_.end() && it->second.resource == resource)
      dedup_.erase(id);
    else
      kept.push_back(id);
  }
  dedup_order_ = std::move(kept);
}

void BrokerService::rebuild_dedup(ResourceId resource) {
  std::vector<JournalRecord> records;
  if (const ReplicatedBroker* rep = registry_->replicated(resource)) {
    // After a failover the promoted primary's journal is the group truth
    // (headless group: no records — every cached entry is dropped).
    records = rep->primary_journal_records();
  } else {
    const ResourceBroker* leaf = registry_->leaf(resource);
    if (leaf == nullptr || leaf->journal() == nullptr) return;
    records = leaf->journal()->load();
  }
  MutexLock lock(mutex_);
  // Drop the in-memory entries first: an entry the retained journal does
  // not confirm describes an execution recovery may not have restored.
  std::deque<std::uint64_t> kept;
  for (const std::uint64_t id : dedup_order_) {
    const auto it = dedup_.find(id);
    if (it != dedup_.end() && it->second.resource == resource)
      dedup_.erase(id);
    else
      kept.push_back(id);
  }
  dedup_order_ = std::move(kept);
  for (const JournalRecord& rec : records) {
    if (rec.op != JournalOp::kReplyCache || rec.resource != resource) continue;
    // Later records win: the replication quorum-revert path journals a
    // revised kReplyCache record under the same request id, and replays
    // must serve the revised refusal, never the optimistic grant.
    if (dedup_.contains(rec.request_id)) {
      dedup_.insert_or_assign(rec.request_id, CachedReply{rec.reply, resource});
      continue;
    }
    insert_dedup_locked(rec.request_id, CachedReply{rec.reply, resource});
  }
}

void BrokerService::handle_frame(
    const std::vector<std::uint8_t>& frame, double now,
    std::vector<std::vector<std::uint8_t>>* replies) {
  QRES_REQUIRE(replies != nullptr, "BrokerService: null reply sink");
  const Decoded decoded = decode_frame(frame);
  {
    MutexLock lock(mutex_);
    ++stats_.frames;
    if (!decoded.ok()) {
      // Corrupted/truncated frames get no reply: the client's
      // at-least-once loop retransmits under the same request id.
      ++stats_.decode_rejects;
      return;
    }
  }
  const MessageType type = message_type(decoded.message);
  if (!is_request(type)) {
    MutexLock lock(mutex_);
    ++stats_.non_requests;
    return;
  }
  const RequestHeader header = header_of(decoded.message);
  const ResourceId resource = std::visit(
      [](const auto& m) -> ResourceId {
        if constexpr (requires { m.resource; })
          return ResourceId{m.resource};
        else
          return ResourceId{};  // QueryRequest: no single target resource
      },
      decoded.message);
  // Epoch fence for replicated resources (DESIGN.md §14): a request
  // stamped with an epoch older than the group's was aimed at a deposed
  // primary. The typed redirect carries the current epoch and primary so
  // the client re-homes instead of burning its retry train here. Epoch 0
  // (a client that has not learned the group yet) passes the fence. Not
  // cached and not deduped — the re-sent request must execute. A
  // headless group falls through to the ordinary down handling.
  if (known_resource(resource) && header.epoch != 0) {
    const ReplicatedBroker* rep = registry_->replicated(resource);
    if (rep != nullptr && rep->up() && header.epoch < rep->epoch()) {
      {
        MutexLock lock(mutex_);
        ++stats_.not_primary;
      }
      replies->push_back(encode(RedirectReply{
          header.request_id, RpcCode::kNotPrimary, rep->epoch(),
          rep->primary_host().value()}));
      return;
    }
  }
  // Down brokers are reported *before* the replay cache is consulted: a
  // cached kOk from before the crash must not be served while journal
  // recovery may still lose the execution it describes (DESIGN.md §13).
  // Not cached — a retry after restart may succeed.
  if (known_resource(resource) && !registry_->broker(resource).up()) {
    {
      MutexLock lock(mutex_);
      ++stats_.broker_down;
    }
    replies->push_back(
        encode(error_reply(type, header.request_id, RpcCode::kBrokerDown)));
    return;
  }
  if (replay_cached(header.request_id, replies)) return;
  if (expired(header, now)) {
    {
      MutexLock lock(mutex_);
      ++stats_.deadline_expired;
    }
    replies->push_back(encode(
        error_reply(type, header.request_id, RpcCode::kDeadlineExceeded)));
    return;
  }

  // Read-only availability sweeps bypass the execution queues.
  if (type == MessageType::kQueryRequest) {
    std::vector<std::uint8_t> reply =
        serve_query(std::get<QueryRequest>(decoded.message), now);
    cache_reply(header.request_id, reply, ResourceId{});
    replies->push_back(std::move(reply));
    return;
  }

  // Mutating vocabulary: route to the target broker's bounded queue.
  if (!known_resource(resource)) {
    {
      MutexLock lock(mutex_);
      ++stats_.bad_requests;
    }
    replies->push_back(
        encode(error_reply(type, header.request_id, RpcCode::kBadRequest)));
    return;
  }
  ExecutionQueue& queue = queue_for_mut(resource);
  if (!queue.try_post(decoded.message)) {
    {
      MutexLock lock(mutex_);
      ++stats_.backpressure;
    }
    // Not cached: a retry of the same id may succeed once drained.
    replies->push_back(
        encode(error_reply(type, header.request_id, RpcCode::kBackpressure)));
    return;
  }
  if (config_.auto_drain) {
    for (const AnyMessage& queued : queue.drain()) {
      const std::uint64_t id = request_id_of(queued);
      if (replay_cached(id, replies)) continue;
      replies->push_back(execute(queued, now));
    }
  }
}

void BrokerService::drain_all(
    double now, std::vector<std::vector<std::uint8_t>>* replies) {
  QRES_REQUIRE(replies != nullptr, "BrokerService: null reply sink");
  std::vector<ExecutionQueue*> queues;
  {
    MutexLock lock(mutex_);
    queues.reserve(queues_.size());
    for (const auto& [id, queue] : queues_) queues.push_back(queue.get());
  }
  for (ExecutionQueue* queue : queues) {
    for (const AnyMessage& queued : queue->drain()) {
      const std::uint64_t id = request_id_of(queued);
      if (replay_cached(id, replies)) continue;
      replies->push_back(execute(queued, now));
    }
  }
}

std::vector<std::uint8_t> BrokerService::execute(const AnyMessage& request,
                                                 double now) {
  const MessageType type = message_type(request);
  const RequestHeader header = header_of(request);
  const auto reject = [&](RpcCode code) {
    {
      MutexLock lock(mutex_);
      if (code == RpcCode::kDeadlineExceeded) ++stats_.deadline_expired;
      if (code == RpcCode::kBadRequest) ++stats_.bad_requests;
      if (code == RpcCode::kBrokerDown) ++stats_.broker_down;
    }
    return encode(error_reply(type, header.request_id, code));
  };
  // Deadline enforced again at drain time: a request that expired while
  // queued is answered, never executed late.
  if (expired(header, now)) return reject(RpcCode::kDeadlineExceeded);

  const ResourceId resource = std::visit(
      [](const auto& m) -> ResourceId {
        if constexpr (requires { m.resource; })
          return ResourceId{m.resource};
        else
          return ResourceId{};
      },
      request);
  IBroker& broker = registry_->broker(resource);
  if (!broker.up()) return reject(RpcCode::kBrokerDown);

  // The epoch fence again at drain time: a request queued before a
  // failover must not execute against the new primary under the deposed
  // epoch (handle_frame fenced only what it saw at ingress).
  ReplicatedBroker* rep = registry_->replicated(resource);
  if (rep != nullptr && header.epoch != 0 && header.epoch < rep->epoch()) {
    {
      MutexLock lock(mutex_);
      ++stats_.not_primary;
    }
    return encode(RedirectReply{header.request_id, RpcCode::kNotPrimary,
                                rep->epoch(), rep->primary_host().value()});
  }

  // Journaled brokers get the executed reply journaled next to the
  // mutation records its execution appends (dedup crash durability);
  // the appended-count delta decides grouping.
  ResourceBroker* leaf = registry_->leaf(resource);
  if (leaf != nullptr && leaf->journal() == nullptr) leaf = nullptr;
  const std::uint64_t mutations_before =
      leaf != nullptr ? leaf->journaled_mutations()
      : rep != nullptr ? rep->journaled_mutations()
                       : 0;

  // Sync replication runs two-phase: the grant applies locally with
  // auto-commit off, the reply-cache record is journaled next (so the
  // mutation and its grouped reply replicate atomically), and the
  // explicit flush below is the commit gate (DESIGN.md §14).
  const bool two_phase =
      rep != nullptr && rep->config().mode == ReplicationMode::kSync;
  if (two_phase) rep->set_auto_commit(false);

  AnyMessage reply;
  if (const auto* reserve = std::get_if<ReserveRequest>(&request)) {
    if (!finite_nonnegative(reserve->amount) ||
        !finite_nonnegative(reserve->lease))
      return reject(RpcCode::kBadRequest);
    const SessionId session{reserve->header.session};
    const bool granted =
        reserve->lease > 0.0
            ? broker.reserve_leased(now, session, reserve->amount,
                                    reserve->lease)
            : broker.reserve(now, session, reserve->amount);
    reply = ReserveReply{header.request_id,
                         granted ? RpcCode::kOk : RpcCode::kAdmissionReject,
                         broker.available(),
                         granted ? broker.lease_deadline(session)
                                 : std::numeric_limits<double>::infinity()};
  } else if (const auto* release = std::get_if<ReleaseRequest>(&request)) {
    if (!finite_nonnegative(release->amount))
      return reject(RpcCode::kBadRequest);
    const SessionId session{release->header.session};
    const double held = broker.held_by(session);
    double released = 0.0;
    if (release->release_all != 0) {
      released = held;
      broker.release(now, session);
    } else {
      released = std::min(held, release->amount);
      broker.release_amount(now, session, release->amount);
    }
    reply = ReleaseReply{header.request_id, RpcCode::kOk, released};
  } else if (const auto* renew = std::get_if<RenewRequest>(&request)) {
    if (!finite_nonnegative(renew->lease)) return reject(RpcCode::kBadRequest);
    const SessionId session{renew->header.session};
    const bool renewed = broker.renew_lease(now, session, renew->lease);
    reply = RenewReply{header.request_id, RpcCode::kOk,
                       static_cast<std::uint8_t>(renewed ? 1 : 0),
                       renewed ? broker.lease_deadline(session)
                               : std::numeric_limits<double>::infinity()};
  } else if (const auto* reconcile =
                 std::get_if<ReconcileRequest>(&request)) {
    const SessionId session{reconcile->header.session};
    reply = ReconcileReply{header.request_id, RpcCode::kOk,
                           broker.held_by(session)};
  } else {
    return reject(RpcCode::kBadRequest);
  }

  {
    MutexLock lock(mutex_);
    ++stats_.executed;
  }
  std::vector<std::uint8_t> encoded = encode(reply);
  // Performed operations (including admission rejects) are cached so a
  // redelivered duplicate returns this reply instead of executing twice.
  if (cache_reply(header.request_id, encoded, resource) &&
      (leaf != nullptr || rep != nullptr)) {
    // Durable half of the cache entry. `grouped` ties the record to the
    // mutation records this execution just appended, so a lossy tail
    // drops them together or not at all (MemoryJournal::drop_tail).
    // No-mutation executions (failed renew, admission reject) journal an
    // ungrouped record — gluing one to an unrelated predecessor could
    // strand that predecessor's own reply.
    JournalRecord rec;
    rec.op = JournalOp::kReplyCache;
    rec.time = now;
    rec.resource = resource;
    rec.request_id = header.request_id;
    rec.grouped = (leaf != nullptr ? leaf->journaled_mutations()
                                   : rep->journaled_mutations()) >
                  mutations_before;
    rec.reply = encoded;
    // A refused append here leaves the reply cached only in memory: a
    // crash before the next successful snapshot may re-execute the
    // duplicate. That is the pre-journal dedup guarantee, not silent
    // state divergence — holdings were journaled write-ahead above — so
    // the execution is not failed retroactively.
    if (leaf != nullptr)
      // qres-lint: allow(unchecked-status): refusal tolerated per the
      // comment above — dedup degrades to pre-journal, state stays sound
      static_cast<void>(leaf->journal()->append(rec));
    else
      // qres-lint: allow(unchecked-status): same rationale as the leaf arm
      static_cast<void>(rep->append_aux(rec));
  }

  if (two_phase) {
    // Commit phase: everything this execution journaled (mutations and
    // the grouped reply record) must reach the quorum before the caller
    // may learn of a grant.
    const bool confirmed = rep->flush(now);
    rep->set_auto_commit(true);
    const auto* reserve = std::get_if<ReserveRequest>(&request);
    const auto* reserve_reply = std::get_if<ReserveReply>(&reply);
    const bool granted = reserve != nullptr && reserve_reply != nullptr &&
                         reserve_reply->code == RpcCode::kOk;
    if (confirmed) {
      if (granted) rep->note_confirmed_grant();
    } else if (granted) {
      // The quorum never held the grant: compensate it with a journaled
      // inverse release and revise the cached reply, so a duplicate of
      // this request id replays the refusal, never the phantom grant.
      // Releases/renews need no revert — losing one under-reports free
      // capacity, which reconciliation (PR 4) repairs without ever
      // over-granting.
      rep->note_quorum_failure();
      {
        MutexLock lock(mutex_);
        ++stats_.quorum_rejects;
      }
      rep->set_auto_commit(false);
      rep->release_amount(now, SessionId{reserve->header.session},
                          reserve->amount);
      rep->set_auto_commit(true);
      encoded = encode(AnyMessage{ReserveReply{
          header.request_id, RpcCode::kBrokerDown, rep->available(),
          std::numeric_limits<double>::infinity()}});
      overwrite_cached_reply(header.request_id, encoded, resource);
      JournalRecord rec;
      rec.op = JournalOp::kReplyCache;
      rec.time = now;
      rec.resource = resource;
      rec.request_id = header.request_id;
      rec.grouped = true;  // glued to the compensating release record
      rec.reply = encoded;
      // qres-lint: allow(unchecked-status): the revised reply is already in
      // the live cache; a lost record re-executes into the same refusal
      static_cast<void>(rep->append_aux(rec));
      // qres-lint: allow(unchecked-status): best-effort ship of the
      // compensation — the grant was already refused to the caller
      static_cast<void>(rep->flush(now));  // best effort
    }
  }
  return encoded;
}

std::vector<std::uint8_t> BrokerService::serve_query(
    const QueryRequest& request, double now) {
  (void)now;
  QueryReply reply{request.header.request_id, RpcCode::kOk, {}};
  reply.samples.reserve(request.entries.size());
  for (const QueryEntry& entry : request.entries) {
    const ResourceId resource{entry.resource};
    if (!known_resource(resource) || !std::isfinite(entry.observe_at)) {
      MutexLock lock(mutex_);
      ++stats_.bad_requests;
      return encode(QueryReply{request.header.request_id,
                               RpcCode::kBadRequest,
                               {}});
    }
    const IBroker& broker = registry_->broker(resource);
    QuerySample sample;
    sample.resource = entry.resource;
    if (broker.up()) {
      const ResourceObservation obs = broker.observe(entry.observe_at);
      sample.available = obs.available;
      sample.alpha = obs.alpha;
      sample.up = 1;
    } else {
      sample.available = 0.0;
      sample.alpha = 1.0;
      sample.up = 0;
    }
    reply.samples.push_back(sample);
  }
  {
    MutexLock lock(mutex_);
    ++stats_.executed;
  }
  return encode(reply);
}

BrokerService::Stats BrokerService::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace qres::rpc
