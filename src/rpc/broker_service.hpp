// The server side of the typed control plane: a BrokerRegistry exposed
// as an IFrameServer (DESIGN.md §12).
//
// Every frame is strictly decoded (undecodable frames produce no reply —
// the client's at-least-once loop retransmits), then routed:
//
//   * mutating requests (reserve/release/renew/reconcile) go through the
//     target broker's bounded ExecutionQueue. A full queue fast-rejects
//     with a typed kBackpressure reply — never blocks, never drops
//     silently. In auto_drain mode (synchronous coordinator calls) the
//     queue is drained immediately after the post; with auto_drain off
//     the caller pipelines posts and calls drain_all() later (the
//     overload bench arm and the fuzz backpressure arm).
//   * QueryRequest is a read-only availability sweep and is served at
//     ingress, bypassing the queues.
//
// At-least-once semantics: executed requests are remembered in a bounded
// request-id -> reply cache, so a redelivered duplicate (retransmission,
// frame duplication, reordering) returns the original reply instead of
// executing twice. Backpressure and deadline fast-rejects are NOT
// cached: a retry of the same request id may succeed once the queue has
// drained. Deadlines are enforced both at ingress and again at drain
// time, so a request that expired while queued is answered
// kDeadlineExceeded rather than executed late.
//
// Crash durability of the cache (DESIGN.md §13): when the target broker
// journals, every executed reply is journaled as a kReplyCache record
// grouped with the mutation records its execution appended, and
// rebuild_dedup() re-derives the cache for a restarted broker from the
// retained journal. Without that rebuild, the model checker's
// demo-dedup topology shows the double grant: executed grant survives
// the crash in the journal, the cache entry does not, and the client's
// retry of the *same request id* executes again on top of the restored
// holding. Two companion rules close the remaining window:
//   * a request for a down broker is answered kBrokerDown at ingress,
//     *before* the replay cache is consulted — a cached kOk from before
//     the crash must not be served while journal recovery may still lose
//     the grant it describes (the model checker's demo-stalededup
//     topology replays the opposite ordering inside its own world);
//   * the dedup horizon equals the retained journal: compaction drops
//     kReplyCache records older than the newest snapshot, so sinks that
//     compact bound the horizon by snapshot_every (documented trade-off).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "broker/registry.hpp"
#include "rpc/frame.hpp"
#include "rpc/service_queue.hpp"
#include "rpc/wire.hpp"
#include "util/annotations.hpp"
#include "util/flat_map.hpp"

namespace qres::rpc {

class BrokerService : public IFrameServer {
 public:
  struct Config {
    std::size_t queue_capacity = 64;    ///< per-broker execution queue bound
    std::size_t dedup_capacity = 1024;  ///< request-id replay cache entries
    /// Execute queued requests immediately after each post (synchronous
    /// coordinator mode). Off = the caller pipelines and drains.
    bool auto_drain = true;
  };

  explicit BrokerService(BrokerRegistry* registry);
  BrokerService(BrokerRegistry* registry, Config config);

  // IFrameServer. Thread-safe for concurrent producers; draining
  // (auto_drain or drain_all) must stay on the single consumer thread.
  void handle_frame(const std::vector<std::uint8_t>& frame, double now,
                    std::vector<std::vector<std::uint8_t>>* replies) override;

  /// Executes every queued request on every broker queue (post order per
  /// broker), appending the replies. Single-consumer side.
  void drain_all(double now, std::vector<std::vector<std::uint8_t>>* replies);

  struct Stats {
    std::uint64_t frames = 0;            ///< frames received
    std::uint64_t decode_rejects = 0;    ///< typed decode failures (no reply)
    std::uint64_t non_requests = 0;      ///< well-formed but not a request
    std::uint64_t executed = 0;          ///< requests actually executed
    std::uint64_t duplicates = 0;        ///< answered from the dedup cache
    std::uint64_t backpressure = 0;      ///< kBackpressure fast-rejects
    std::uint64_t deadline_expired = 0;  ///< kDeadlineExceeded replies
    std::uint64_t bad_requests = 0;      ///< kBadRequest replies
    std::uint64_t broker_down = 0;       ///< kBrokerDown replies
    std::uint64_t not_primary = 0;       ///< stale-epoch redirects issued
    std::uint64_t quorum_rejects = 0;    ///< sync grants reverted (no quorum)
  };
  Stats stats() const QRES_EXCLUDES(mutex_);

  /// One replay-cache entry: the encoded reply plus the resource whose
  /// broker executed it (invalid for queries — they span resources and
  /// are never rebuilt from a journal).
  struct CachedReply {
    std::vector<std::uint8_t> bytes;
    ResourceId resource;
  };

  /// The full replay cache, copyable — the model checker's cloning seam.
  struct DedupState {
    FlatMap<std::uint64_t, CachedReply> entries;
    std::deque<std::uint64_t> order;
  };
  DedupState dedup_state() const QRES_EXCLUDES(mutex_);
  void restore_dedup(DedupState state) QRES_EXCLUDES(mutex_);

  /// Drops every cached reply attributed to `resource` (the service-side
  /// half of a broker crash when cache and broker share a process).
  void forget_dedup(ResourceId resource) QRES_EXCLUDES(mutex_);

  /// Re-derives `resource`'s replay-cache entries from its (restarted)
  /// broker's journal: drops whatever the in-memory cache holds for the
  /// resource, then inserts one entry per retained kReplyCache record.
  /// Call after ResourceBroker::restart() — the cache then agrees with
  /// journal truth even when a lossy tail took executed grants with it.
  /// For a replicated resource the promoted primary's journal is the
  /// source (call after failover). Later records win: a quorum-reverted
  /// grant journals a second kReplyCache record for the same id, and the
  /// rebuilt cache must serve the revised (kBrokerDown) reply, not the
  /// optimistic one. No-op for resources with no journaled broker.
  void rebuild_dedup(ResourceId resource) QRES_EXCLUDES(mutex_);

  /// The deepest any broker's execution queue has ever been.
  std::size_t max_queue_high_water() const;

  /// Per-broker queue statistics (empty entry when a broker has received
  /// no mutating request yet).
  const ExecutionQueue* queue_for(ResourceId resource) const;

 private:
  /// Executes one already-dequeued request at time `now`; returns the
  /// encoded reply (always replies — requests that reach execution are
  /// well-formed).
  std::vector<std::uint8_t> execute(const AnyMessage& request, double now);
  std::vector<std::uint8_t> serve_query(const QueryRequest& request,
                                        double now);
  ExecutionQueue& queue_for_mut(ResourceId resource);
  bool known_resource(ResourceId resource) const;

  /// Dedup cache lookup; true when `request_id` was already executed (the
  /// cached reply is appended to `replies`).
  bool replay_cached(std::uint64_t request_id,
                     std::vector<std::vector<std::uint8_t>>* replies)
      QRES_EXCLUDES(mutex_);
  /// True when the entry was newly inserted (false: id already cached —
  /// the caller must not journal a second kReplyCache record for it).
  bool cache_reply(std::uint64_t request_id,
                   const std::vector<std::uint8_t>& reply, ResourceId resource)
      QRES_EXCLUDES(mutex_);
  /// Replaces an already-cached reply in place (inserts when absent).
  /// Only the replication quorum-revert path uses this: the optimistic
  /// grant reply must never be replayed once the grant was compensated.
  void overwrite_cached_reply(std::uint64_t request_id,
                              const std::vector<std::uint8_t>& reply,
                              ResourceId resource) QRES_EXCLUDES(mutex_);
  void insert_dedup_locked(std::uint64_t request_id, CachedReply entry)
      QRES_REQUIRES(mutex_);

  BrokerRegistry* registry_;
  Config config_;
  /// Queues are created lazily, one per broker; the unique_ptr keeps them
  /// stable (ExecutionQueue owns a Mutex and cannot move).
  FlatMap<ResourceId, std::unique_ptr<ExecutionQueue>> queues_;
  mutable Mutex mutex_;
  FlatMap<std::uint64_t, CachedReply> dedup_ QRES_GUARDED_BY(mutex_);
  std::deque<std::uint64_t> dedup_order_ QRES_GUARDED_BY(mutex_);
  Stats stats_ QRES_GUARDED_BY(mutex_);
};

}  // namespace qres::rpc
