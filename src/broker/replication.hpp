// Replicated Resource Brokers: journal shipping + hot-standby failover
// (DESIGN.md §14).
//
// PR 4 made a crashed broker recoverable *after restart*; this subsystem
// makes reservations survive a broker that never comes back. A
// ReplicatedBroker is a group of replicas of one logical resource: the
// primary serves the IBroker interface exactly like a plain
// ResourceBroker, and every journal record it writes (the same
// write-ahead records journal.hpp defines) is *shipped* to the standbys,
// which apply it to a shadow ResourceBroker and acknowledge a replication
// watermark.
//
//   * Sync mode: a grant is confirmed only once the configured quorum of
//     replicas (primary included) holds its journal records. A grant the
//     quorum never acknowledged is compensated (journaled inverse
//     release) and refused — so a primary that dies mid-epoch loses no
//     *confirmed* reservation: the most-caught-up standby holds every
//     quorum-acknowledged record by construction (majority intersection),
//     and promotion truncates the unacknowledged tail.
//   * Async mode: grants confirm immediately and records ship when the
//     lag bound is reached — the window of confirmed-but-unshipped
//     grants a primary kill can lose is bounded by `max_async_lag`
//     (measured by bench/ext_failover).
//
// Failover is fenced by a monotonic epoch: every shipped batch carries
// the primary's epoch, promotion adopts a strictly larger one, and a
// deposed primary's batches (and, through the RPC plane, stale clients)
// are refused kNotPrimary. `fencing = false` disables exactly that check
// — the split-brain the model checker demonstrates (src/mc/failover).
//
// Layering: this is broker-layer code (rank 2) — it never touches rpc/.
// The typed wire messages (JournalShip/ShipAck/PromoteRequest) live in
// rpc/wire.hpp, and rpc/replication_link.hpp adapts them onto the
// IShipTransport hook below; a null transport ships in-process.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broker/resource_broker.hpp"
#include "util/annotations.hpp"
#include "util/flat_map.hpp"

namespace qres {

/// When grants are confirmed relative to replication (see file comment).
enum class ReplicationMode : std::uint8_t { kSync, kAsync };

/// A replica's role within the group. A fenced replica refuses every
/// grant and every shipped batch: it was deposed by a newer epoch and
/// must not serve until an operator rebuilds it.
enum class ReplicaRole : std::uint8_t { kPrimary, kStandby, kFenced };

const char* to_string(ReplicationMode mode) noexcept;
const char* to_string(ReplicaRole role) noexcept;

struct ReplicationConfig {
  ReplicationMode mode = ReplicationMode::kSync;
  /// Replicas (primary included) that must hold a record before a grant
  /// is confirmed in sync mode. 0 = majority (n/2 + 1).
  std::size_t quorum = 0;
  /// Async mode: ship when this many records are pending. 1 degenerates
  /// to ship-on-every-record (still without the confirmation gate).
  std::size_t max_async_lag = 8;
  /// Epoch fencing. Disabling it is for the model checker's split-brain
  /// demonstration only — never run a real topology without it.
  bool fencing = true;
  /// Compaction cadence of each replica's own journal.
  std::size_t snapshot_every = 64;
  /// Records per shipped batch (soft: a batch is extended past the cap
  /// rather than split between a mutation and its grouped reply record).
  std::size_t ship_batch_max = 64;
};

/// How a standby answered (or failed to answer) one shipped batch.
enum class QRES_NODISCARD ShipAckCode : std::uint8_t {
  kApplied,  ///< batch applied (or already held); watermark is current
  kGap,      ///< seq_first is ahead of the watermark — primary must rewind
  kFenced,   ///< batch epoch is stale — sender was deposed
  kDown,     ///< replica process is down
};

const char* to_string(ShipAckCode code) noexcept;

struct QRES_NODISCARD ShipAckInfo {
  ShipAckCode code = ShipAckCode::kApplied;
  std::uint64_t epoch = 0;      ///< epoch in force at the receiver
  std::uint64_t watermark = 0;  ///< records the receiver holds (next seq)
};

/// One shipped batch: contiguous journal records, `seq_first` naming
/// records[0]'s group sequence number. In process they travel as values;
/// the RPC adapter carries them in the journal's binary record layout
/// (journal.hpp record_fields) inside a JournalShip frame.
struct ShipBatch {
  ResourceId resource;
  std::uint64_t epoch = 0;
  std::uint64_t seq_first = 0;
  std::vector<JournalRecord> records;
};

/// Transport hook for shipping batches to a standby. Null transport =
/// in-process delivery (ReplicatedBroker::apply_ship on itself). The RPC
/// adapter (rpc/replication_link.hpp) carries batches through the typed
/// wire plane instead, with its faults, retries and breakers. Returns
/// nullopt when the batch (or its ack) was lost entirely.
class IShipTransport {
 public:
  virtual ~IShipTransport() = default;
  QRES_NODISCARD virtual std::optional<ShipAckInfo> ship(HostId to, const ShipBatch& batch,
                                          double now) = 0;
};

/// Journal sink tee: forwards to the replica's own store and reports
/// every durably-appended record to the owning ReplicatedBroker, which
/// ships it when (and only when) the writing replica is the primary.
class CaptureSink final : public IJournalSink {
 public:
  using Callback = void (*)(void* owner, std::size_t replica,
                            const JournalRecord& record);

  CaptureSink(IJournalSink* inner, void* owner, std::size_t replica,
              Callback on_append)
      : inner_(inner), owner_(owner), replica_(replica),
        on_append_(on_append) {}

  JournalStatus append(const JournalRecord& record) override {
    const JournalStatus status = inner_->append(record);
    if (status == JournalStatus::kOk && on_append_ != nullptr)
      on_append_(owner_, replica_, record);
    return status;
  }
  std::vector<JournalRecord> load() const override { return inner_->load(); }
  std::uint64_t appended() const override { return inner_->appended(); }

 private:
  IJournalSink* inner_;
  void* owner_;
  std::size_t replica_;
  Callback on_append_;
};

/// Counters for `qresctl replication` and the failover bench.
struct ReplicationStats {
  std::uint64_t ship_batches = 0;     ///< batches handed to the transport
  std::uint64_t ship_records = 0;     ///< records across those batches
  std::uint64_t ship_lost = 0;        ///< batches with no ack at all
  std::uint64_t acks = 0;             ///< kApplied acks received
  std::uint64_t gap_refusals = 0;     ///< kGap acks (primary rewound)
  std::uint64_t fenced_refusals = 0;  ///< kFenced acks (stale epoch)
  std::uint64_t grants_local = 0;     ///< grants applied at a primary
  std::uint64_t grants_confirmed = 0; ///< grants confirmed to the caller
  std::uint64_t quorum_failures = 0;  ///< sync grants compensated away
  std::uint64_t promotions = 0;       ///< successful promote() calls
  std::uint64_t truncated_records = 0;///< unacked records promotion dropped
};

/// Where the group's primary currently lives, per resource — maintained
/// by the failover coordinator, consulted by clients for routing and for
/// the epoch they stamp into requests. (Broker-layer so both sim/ and
/// proxy/ can share one instance without an rpc dependency.)
class ReplicationDirectory {
 public:
  struct Entry {
    std::uint64_t epoch = 0;
    HostId primary;
  };

  void update(ResourceId resource, std::uint64_t epoch, HostId primary) {
    Entry& e = entries_[resource];
    // Monotone: a stale coordinator can never roll the directory back.
    if (epoch >= e.epoch) e = Entry{epoch, primary};
  }
  const Entry* find(ResourceId resource) const {
    const auto it = entries_.find(resource);
    return it == entries_.end() ? nullptr : &it->second;
  }

 private:
  FlatMap<ResourceId, Entry> entries_;
};

/// A replica group serving one logical resource through the IBroker
/// interface. See the file comment for the protocol.
class ReplicatedBroker final : public IBroker {
 public:
  ReplicatedBroker(ResourceId id, std::string name, double capacity,
                   std::vector<HostId> hosts, ReplicationConfig config,
                   double alpha_window = 3.0, double history_keep = 64.0,
                   AlphaMode alpha_mode = AlphaMode::kTimeWeighted);

  // --- IBroker façade: every call routes to the current primary.
  ResourceId id() const noexcept override { return id_; }
  const std::string& name() const noexcept override { return name_; }
  double capacity() const noexcept override { return capacity_; }
  double available() const noexcept override;
  double available_at(double t) const override;
  ResourceObservation observe(double t) const override;
  bool reserve(double now, SessionId session, double amount) override;
  void release(double now, SessionId session) override;
  void release_amount(double now, SessionId session, double amount) override;
  double held_by(SessionId session) const override;
  bool reserve_leased(double now, SessionId session, double amount,
                      double lease) override;
  bool renew_lease(double now, SessionId session, double lease) override;
  double expire_due(double now, std::vector<SessionId>* expired) override;
  double lease_deadline(SessionId session) const override;
  void enable_expiry_log(std::size_t capacity = 1024) override;
  void take_expired(std::vector<SessionId>* into) override;
  /// Up iff a primary exists and its process is running.
  bool up() const noexcept override;

  // --- Group interface.
  const ReplicationConfig& config() const noexcept { return config_; }
  std::size_t replica_count() const noexcept { return replicas_.size(); }
  const std::vector<HostId>& hosts() const noexcept { return hosts_; }
  /// The group's fencing epoch: the largest epoch any replica has
  /// adopted. New promotions must use next_epoch().
  std::uint64_t epoch() const noexcept;
  std::uint64_t next_epoch() const noexcept { return epoch() + 1; }
  /// Host of the live primary, or kInvalid while the group is headless
  /// (primary crashed, nobody promoted yet).
  HostId primary_host() const noexcept;
  ReplicaRole role_of(HostId host) const;
  std::uint64_t epoch_of(HostId host) const;
  /// Records the replica holds (its next expected sequence number).
  std::uint64_t watermark_of(HostId host) const;
  bool replica_up(HostId host) const;
  const ReplicationStats& stats() const noexcept { return stats_; }
  /// The quorum actually in force (config.quorum, or the majority).
  std::size_t quorum() const noexcept;

  /// Grant entry at a *specific* replica — how the model checker and the
  /// fuzzer address a deposed primary directly. With fencing on, a
  /// non-primary replica refuses; with fencing off a deposed primary
  /// happily grants, which is the split-brain the checker demonstrates.
  /// `lease` 0 = permanent.
  QRES_NODISCARD bool reserve_at(HostId host, double now, SessionId session, double amount,
                  double lease = 0.0);

  /// Standby-side batch application (also the in-process "transport").
  ShipAckInfo apply_ship(HostId host, const ShipBatch& batch, double now);

  /// Adopt `new_epoch` and serve as primary at `host`. Refuses (returns
  /// false) when the replica is down, the epoch is not strictly newer
  /// than every epoch the group has seen — a double promotion with an
  /// equal epoch loses the tie — or a *live* standby is more caught up
  /// (promoting a lagging candidate would drop quorum-confirmed records;
  /// the model checker's partition topology demonstrates the resulting
  /// double grant without this rule). With fencing on, every other
  /// replica in primary role is fenced, and the group ship log is
  /// truncated to the promoted watermark: records only the dead primary
  /// held are gone, which is safe because no such record was ever
  /// quorum-confirmed.
  QRES_NODISCARD bool promote(HostId host, std::uint64_t new_epoch, double now);

  /// Crash/restart of one replica's broker process (journal survives).
  void crash_replica(HostId host, double now);
  void restart_replica(HostId host, double now, double lease_grace = 0.0);

  /// Ships every pending record (sync mode does this inside each
  /// confirmation; async mode on the lag bound). Returns true when the
  /// quorum holds everything the primary has written — the commit gate
  /// the broker service uses in sync mode.
  QRES_NODISCARD bool flush(double now);

  /// Service orchestration (two-phase): with auto-commit off, grants
  /// apply locally and confirmation is deferred to an explicit flush()
  /// — the broker service appends the reply-cache record first so the
  /// mutation and its grouped reply replicate atomically, then commits.
  void set_auto_commit(bool on) noexcept { auto_commit_ = on; }
  bool auto_commit() const noexcept { return auto_commit_; }

  /// Appends a non-mutation record (the service's kReplyCache) to the
  /// primary's journal so it ships with the group. Returns false when
  /// the group is headless or the append was refused.
  QRES_NODISCARD bool append_aux(const JournalRecord& record);
  /// Mutation records the primary has journaled (see
  /// ResourceBroker::journaled_mutations); 0 while headless.
  std::uint64_t journaled_mutations() const noexcept;
  /// Two-phase stats hooks: with auto-commit off the broker never sees
  /// the commit outcome, so the orchestrating service reports it.
  void note_confirmed_grant() noexcept { ++stats_.grants_confirmed; }
  void note_quorum_failure() noexcept { ++stats_.quorum_failures; }
  /// The primary's retained journal (newest snapshot + tail) — the
  /// source for the service's replay-cache rebuild after a failover.
  /// Empty while the group is headless.
  std::vector<JournalRecord> primary_journal_records() const;
  /// The primary's state snapshot (ResourceBroker::snapshot) — the
  /// reconciliation orphan sweep's view of the group's holdings. Aborts
  /// while headless (check up()).
  JournalRecord primary_snapshot(double now) const {
    return read_broker().snapshot(now);
  }
  /// Direct (read-only) access to a replica's shadow broker, for tests
  /// and the auditor. Aborts on unknown host.
  const ResourceBroker& replica_broker(HostId host) const;

  IShipTransport* transport() const noexcept { return transport_; }
  void set_transport(IShipTransport* transport) noexcept {
    transport_ = transport;
  }

 private:
  struct Replica {
    HostId host;
    std::unique_ptr<MemoryJournal> store;
    std::unique_ptr<CaptureSink> sink;
    std::unique_ptr<ResourceBroker> broker;
    ReplicaRole role = ReplicaRole::kStandby;
    std::uint64_t epoch = 0;
    /// Records this replica holds: its own journal writes when primary,
    /// applied shipped records when standby. Next expected sequence.
    std::uint64_t watermark = 0;
    /// Primary's view of this replica's acknowledged watermark.
    std::uint64_t acked = 0;
  };

  static void on_capture(void* owner, std::size_t replica,
                         const JournalRecord& record);

  Replica* find(HostId host);
  const Replica* find(HostId host) const;
  Replica* primary();
  const Replica* primary() const;
  const ResourceBroker& read_broker() const;
  /// Ships pending records to `to` from its acked watermark forward.
  void ship_to(Replica& to, double now);
  bool quorum_met(std::uint64_t target) const;
  /// Sync: flush + quorum, compensating `session`'s grant on failure.
  bool confirm_grant(Replica& p, double now, SessionId session,
                     double amount);
  /// Post-mutation shipping policy (sync: flush; async: on lag bound).
  void after_mutation(double now);
  void after_async_mutation(double now);

  ResourceId id_;
  std::string name_;
  double capacity_;
  ReplicationConfig config_;
  std::vector<HostId> hosts_;
  std::vector<Replica> replicas_;
  /// Group ship log: the records the current primary line has written
  /// are numbered contiguously from 0, and the log holds the newest of
  /// them, sequence numbers [ship_next_ - size, ship_next_). Promotion
  /// truncates it to the promoted watermark. Entries below every
  /// replica's ack are pruned.
  std::deque<JournalRecord> ship_log_;
  std::uint64_t ship_next_ = 0;  ///< seq of the next captured record
  IShipTransport* transport_ = nullptr;
  bool auto_commit_ = true;
  ReplicationStats stats_;
};

}  // namespace qres
