// Explicit-state checking of the replication / failover protocol
// (DESIGN.md §14): a ReplicatedBroker group driven action by action.
//
// The signaling checker (world.hpp) explores the client/service frame
// protocol; this module explores the *group* protocol underneath it —
// grants at specific replicas, replica crashes and journal-recovery
// restarts, standby promotion under fresh epochs, and a partitionable
// ship transport — with every nondeterministic choice an enumerable
// action. The objects under test are the real ReplicatedBroker and
// ResourceBroker, not models of them.
//
// Invariants, re-checked after every action:
//   * no-split-brain — at most one live replica serves in primary role.
//     Epoch fencing enforces it: promotion fences the deposed primary,
//     and a deposed primary that restarts comes back fenced. With
//     `fencing = false` the failover-split-brain demo topology reaches
//     the violation in three actions (crash old, promote new, restart
//     old) — the pinned trace under tools/testdata/mc_traces/.
//   * confirmed-conservation — the sum of *confirmed* grants never
//     exceeds capacity. In sync mode a grant confirms only after quorum,
//     so a mid-epoch primary kill cannot confirm-and-lose; without
//     fencing a deposed primary confirms grants against a diverged
//     shadow and the sum overshoots.
//
// The shared checker (checker.hpp) searches this world exactly as it
// searches the signaling World. ReplicatedBroker owns its journals and
// capture sinks, so a deep copy is not meaningful: clone() rebuilds the
// group by replaying the world's own action history, cheap at these
// depths. independent() is always false, so sleep sets stay empty and
// partial-order reduction prunes nothing for this model.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "broker/replication.hpp"

namespace qres::mc {

enum class FailoverActionKind : std::uint8_t {
  kGrant,      ///< session reserves at a specific replica
  kCrash,      ///< replica process crashes (journal survives)
  kRestart,    ///< crashed replica restarts (recovers from its journal)
  kPromote,    ///< standby adopts next_epoch and serves as primary
  kPartition,  ///< ship transport drops everything until healed
  kHeal,       ///< transport back up; primary re-ships on next flush
};

const char* to_string(FailoverActionKind kind) noexcept;

struct FailoverAction {
  FailoverActionKind kind{};
  std::int32_t replica = -1;  ///< target replica index (grant/crash/...)
  std::int32_t session = -1;  ///< granting session index (kGrant only)

  friend bool operator==(const FailoverAction&, const FailoverAction&) =
      default;
  friend auto operator<=>(const FailoverAction&, const FailoverAction&) =
      default;
};

/// One stable trace line ("grant s1 r0", "promote r1", "partition").
std::string to_string(const FailoverAction& action);
bool parse_action(const std::string& line, FailoverAction* out);

/// The sleep-set independence oracle: no two group actions are declared
/// commuting (every action can touch every replica through shipping).
inline bool independent(const FailoverAction&, const FailoverAction&) {
  return false;
}

/// A closed replica-group scenario: budgets bound the state space.
struct FailoverTopology {
  std::string name;
  std::string summary;
  std::size_t replicas = 3;
  double capacity = 1.0;
  double amount = 0.6;   ///< per-grant amount (two grants overshoot)
  int sessions = 2;      ///< distinct granting sessions
  int attempts_per_session = 1;  ///< grant attempts (failed ones count)
  ReplicationMode mode = ReplicationMode::kSync;
  std::size_t quorum = 0;  ///< 0 = majority
  /// Async shipping lag bound. Small enough and every grant ships
  /// inside a model step; large enough and the confirmed-but-unshipped
  /// window stays open for the checker to exploit.
  std::size_t async_lag = 2;
  bool fencing = true;
  int max_crashes = 1;
  int max_restarts = 1;
  int max_promotions = 1;
  bool allow_partition = false;
  int max_partitions = 1;
  bool expect_violation = false;
  std::string expected_invariant;
};

/// The real group plus the scripted-world bookkeeping.
class FailoverWorld {
 public:
  explicit FailoverWorld(const FailoverTopology& topology);
  FailoverWorld(FailoverWorld&&) noexcept;
  FailoverWorld& operator=(FailoverWorld&&) noexcept;
  ~FailoverWorld();

  /// A fresh world with this one's action history replayed onto it.
  FailoverWorld clone() const;

  /// Empty in a violating state (violations are terminal).
  std::vector<FailoverAction> enabled() const;
  /// Applies one action (must be enabled) and re-checks the invariants.
  void apply(const FailoverAction& action);
  /// No quiescent-state invariant in this model.
  void check_quiescent() {}

  const std::string& violation() const noexcept { return violation_; }
  std::pair<std::uint64_t, std::uint64_t> canonical_key() const;

  const ReplicatedBroker& group() const noexcept { return *group_; }
  double confirmed_total() const noexcept { return confirmed_; }

 private:
  class DropTransport;

  void check_invariants();

  const FailoverTopology* topo_;
  std::unique_ptr<ReplicatedBroker> group_;
  std::unique_ptr<DropTransport> transport_;
  double now_ = 0.0;  ///< model time: one unit per action
  std::vector<int> attempts_left_;   ///< per session
  std::vector<bool> granted_;        ///< per session: confirmed grant held
  double confirmed_ = 0.0;
  int crashes_left_;
  int restarts_left_;
  int promotions_left_;
  int partitions_left_;
  bool partitioned_ = false;
  std::string violation_;
  std::vector<FailoverAction> history_;  ///< every applied action, in order
};

/// Built-in failover topologies (verification targets first, the
/// fencing-off split-brain demo last).
const std::vector<FailoverTopology>& all_failover_topologies();
const FailoverTopology* find_failover_topology(const std::string& name);

}  // namespace qres::mc
