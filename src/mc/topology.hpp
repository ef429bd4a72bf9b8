// Micro-topologies and protocol-variant configuration for the explicit-
// state model checker (DESIGN.md §13).
//
// A topology is a tiny closed system: one or two single-resource broker
// processes (each with its own registry, journal and BrokerService — a
// process boundary, exactly what crashes) plus a handful of scripted
// clients. Every nondeterministic choice the real deployment leaves to
// the network, the clock or the failure model becomes an explicit checker
// action, so the state space is finite and exhaustively explorable.
//
// McConfig's protocol flags are the interesting part: each one toggles a
// bug the checker originally found between its broken and fixed variant.
// Defaults are the fixed protocol; the demo-* topologies flip one flag
// back so the counterexample stays reproducible (and its minimized trace
// stays replayable from tools/testdata/mc_traces/).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qres::mc {

/// One broker process in the model: a single leaf resource plus its
/// durability and failure budget.
struct BrokerSpec {
  std::string name = "r";
  double capacity = 1.0;
  bool journaled = true;  ///< attach a MemoryJournal (crash durability)
  bool compact = true;    ///< journal compaction on snapshot
  std::size_t snapshot_every = 64;
  int max_crashes = 0;           ///< how many times this process may crash
  std::size_t max_tail_loss = 0; ///< max un-fsynced records lost per crash
  double restart_grace = 0.0;    ///< lease grace granted on restart
};

/// One scripted client: a session that reserves on a single broker, then
/// renews/tears down/retries within explicit budgets. Budgets bound the
/// state space; every budgeted move is a checker action, so all
/// interleavings within the budget are explored.
struct ClientSpec {
  std::uint32_t session = 1;
  int broker = 0;       ///< index into Topology::brokers
  double amount = 0.5;
  double lease = 0.0;   ///< 0 = permanent reservation
  int max_retries = 1;  ///< same-request-id retransmissions
  int max_dups = 0;     ///< network duplications of this client's frames
  int max_renews = 0;   ///< lease renewal requests
  int max_rereserves = 0;  ///< re-reserve episodes after an observed expiry
  bool may_abandon = false;  ///< client process may crash silently
};

/// Protocol-variant flags plus the client-side rules the checker drives.
/// All defaults are the *fixed* protocol; each `false` reproduces a bug
/// the checker found (see the demo-* topologies).
struct McConfig {
  /// Server answers kBrokerDown at ingress before consulting the dedup
  /// cache (BrokerService's only ordering). Off: the world serves a
  /// request for a down broker from the cache when it can — a stale
  /// cached kOk for a broker whose journal tail (and with it the cached
  /// execution) is about to be lost.
  bool down_check_before_dedup = true;
  /// Server rebuilds the request-id replay cache from the retained
  /// journal on broker restart. Off: a retried request whose first
  /// execution survived in the journal executes twice (double grant).
  bool rebuild_dedup_on_restart = true;
  /// The replay cache lives outside the broker process (a separate RPC
  /// frontend) and survives its crash. Off (default): cache dies with
  /// the process. The stale-cache ordering bug needs this on.
  bool dedup_survives_crash = false;
  /// Clients schedule renewals from the reply's authoritative
  /// lease_deadline (wire v2). Off: the client derives the deadline from
  /// its own receive time and overshoots the broker's (phantom grant).
  bool client_trusts_reply_deadline = true;
  /// A client re-reserving after an observed expiry releases its session
  /// first. Off: if the broker still holds (e.g. restart grace extended
  /// the server-side deadline), the new grant accumulates (double grant).
  bool rereserve_releases_first = true;
};

/// A named micro-topology with the flag overrides and expected verdict
/// that make it a self-contained check.
struct Topology {
  std::string name;
  std::string summary;  ///< one line for `qres_mc --list`
  std::vector<BrokerSpec> brokers;
  std::vector<ClientSpec> clients;
  McConfig config;                 ///< flag variant this topology checks
  bool expect_violation = false;   ///< demo topologies expect a bug
  std::string expected_invariant;  ///< which invariant the demo violates
  /// Suppress the quiescent no-stranded check (the permanent-strand demo
  /// violates it on purpose — everything else must pass it).
  bool allow_stranded = false;
};

/// Every built-in micro-topology, verification targets first, demo
/// (expected-violation) topologies after.
const std::vector<Topology>& all_topologies();

/// Topology by name; nullptr when unknown.
const Topology* find_topology(const std::string& name);

/// Applies one "key=value" override to `config` (values 0/1). Returns
/// false (config untouched) for an unknown key or malformed pair.
bool apply_config_override(McConfig* config, const std::string& pair);

/// The overrides that differ from a default-constructed McConfig, as
/// "key=value" strings (trace-file serialization).
std::vector<std::string> config_overrides(const McConfig& config);

}  // namespace qres::mc
