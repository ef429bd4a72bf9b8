// Explicit-state DFS checker with canonical-state caching and sleep-set
// partial-order reduction (DESIGN.md §13), one search for both models:
// the signaling World (world.hpp) and the replica-group FailoverWorld
// (failover.hpp, DESIGN.md §14).
//
// The checker explores every interleaving of a world's actions up to a
// depth/state budget. Visited states are keyed by the world's
// canonical_key(); each stores the sleep set it was explored with, and a
// revisit is pruned only when the arriving sleep set is a superset of
// the stored one — otherwise the state is re-explored with the
// intersection. This variant of sleep sets composes soundly with state
// caching: it prunes *transitions* (commuting reorderings) but never
// loses a reachable state, which is what lets the soundness test demand
// bit-equal distinct state counts with the reduction on and off. The
// failover model declares no action independent, so its sleep sets stay
// empty.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mc/failover.hpp"
#include "mc/topology.hpp"
#include "mc/world.hpp"

namespace qres::mc {

struct CheckLimits {
  std::uint64_t max_states = 200000;  ///< distinct canonical states
  std::size_t max_depth = 64;         ///< longest explored action sequence
  bool por = true;                    ///< sleep-set reduction on/off
};

/// `A` is the model's action type: Action or FailoverAction.
template <class A>
struct CheckResult {
  bool violation_found = false;
  std::string invariant;       ///< which invariant broke (when found)
  std::vector<A> trace;        ///< minimized counterexample (when found)
  std::uint64_t distinct_states = 0;
  std::uint64_t transitions = 0;   ///< actions actually applied
  std::uint64_t sleep_pruned = 0;  ///< transitions skipped by sleep sets
  std::uint64_t revisits = 0;      ///< arrivals at an already-keyed state
  std::size_t deepest = 0;         ///< longest path reached
  bool budget_exhausted = false;   ///< hit max_states or max_depth

  /// Exhaustive and clean: every reachable state within the budget was
  /// visited and no invariant broke.
  bool verified() const noexcept {
    return !violation_found && !budget_exhausted;
  }
};

/// Explores `topology` (under `config`, for the signaling model). On
/// violation the returned trace is already minimized (see minimize())
/// and replayable.
CheckResult<Action> check(const Topology& topology, const McConfig& config,
                          const CheckLimits& limits);
CheckResult<FailoverAction> check(const FailoverTopology& topology,
                                  const CheckLimits& limits);

/// Replays `trace` action by action on a fresh world. Returns false when
/// some action is not enabled at its step. `violated` (optional) receives
/// the invariant broken during replay ("" when none — including the
/// quiescent check when the final state has no enabled actions).
bool replay(const Topology& topology, const McConfig& config,
            const std::vector<Action>& trace, std::string* violated);
bool replay(const FailoverTopology& topology,
            const std::vector<FailoverAction>& trace, std::string* violated);

/// Greedy delta-debugging: repeatedly deletes single actions while the
/// remainder still replays to the same `invariant` violation, to a fixed
/// point. The result is 1-minimal (no single action can be removed).
std::vector<Action> minimize(const Topology& topology, const McConfig& config,
                             std::vector<Action> trace,
                             const std::string& invariant);
std::vector<FailoverAction> minimize(const FailoverTopology& topology,
                                     std::vector<FailoverAction> trace,
                                     const std::string& invariant);

}  // namespace qres::mc
