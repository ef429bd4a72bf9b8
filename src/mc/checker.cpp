#include "mc/checker.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>

#include "util/assert.hpp"

namespace qres::mc {

namespace {

template <class W>
using ActionOf =
    typename decltype(std::declval<const W&>().enabled())::value_type;

/// Sleep sets are small sorted action vectors (set semantics).
template <class A>
using SleepSet = std::vector<A>;

template <class A>
bool sleep_contains(const SleepSet<A>& sleep, const A& action) {
  return std::binary_search(sleep.begin(), sleep.end(), action);
}

template <class A>
void sleep_insert(SleepSet<A>* sleep, const A& action) {
  const auto it = std::lower_bound(sleep->begin(), sleep->end(), action);
  if (it == sleep->end() || !(*it == action)) sleep->insert(it, action);
}

template <class A>
bool sleep_superset(const SleepSet<A>& outer, const SleepSet<A>& inner) {
  return std::includes(outer.begin(), outer.end(), inner.begin(),
                       inner.end());
}

template <class A>
SleepSet<A> sleep_intersection(const SleepSet<A>& a, const SleepSet<A>& b) {
  SleepSet<A> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Trace files omit the owner field of signaling frame actions, so a
/// replayed step matches the enabled action carrying the rest of its
/// identity.
bool same_step(const Action& enabled, const Action& step) {
  return enabled.kind == step.kind && enabled.broker == step.broker &&
         enabled.client == step.client && enabled.arg == step.arg &&
         enabled.request_id == step.request_id &&
         enabled.frame_hash == step.frame_hash;
}

bool same_step(const FailoverAction& enabled, const FailoverAction& step) {
  return enabled == step;
}

template <class W>
class Dfs {
 public:
  using A = ActionOf<W>;

  Dfs(const W& initial, const CheckLimits& limits)
      : initial_(initial), limits_(limits) {}

  CheckResult<A> run() {
    W root = initial_.clone();
    std::vector<A> path;
    explore(root, 0, &path, {});
    return std::move(result_);
  }

 private:
  /// Returns true when the search should unwind (violation found or
  /// budget gone in a way that stops everything).
  bool explore(W& world, std::size_t depth, std::vector<A>* path,
               SleepSet<A> sleep) {
    result_.deepest = std::max(result_.deepest, depth);
    const auto key = world.canonical_key();
    const auto [it, fresh] = visited_.try_emplace(key, sleep);
    if (fresh) {
      ++result_.distinct_states;
    } else {
      ++result_.revisits;
      if (sleep_superset(sleep, it->second)) return false;
      // Arriving with sleeps the stored visit did not have: re-explore
      // with the intersection so the union of both visits' explored
      // transitions is covered.
      it->second = sleep_intersection(it->second, sleep);
      sleep = it->second;
    }
    if (result_.distinct_states > limits_.max_states) {
      result_.budget_exhausted = true;
      return true;
    }

    const std::vector<A> actions = world.enabled();
    if (actions.empty()) {
      world.check_quiescent();
      if (!world.violation().empty()) {
        found(world.violation(), *path);
        return true;
      }
      return false;
    }
    if (depth >= limits_.max_depth) {
      result_.budget_exhausted = true;
      return false;
    }

    SleepSet<A> explored;
    for (const A& action : actions) {
      if (limits_.por && sleep_contains(sleep, action)) {
        ++result_.sleep_pruned;
        continue;
      }
      W child = world.clone();
      child.apply(action);
      ++result_.transitions;
      path->push_back(action);
      if (!child.violation().empty()) {
        found(child.violation(), *path);
        return true;
      }
      SleepSet<A> child_sleep;
      if (limits_.por) {
        for (const A& other : sleep)
          if (independent(action, other)) sleep_insert(&child_sleep, other);
        for (const A& other : explored)
          if (independent(action, other)) sleep_insert(&child_sleep, other);
      }
      if (explore(child, depth + 1, path, std::move(child_sleep)))
        return true;
      path->pop_back();
      if (limits_.por) sleep_insert(&explored, action);
    }
    return false;
  }

  void found(const std::string& invariant, const std::vector<A>& path) {
    result_.violation_found = true;
    result_.invariant = invariant;
    result_.trace = path;
  }

  const W& initial_;
  const CheckLimits& limits_;
  CheckResult<A> result_;
  // std::map (ordered) keeps iteration deterministic; keys are the
  // 128-bit canonical hashes.
  std::map<std::pair<std::uint64_t, std::uint64_t>, SleepSet<A>> visited_;
};

/// The model-independent replay: `initial` is a fresh world, cloned so
/// it stays fresh for the next call.
template <class W>
bool replay_from(const W& initial, const std::vector<ActionOf<W>>& trace,
                 std::string* violated) {
  if (violated != nullptr) violated->clear();
  W world = initial.clone();
  for (const auto& step : trace) {
    const auto enabled = world.enabled();
    const auto match = std::find_if(
        enabled.begin(), enabled.end(),
        [&](const auto& action) { return same_step(action, step); });
    if (match == enabled.end()) return false;
    world.apply(*match);
    if (!world.violation().empty()) {
      if (violated != nullptr) *violated = world.violation();
      return true;
    }
  }
  if (world.enabled().empty()) {
    world.check_quiescent();
    if (violated != nullptr) *violated = world.violation();
  }
  return true;
}

template <class W>
std::vector<ActionOf<W>> minimize_from(const W& initial,
                                       std::vector<ActionOf<W>> trace,
                                       const std::string& invariant) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      std::vector<ActionOf<W>> candidate;
      candidate.reserve(trace.size() - 1);
      for (std::size_t j = 0; j < trace.size(); ++j)
        if (j != i) candidate.push_back(trace[j]);
      std::string violated;
      if (replay_from(initial, candidate, &violated) &&
          violated == invariant) {
        trace = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  // The minimized trace must still reproduce — the caller relies on it.
  std::string violated;
  const bool ok = replay_from(initial, trace, &violated);
  QRES_ENSURE(ok && violated == invariant,
              "mc: minimized trace no longer reproduces the violation");
  return trace;
}

template <class W>
CheckResult<ActionOf<W>> check_from(const W& initial,
                                    const CheckLimits& limits) {
  CheckResult<ActionOf<W>> result = Dfs<W>(initial, limits).run();
  if (result.violation_found)
    result.trace =
        minimize_from(initial, std::move(result.trace), result.invariant);
  return result;
}

}  // namespace

CheckResult<Action> check(const Topology& topology, const McConfig& config,
                          const CheckLimits& limits) {
  return check_from(World(topology, config), limits);
}

CheckResult<FailoverAction> check(const FailoverTopology& topology,
                                  const CheckLimits& limits) {
  return check_from(FailoverWorld(topology), limits);
}

bool replay(const Topology& topology, const McConfig& config,
            const std::vector<Action>& trace, std::string* violated) {
  return replay_from(World(topology, config), trace, violated);
}

bool replay(const FailoverTopology& topology,
            const std::vector<FailoverAction>& trace, std::string* violated) {
  return replay_from(FailoverWorld(topology), trace, violated);
}

std::vector<Action> minimize(const Topology& topology, const McConfig& config,
                             std::vector<Action> trace,
                             const std::string& invariant) {
  return minimize_from(World(topology, config), std::move(trace), invariant);
}

std::vector<FailoverAction> minimize(const FailoverTopology& topology,
                                     std::vector<FailoverAction> trace,
                                     const std::string& invariant) {
  return minimize_from(FailoverWorld(topology), std::move(trace), invariant);
}

}  // namespace qres::mc
