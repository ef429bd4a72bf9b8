// Failover model on the shared checker (DESIGN.md §14): exhaustive
// verification of the fenced sync/async topologies, honest depth-budget
// reporting, the split-brain and async-loss-window demo counterexamples,
// trace minimality and replay, the action/trace text round trip, and the
// promotion safety rule the partition topology originally caught (a
// lagging standby must not be promotable past a live caught-up one).
#include "mc/failover.hpp"

#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "mc/checker.hpp"
#include "mc/trace.hpp"

namespace qres::mc {
namespace {

const FailoverTopology& topo(const char* name) {
  const FailoverTopology* t = find_failover_topology(name);
  EXPECT_NE(t, nullptr) << name;
  return *t;
}

CheckLimits limits() {
  CheckLimits l;
  l.max_states = 200000;
  l.max_depth = 24;
  return l;
}

TEST(FailoverMc, FencedSyncTopologyVerifiesExhaustively) {
  const CheckResult result =
      check(topo("failover-sync-fenced"), limits());
  EXPECT_TRUE(result.verified());
  EXPECT_FALSE(result.violation_found);
  EXPECT_GT(result.distinct_states, 50u);
  EXPECT_GT(result.transitions, result.distinct_states);
}

TEST(FailoverMc, PartitionTopologyVerifiesExhaustively) {
  // Promotion under false suspicion (live primary behind a partition)
  // must fence the old primary and must refuse lagging candidates — the
  // double grant this topology found before the catch-up rule existed.
  const CheckResult result =
      check(topo("failover-sync-partition"), limits());
  EXPECT_TRUE(result.verified());
  EXPECT_FALSE(result.violation_found);
}

TEST(FailoverMc, DepthBudgetExhaustionIsReported) {
  // Two actions cannot cover the group's crash/promote/restart cycles: a
  // depth-bounded search must say INCONCLUSIVE, never VERIFIED.
  CheckLimits shallow = limits();
  shallow.max_depth = 2;
  const CheckResult result = check(topo("failover-sync-fenced"), shallow);
  EXPECT_FALSE(result.verified());
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_FALSE(result.violation_found);
}

TEST(FailoverMc, AsyncTightLagVerifiesExhaustively) {
  const CheckResult result =
      check(topo("failover-async-tight"), limits());
  EXPECT_TRUE(result.verified());
}

TEST(FailoverMc, EveryDemoTopologyYieldsItsExpectedCounterexample) {
  for (const FailoverTopology& t : all_failover_topologies()) {
    if (!t.expect_violation) continue;
    const CheckResult result = check(t, limits());
    EXPECT_TRUE(result.violation_found) << t.name;
    EXPECT_EQ(result.invariant, t.expected_invariant) << t.name;
    ASSERT_FALSE(result.trace.empty()) << t.name;
    std::string violated;
    EXPECT_TRUE(replay(t, result.trace, &violated)) << t.name;
    EXPECT_EQ(violated, t.expected_invariant) << t.name;
  }
}

TEST(FailoverMc, SplitBrainCounterexampleIsTheThreeStepRestart) {
  // crash old primary -> promote a standby -> restart the old primary,
  // which (fencing off) still believes it serves: two live primaries.
  const CheckResult result =
      check(topo("failover-nofence-splitbrain"), limits());
  ASSERT_TRUE(result.violation_found);
  ASSERT_EQ(result.trace.size(), 3u);
  EXPECT_EQ(to_string(result.trace[0]), "crash r0");
  EXPECT_EQ(result.trace[1].kind, FailoverActionKind::kPromote);
  EXPECT_EQ(to_string(result.trace[2]), "restart r0");
}

TEST(FailoverMc, CounterexamplesAreOneMinimal) {
  for (const FailoverTopology& t : all_failover_topologies()) {
    if (!t.expect_violation) continue;
    const CheckResult result = check(t, limits());
    ASSERT_TRUE(result.violation_found) << t.name;
    for (std::size_t i = 0; i < result.trace.size(); ++i) {
      std::vector<FailoverAction> shorter = result.trace;
      shorter.erase(shorter.begin() + static_cast<std::ptrdiff_t>(i));
      std::string violated;
      const bool replayed = replay(t, shorter, &violated);
      EXPECT_FALSE(replayed && violated == t.expected_invariant)
          << t.name << ": dropping action " << i << " still reproduces";
    }
  }
}

TEST(FailoverMc, FencedWorldNeverEnablesASecondLivePrimary) {
  // Direct world probe: after the canonical crash/promote/restart cycle
  // with fencing ON, the restarted old primary is fenced and cannot
  // grant.
  const FailoverTopology& t = topo("failover-sync-fenced");
  FailoverWorld world(t);
  FailoverAction crash{FailoverActionKind::kCrash, 0, -1};
  FailoverAction promote{FailoverActionKind::kPromote, 1, -1};
  FailoverAction restart{FailoverActionKind::kRestart, 0, -1};
  world.apply(crash);
  world.apply(promote);
  world.apply(restart);
  EXPECT_TRUE(world.violation().empty());
  EXPECT_EQ(world.group().role_of(HostId{0}), ReplicaRole::kFenced);
  // No grant action targeting the fenced replica can confirm anything.
  FailoverAction grant{FailoverActionKind::kGrant, 0, 0};
  world.apply(grant);
  EXPECT_DOUBLE_EQ(world.confirmed_total(), 0.0);
}

TEST(FailoverMc, PromoteRefusesLaggingCandidatePastLiveCaughtUpStandby) {
  // The rule itself, straight on the broker: standby r1 misses a grant
  // (down), r2 acks it; promoting r1 must fail, promoting r2 succeeds.
  const FailoverTopology& t = topo("failover-sync-fenced");
  FailoverWorld world(t);
  world.apply({FailoverActionKind::kCrash, 1, -1});
  world.apply({FailoverActionKind::kGrant, 0, 0});  // quorum via r0+r2
  EXPECT_DOUBLE_EQ(world.confirmed_total(), t.amount);
  world.apply({FailoverActionKind::kRestart, 1, -1});
  EXPECT_LT(world.group().watermark_of(HostId{1}),
            world.group().watermark_of(HostId{2}));
  auto& group = const_cast<ReplicatedBroker&>(world.group());
  EXPECT_FALSE(group.promote(HostId{1}, group.next_epoch(), 10.0));
  EXPECT_TRUE(group.promote(HostId{2}, group.next_epoch(), 10.0));
}

TEST(FailoverMc, ActionTextRoundTrips) {
  const std::vector<std::string> lines = {
      "grant s0 r2", "crash r1", "restart r0",
      "promote r2",  "partition", "heal"};
  for (const std::string& line : lines) {
    FailoverAction action;
    ASSERT_TRUE(parse_action(line, &action)) << line;
    EXPECT_EQ(to_string(action), line);
  }
  FailoverAction action;
  EXPECT_FALSE(parse_action("grant s0", &action));
  EXPECT_FALSE(parse_action("crash x1", &action));
  EXPECT_FALSE(parse_action("partition r0", &action));
  EXPECT_FALSE(parse_action("flood r0", &action));
}

TEST(FailoverMc, TraceFileRoundTripsAndRuns) {
  TraceFile trace;
  trace.topology = "failover-nofence-splitbrain";
  trace.expect_violation = true;
  trace.expected_invariant = "split-brain";
  std::vector<FailoverAction> actions;
  FailoverAction a;
  ASSERT_TRUE(parse_action("crash r0", &a));
  actions.push_back(a);
  ASSERT_TRUE(parse_action("promote r1", &a));
  actions.push_back(a);
  ASSERT_TRUE(parse_action("restart r0", &a));
  actions.push_back(a);
  trace.actions = actions;

  const std::string text = format_trace(trace);
  EXPECT_EQ(text.rfind("# qres_mc failover-trace v1\n", 0), 0u);
  TraceFile parsed;
  std::string error;
  ASSERT_TRUE(parse_trace(text, &parsed, &error)) << error;
  EXPECT_TRUE(std::holds_alternative<std::vector<FailoverAction>>(
      parsed.actions));
  EXPECT_EQ(format_trace(parsed), text);
  EXPECT_TRUE(run_trace(parsed, &error)) << error;

  // A clean replay on the fenced topology must NOT report a violation.
  parsed.topology = "failover-sync-fenced";
  parsed.expect_violation = false;
  parsed.expected_invariant.clear();
  EXPECT_TRUE(run_trace(parsed, &error)) << error;
}

TEST(FailoverMc, MalformedTracesAreRejectedWithDiagnostics) {
  TraceFile out;
  std::string error;
  EXPECT_FALSE(parse_trace("", &out, &error));
  EXPECT_FALSE(parse_trace("# wrong header\n", &out, &error));
  EXPECT_FALSE(parse_trace("# qres_mc failover-trace v1\nexpect: ok\n", &out,
                           &error));
  EXPECT_FALSE(parse_trace(
      "# qres_mc failover-trace v1\ntopology: x\naction: flood r9\n", &out,
      &error));
  // config lines are signaling-only.
  EXPECT_FALSE(parse_trace(
      "# qres_mc failover-trace v1\ntopology: failover-sync-fenced\n"
      "config: rebuild_dedup_on_restart=0\nexpect: ok\n",
      &out, &error));
  // The signaling header selects the signaling model, whose action
  // grammar has no failover verbs.
  EXPECT_FALSE(parse_trace(
      "# qres_mc trace v1\ntopology: failover-sync-fenced\nexpect: ok\n"
      "action: promote r1\n",
      &out, &error));
}

}  // namespace
}  // namespace qres::mc
