// Trace file format (DESIGN.md §13): stable text round trip, parse
// diagnostics on malformed input, end-to-end run_trace verdicts, and
// replay of every checked-in regression trace under
// tools/testdata/mc_traces/ — the permanent record of each protocol bug
// the checker found.
#include "mc/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "mc/checker.hpp"
#include "mc/topology.hpp"

namespace qres::mc {
namespace {

const std::vector<Action>& signaling_actions(const TraceFile& trace) {
  return std::get<std::vector<Action>>(trace.actions);
}

TraceFile demo_trace(const char* name) {
  const Topology* t = find_topology(name);
  EXPECT_NE(t, nullptr) << name;
  CheckLimits limits;
  const CheckResult result = check(*t, t->config, limits);
  EXPECT_TRUE(result.violation_found) << name;
  TraceFile trace;
  trace.topology = t->name;
  trace.overrides = config_overrides(t->config);
  trace.expect_violation = true;
  trace.expected_invariant = result.invariant;
  trace.actions = result.trace;
  return trace;
}

TEST(McTrace, FormatParseRoundTripIsExact) {
  const TraceFile trace = demo_trace("demo-stale");
  const std::string text = format_trace(trace);
  EXPECT_EQ(text.rfind("# qres_mc trace v1", 0), 0u);
  EXPECT_EQ(text.back(), '\n');
  TraceFile parsed;
  std::string error;
  ASSERT_TRUE(parse_trace(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.topology, trace.topology);
  EXPECT_EQ(parsed.overrides, trace.overrides);
  EXPECT_EQ(parsed.expect_violation, trace.expect_violation);
  EXPECT_EQ(parsed.expected_invariant, trace.expected_invariant);
  ASSERT_EQ(signaling_actions(parsed).size(), signaling_actions(trace).size());
  // Format and reparse again: the text form is a fixed point.
  EXPECT_EQ(format_trace(parsed), text);
}

TEST(McTrace, RunTraceAcceptsAFreshCounterexample) {
  const TraceFile trace = demo_trace("demo-strand");
  std::string error;
  EXPECT_TRUE(run_trace(trace, &error)) << error;
}

TEST(McTrace, RunTraceRejectsAWrongExpectation) {
  TraceFile trace = demo_trace("demo-stale");
  trace.expected_invariant = "no-double-grant";  // actually phantom-grant
  std::string error;
  EXPECT_FALSE(run_trace(trace, &error));
  EXPECT_FALSE(error.empty());
}

TEST(McTrace, RunTraceRejectsAnUnknownTopology) {
  TraceFile trace;
  trace.topology = "no-such-topology";
  std::string error;
  EXPECT_FALSE(run_trace(trace, &error));
  EXPECT_NE(error.find("no-such-topology"), std::string::npos) << error;
}

TEST(McTrace, ParseRejectsMalformedInput) {
  const struct {
    const char* text;
    const char* why;
  } cases[] = {
      {"# qres_mc trace v1\nexpect: ok\n", "missing topology"},
      {"# qres_mc trace v1\ntopology: single\nexpect: ok\nbogus line\n",
       "not key: value"},
      {"# qres_mc trace v1\ntopology: single\n", "missing expect"},
      {"# qres_mc trace v1\ntopology: single\nexpect: maybe\n",
       "bad expect verdict"},
      {"# qres_mc trace v1\ntopology: single\nexpect: ok\naction: warp c0\n",
       "unknown action verb"},
      {"# qres_mc trace v1\ntopology: single\nconfig: bogus_flag=1\n"
       "expect: ok\n",
       "unknown config key"},
  };
  for (const auto& c : cases) {
    TraceFile out;
    std::string error;
    EXPECT_FALSE(parse_trace(c.text, &out, &error)) << c.why;
    EXPECT_FALSE(error.empty()) << c.why;
  }
}

TEST(McTrace, ParseActionRoundTripsEveryVerbInATrace) {
  const TraceFile trace = demo_trace("demo-dedup");
  for (const Action& action : signaling_actions(trace)) {
    Action parsed;
    ASSERT_TRUE(parse_action(to_string(action), &parsed))
        << to_string(action);
    EXPECT_EQ(parsed.kind, action.kind) << to_string(action);
    EXPECT_EQ(parsed.request_id, action.request_id) << to_string(action);
    EXPECT_EQ(parsed.frame_hash, action.frame_hash) << to_string(action);
  }
}

TEST(McTrace, CheckedInRegressionTracesAllReplay) {
  const std::filesystem::path dir =
      std::filesystem::path(QRES_SOURCE_DIR) / "tools" / "testdata" /
      "mc_traces";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".trace") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  // One pinned trace per protocol bug the checker found, at minimum.
  ASSERT_GE(files.size(), 5u);
  for (const std::filesystem::path& path : files) {
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    // The directory mixes signaling and failover traces; each file's
    // header line names its model.
    TraceFile trace;
    ASSERT_TRUE(parse_trace(text.str(), &trace, &error))
        << path << ": " << error;
    EXPECT_TRUE(run_trace(trace, &error)) << path << ": " << error;
  }
}

}  // namespace
}  // namespace qres::mc
