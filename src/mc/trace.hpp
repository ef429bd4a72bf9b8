// Replayable counterexample traces (DESIGN.md §13).
//
// A trace file pins one checker run's counterexample (or expected-clean
// replay) in a stable text form:
//
//   # qres_mc trace v1
//   topology: demo-dedup
//   config: rebuild_dedup_on_restart=0
//   expect: violation no-double-grant
//   action: start c0
//   action: deliver b0 id 101 h 6f0e...
//   ...
//
// The header line names the model: `# qres_mc trace v1` is the
// signaling World, `# qres_mc failover-trace v1` the replica-group
// FailoverWorld (DESIGN.md §14), whose action lines read "grant s0 r0",
// "promote r1", ... `topology:` names a built-in micro-topology of that
// model, `config:` lines (signaling only) override its protocol flags
// (one key=value per line), and `expect:` is either `ok` or
// `violation <invariant>`. Replaying applies each action to a fresh
// world and verifies the expected outcome — checked-in traces under
// tools/testdata/mc_traces/ are permanent regressions for every protocol
// bug the checker found.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "mc/failover.hpp"
#include "mc/topology.hpp"
#include "mc/world.hpp"

namespace qres::mc {

struct TraceFile {
  std::string topology;
  std::vector<std::string> overrides;  ///< "key=value" config lines
  bool expect_violation = false;
  std::string expected_invariant;  ///< set when expect_violation
  /// The alternative held is the model (and picks the header line).
  std::variant<std::vector<Action>, std::vector<FailoverAction>> actions;
};

/// Renders a trace file (stable text; ends with a newline).
std::string format_trace(const TraceFile& trace);

/// Parses trace text; a leading failover header selects the failover
/// model, anything else the signaling one. Returns false (and fills
/// *error) on malformed input; never throws.
bool parse_trace(const std::string& text, TraceFile* out, std::string* error);

/// Parses one action line body ("deliver b0 id 101 h ..."). The parsed
/// action carries destination/id/hash identity; the owner field is
/// resolved at replay time against the enabled set.
bool parse_action(const std::string& line, Action* out);

/// Replays a parsed trace against its named topology and verifies the
/// expected verdict. Returns false with a diagnostic in *error when the
/// topology is unknown, an action is not enabled, or the outcome differs.
bool run_trace(const TraceFile& trace, std::string* error);

}  // namespace qres::mc
