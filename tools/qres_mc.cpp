// qres_mc — explicit-state model checker for the signaling x lease x
// crash-restart protocol (DESIGN.md §13) and the replication/failover
// protocol (DESIGN.md §14).
//
//   qres_mc list
//       one line per built-in micro-topology (verification targets and
//       expected-violation demos), signaling and failover alike;
//       failover topology names start with "failover-"
//   qres_mc check <topology> [--states N] [--depth N] [--no-por]
//                 [--config key=value]... [--emit-trace <file>]
//       exhaustive DFS (mc/checker.hpp, one search for both models)
//       over the topology under its protocol flags, plus any --config
//       overrides (signaling topologies only); prints distinct states,
//       transitions, sleep-set reduction (always 0 for failover
//       topologies), frontier depth, states/sec and the verdict. On a
//       violation the minimized counterexample is printed (and written
//       with --emit-trace). Exit: 0 when the outcome matches the
//       topology's expected verdict, 1 otherwise, 2 on usage errors.
//   qres_mc replay <trace-file>...
//       parses each trace (its header line names the model), replays it
//       against its named topology and verifies the expected verdict.
//       Exit 0 iff every trace passes.
//   qres_mc sweep [--states N] [--depth N] [--allow-inconclusive]
//       checks every built-in topology under its own flags and compares
//       each verdict with the expectation. The CI gate: the release lane
//       runs it with a budget wide enough for full verification, the
//       sanitizer lane bounds the budget and passes --allow-inconclusive
//       (a verify topology may run out of budget, but a violation — or a
//       demo missing its counterexample — still fails).
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "mc/checker.hpp"
#include "mc/failover.hpp"
#include "mc/topology.hpp"
#include "mc/trace.hpp"

using namespace qres;

namespace {

struct CheckOptions {
  mc::CheckLimits limits;
  std::vector<std::string> overrides;
  std::string emit_trace;
  /// Budget exhaustion on a verify topology is acceptable (bounded CI
  /// lanes); violations and missing demo counterexamples still fail.
  bool allow_inconclusive = false;
};

int usage() {
  std::cerr
      << "usage: qres_mc list\n"
      << "       qres_mc check <topology> [--states N] [--depth N]"
         " [--no-por]\n"
      << "                [--config key=value]... [--emit-trace <file>]\n"
      << "       qres_mc replay <trace-file>...\n"
      << "       qres_mc sweep [--states N] [--depth N]"
         " [--allow-inconclusive]\n";
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  *out = 0;
  for (const char ch : text) {
    if (ch < '0' || ch > '9') return false;
    *out = *out * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  return true;
}

/// Parses the flags shared by `check` and `sweep`. Returns false (after
/// printing a diagnostic) on a malformed flag.
bool parse_check_flags(int argc, char** argv, int first, CheckOptions* out) {
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "qres_mc: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--states") {
      const char* value = need_value();
      if (value == nullptr || !parse_u64(value, &out->limits.max_states)) {
        std::cerr << "qres_mc: --states wants a number\n";
        return false;
      }
    } else if (flag == "--depth") {
      const char* value = need_value();
      std::uint64_t depth = 0;
      if (value == nullptr || !parse_u64(value, &depth)) {
        std::cerr << "qres_mc: --depth wants a number\n";
        return false;
      }
      out->limits.max_depth = static_cast<std::size_t>(depth);
    } else if (flag == "--no-por") {
      out->limits.por = false;
    } else if (flag == "--allow-inconclusive") {
      out->allow_inconclusive = true;
    } else if (flag == "--config") {
      const char* value = need_value();
      if (value == nullptr) return false;
      mc::McConfig probe;
      if (!mc::apply_config_override(&probe, value)) {
        std::cerr << "qres_mc: unknown --config override '" << value << "'\n";
        return false;
      }
      out->overrides.emplace_back(value);
    } else if (flag == "--emit-trace") {
      const char* value = need_value();
      if (value == nullptr) return false;
      out->emit_trace = value;
    } else {
      std::cerr << "qres_mc: unknown flag '" << flag << "'\n";
      return false;
    }
  }
  return true;
}

/// The model-specific half of check_one: runs the search and records the
/// config lines a trace of it needs.
mc::CheckResult<mc::Action> run_check(const mc::Topology& topology,
                                      const CheckOptions& options,
                                      std::vector<std::string>* overrides) {
  mc::McConfig config = topology.config;
  for (const std::string& pair : options.overrides)
    mc::apply_config_override(&config, pair);
  *overrides = mc::config_overrides(config);
  return mc::check(topology, config, options.limits);
}

mc::CheckResult<mc::FailoverAction> run_check(
    const mc::FailoverTopology& topology, const CheckOptions& options,
    std::vector<std::string>* /*overrides*/) {
  return mc::check(topology, options.limits);
}

/// Runs the checker on one topology (signaling or failover) and prints
/// the stats block. Returns whether the outcome matches the topology's
/// expected verdict.
template <class T>
bool check_one(const T& topology, const CheckOptions& options,
               bool print_trace) {
  mc::TraceFile trace;
  trace.topology = topology.name;
  const auto start = std::chrono::steady_clock::now();
  const auto result = run_check(topology, options, &trace.overrides);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const std::uint64_t considered = result.transitions + result.sleep_pruned;
  const double reduction =
      considered == 0
          ? 0.0
          : static_cast<double>(result.sleep_pruned) /
                static_cast<double>(considered);
  std::cout << "qres_mc: " << topology.name << " — " << topology.summary
            << "\n"
            << "  distinct states  " << result.distinct_states << "\n"
            << "  transitions      " << result.transitions << "\n"
            << "  revisits         " << result.revisits << "\n"
            << "  sleep-pruned     " << result.sleep_pruned << " (reduction "
            << reduction << ")\n"
            << "  frontier depth   " << result.deepest << "\n"
            << "  states/sec       "
            << (seconds > 0.0
                    ? static_cast<std::uint64_t>(
                          static_cast<double>(result.distinct_states) /
                          seconds)
                    : result.distinct_states)
            << "\n";

  if (result.violation_found) {
    std::cout << "  verdict          VIOLATION " << result.invariant << " ("
              << result.trace.size() << "-step minimized trace)\n";
    if (print_trace)
      for (const auto& action : result.trace)
        std::cout << "    action: " << mc::to_string(action) << "\n";
    if (!options.emit_trace.empty()) {
      trace.expect_violation = true;
      trace.expected_invariant = result.invariant;
      trace.actions = result.trace;
      std::ofstream file(options.emit_trace);
      file << mc::format_trace(trace);
      if (!file) {
        std::cerr << "qres_mc: cannot write " << options.emit_trace << "\n";
        return false;
      }
      std::cout << "  trace written to " << options.emit_trace << "\n";
    }
  } else if (result.budget_exhausted) {
    std::cout << "  verdict          INCONCLUSIVE (budget exhausted)\n";
  } else {
    std::cout << "  verdict          VERIFIED (exhaustive, no violation)\n";
  }

  // Overrides change the protocol under test; the topology's baked-in
  // expectation only applies to its own flag set.
  if (!options.overrides.empty())
    return !result.budget_exhausted || options.allow_inconclusive;
  const bool expected =
      topology.expect_violation
          ? result.violation_found &&
                result.invariant == topology.expected_invariant
          : result.verified() ||
                (options.allow_inconclusive && !result.violation_found);
  if (!expected)
    std::cout << "  EXPECTATION MISMATCH: wanted "
              << (topology.expect_violation
                      ? "violation " + topology.expected_invariant
                      : std::string("verified"))
              << "\n";
  return expected;
}

template <class T>
void list_rows(const std::vector<T>& topologies) {
  for (const T& topology : topologies) {
    std::cout << "  " << topology.name;
    for (std::size_t i = topology.name.size(); i < 28; ++i) std::cout << ' ';
    std::cout << (topology.expect_violation
                      ? "violation " + topology.expected_invariant
                      : std::string("verify"));
    std::cout << "  " << topology.summary << "\n";
  }
}

int cmd_list() {
  list_rows(mc::all_failover_topologies());
  list_rows(mc::all_topologies());
  return 0;
}

int cmd_check(int argc, char** argv) {
  if (argc < 3) return usage();
  CheckOptions options;
  const mc::Topology* topology = mc::find_topology(argv[2]);
  if (topology != nullptr) {
    if (!parse_check_flags(argc, argv, 3, &options)) return 2;
    return check_one(*topology, options, /*print_trace=*/true) ? 0 : 1;
  }
  const mc::FailoverTopology* failover = mc::find_failover_topology(argv[2]);
  if (failover == nullptr) {
    std::cerr << "qres_mc: unknown topology '" << argv[2]
              << "' (try: qres_mc list)\n";
    return 2;
  }
  if (!parse_check_flags(argc, argv, 3, &options)) return 2;
  if (!options.overrides.empty()) {
    // --config keys name signaling protocol flags; the failover model's
    // knobs are baked into its topologies.
    std::cerr << "qres_mc: --config does not apply to failover topologies\n";
    return 2;
  }
  return check_one(*failover, options, /*print_trace=*/true) ? 0 : 1;
}

int cmd_replay(int argc, char** argv) {
  if (argc < 3) return usage();
  bool all_ok = true;
  for (int i = 2; i < argc; ++i) {
    std::ifstream file(argv[i]);
    if (!file) {
      std::cerr << "qres_mc: cannot open " << argv[i] << "\n";
      all_ok = false;
      continue;
    }
    std::ostringstream text;
    text << file.rdbuf();
    std::string error;
    mc::TraceFile trace;
    if (!mc::parse_trace(text.str(), &trace, &error)) {
      std::cout << argv[i] << ": PARSE ERROR (" << error << ")\n";
      all_ok = false;
      continue;
    }
    if (!mc::run_trace(trace, &error)) {
      std::cout << argv[i] << ": FAILED (" << error << ")\n";
      all_ok = false;
      continue;
    }
    const std::size_t steps = std::visit(
        [](const auto& actions) { return actions.size(); }, trace.actions);
    std::cout << argv[i] << ": ok (" << steps << " action(s), "
              << (trace.expect_violation
                      ? "violation " + trace.expected_invariant
                      : std::string("clean"))
              << ")\n";
  }
  std::cout << (all_ok ? "replay: every trace matches its expectation\n"
                       : "replay: FAILED\n");
  return all_ok ? 0 : 1;
}

int cmd_sweep(int argc, char** argv) {
  CheckOptions options;
  if (!parse_check_flags(argc, argv, 2, &options)) return 2;
  if (!options.overrides.empty() || !options.emit_trace.empty()) {
    std::cerr << "qres_mc: sweep takes only --states/--depth/--no-por\n";
    return 2;
  }
  bool all_ok = true;
  for (const mc::Topology& topology : mc::all_topologies())
    all_ok = check_one(topology, options, /*print_trace=*/false) && all_ok;
  for (const mc::FailoverTopology& topology : mc::all_failover_topologies())
    all_ok = check_one(topology, options, /*print_trace=*/false) && all_ok;
  std::cout << (all_ok ? "sweep: every topology matches its expected verdict\n"
                       : "sweep: FAILED\n");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "list") return cmd_list();
  if (command == "check") return cmd_check(argc, argv);
  if (command == "replay") return cmd_replay(argc, argv);
  if (command == "sweep") return cmd_sweep(argc, argv);
  return usage();
}
