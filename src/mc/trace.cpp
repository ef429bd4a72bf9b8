#include "mc/trace.hpp"

#include <cstdint>
#include <sstream>
#include <type_traits>
#include <variant>

#include "mc/checker.hpp"

namespace qres::mc {

namespace {

constexpr const char* kTraceHeader = "# qres_mc trace v1";
constexpr const char* kFailoverTraceHeader = "# qres_mc failover-trace v1";

/// "b3" -> (broker 3), "c1" -> (client 1).
bool parse_endpoint(const std::string& token, std::int32_t* broker,
                    std::int32_t* client) {
  *broker = -1;
  *client = -1;
  if (token.size() < 2 || (token[0] != 'b' && token[0] != 'c')) return false;
  int value = 0;
  for (std::size_t i = 1; i < token.size(); ++i) {
    if (token[i] < '0' || token[i] > '9') return false;
    value = value * 10 + (token[i] - '0');
  }
  (token[0] == 'b' ? *broker : *client) = value;
  return true;
}

bool parse_hex64(const std::string& token, std::uint64_t* out) {
  if (token.empty() || token.size() > 16) return false;
  *out = 0;
  for (const char ch : token) {
    int digit;
    if (ch >= '0' && ch <= '9')
      digit = ch - '0';
    else if (ch >= 'a' && ch <= 'f')
      digit = ch - 'a' + 10;
    else
      return false;
    *out = (*out << 4) | static_cast<std::uint64_t>(digit);
  }
  return true;
}

}  // namespace

bool parse_action(const std::string& line, Action* out) {
  std::istringstream in(line);
  std::string verb;
  if (!(in >> verb)) return false;
  *out = Action{};

  const auto kind_of = [&](const std::string& v, ActionKind* kind) {
    for (const ActionKind k :
         {ActionKind::kStart, ActionKind::kRetry, ActionKind::kGiveUp,
          ActionKind::kRenew, ActionKind::kTeardown, ActionKind::kAbandon,
          ActionKind::kObserveExpired, ActionKind::kDeliver, ActionKind::kDrop,
          ActionKind::kDup, ActionKind::kExpire, ActionKind::kCrash,
          ActionKind::kRestart}) {
      if (v == to_string(k)) {
        *kind = k;
        return true;
      }
    }
    return false;
  };
  if (!kind_of(verb, &out->kind)) return false;

  std::string token;
  switch (out->kind) {
    case ActionKind::kStart:
    case ActionKind::kRetry:
    case ActionKind::kGiveUp:
    case ActionKind::kRenew:
    case ActionKind::kTeardown:
    case ActionKind::kAbandon:
    case ActionKind::kObserveExpired: {
      if (!(in >> token)) return false;
      std::int32_t broker;
      if (!parse_endpoint(token, &broker, &out->client) || out->client < 0)
        return false;
      break;
    }
    case ActionKind::kDeliver:
    case ActionKind::kDrop:
    case ActionKind::kDup: {
      std::string id_kw;
      std::string id_val;
      std::string h_kw;
      std::string h_val;
      if (!(in >> token >> id_kw >> id_val >> h_kw >> h_val)) return false;
      if (id_kw != "id" || h_kw != "h") return false;
      if (!parse_endpoint(token, &out->broker, &out->client)) return false;
      out->request_id = 0;
      for (const char ch : id_val) {
        if (ch < '0' || ch > '9') return false;
        out->request_id = out->request_id * 10 + (ch - '0');
      }
      if (!parse_hex64(h_val, &out->frame_hash)) return false;
      break;
    }
    case ActionKind::kExpire:
    case ActionKind::kRestart: {
      if (!(in >> token)) return false;
      std::int32_t client;
      if (!parse_endpoint(token, &out->broker, &client) || out->broker < 0)
        return false;
      break;
    }
    case ActionKind::kCrash: {
      std::string loss_kw;
      int loss = 0;
      if (!(in >> token >> loss_kw >> loss)) return false;
      std::int32_t client;
      if (loss_kw != "loss" || loss < 0 ||
          !parse_endpoint(token, &out->broker, &client) || out->broker < 0)
        return false;
      out->arg = loss;
      break;
    }
  }
  std::string trailing;
  if (in >> trailing) return false;
  return true;
}

std::string format_trace(const TraceFile& trace) {
  std::string out =
      std::holds_alternative<std::vector<FailoverAction>>(trace.actions)
          ? kFailoverTraceHeader
          : kTraceHeader;
  out += "\n";
  out += "topology: " + trace.topology + "\n";
  for (const std::string& pair : trace.overrides)
    out += "config: " + pair + "\n";
  out += trace.expect_violation
             ? "expect: violation " + trace.expected_invariant + "\n"
             : "expect: ok\n";
  std::visit(
      [&](const auto& actions) {
        for (const auto& action : actions)
          out += "action: " + to_string(action) + "\n";
      },
      trace.actions);
  return out;
}

bool parse_trace(const std::string& text, TraceFile* out,
                 std::string* error) {
  *out = TraceFile{};
  const bool failover = text.rfind(kFailoverTraceHeader, 0) == 0;
  if (failover) out->actions = std::vector<FailoverAction>{};
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  bool have_topology = false;
  bool have_expect = false;
  const auto fail = [&](const std::string& message) {
    if (error != nullptr)
      *error = "line " + std::to_string(lineno) + ": " + message;
    return false;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const std::size_t colon = line.find(": ");
    if (colon == std::string::npos) return fail("expected 'key: value'");
    const std::string key = line.substr(0, colon);
    const std::string value = line.substr(colon + 2);
    if (key == "topology") {
      out->topology = value;
      have_topology = true;
    } else if (key == "config") {
      if (failover) return fail("config overrides are signaling-only");
      McConfig probe;
      if (!apply_config_override(&probe, value))
        return fail("unknown config override '" + value + "'");
      out->overrides.push_back(value);
    } else if (key == "expect") {
      have_expect = true;
      if (value == "ok") {
        out->expect_violation = false;
      } else if (value.rfind("violation ", 0) == 0) {
        out->expect_violation = true;
        out->expected_invariant = value.substr(10);
        if (out->expected_invariant.empty())
          return fail("'expect: violation' without an invariant name");
      } else {
        return fail("expect must be 'ok' or 'violation <invariant>'");
      }
    } else if (key == "action") {
      const bool parsed = std::visit(
          [&](auto& actions) {
            typename std::decay_t<decltype(actions)>::value_type action;
            if (!parse_action(value, &action)) return false;
            actions.push_back(action);
            return true;
          },
          out->actions);
      if (!parsed) return fail("malformed action '" + value + "'");
    } else {
      return fail("unknown key '" + key + "'");
    }
  }
  if (!have_topology) {
    lineno = 0;
    return fail("missing 'topology:' line");
  }
  if (!have_expect) {
    lineno = 0;
    return fail("missing 'expect:' line");
  }
  return true;
}

bool run_trace(const TraceFile& trace, std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  std::string violated;
  bool replayed = false;
  if (const auto* actions =
          std::get_if<std::vector<FailoverAction>>(&trace.actions)) {
    const FailoverTopology* topology = find_failover_topology(trace.topology);
    if (topology == nullptr)
      return fail("unknown topology '" + trace.topology + "'");
    if (!trace.overrides.empty())
      return fail("config overrides are signaling-only");
    replayed = replay(*topology, *actions, &violated);
  } else {
    const Topology* topology = find_topology(trace.topology);
    if (topology == nullptr)
      return fail("unknown topology '" + trace.topology + "'");
    McConfig config = topology->config;
    for (const std::string& pair : trace.overrides)
      if (!apply_config_override(&config, pair))
        return fail("bad config override '" + pair + "'");
    replayed = replay(*topology, config,
                      std::get<std::vector<Action>>(trace.actions), &violated);
  }
  if (!replayed)
    return fail("an action in the trace is not enabled at its step");
  if (trace.expect_violation) {
    if (violated != trace.expected_invariant)
      return fail("expected violation '" + trace.expected_invariant +
                  "', replay produced '" +
                  (violated.empty() ? "ok" : violated) + "'");
  } else if (!violated.empty()) {
    return fail("expected a clean replay, got violation '" + violated + "'");
  }
  return true;
}

}  // namespace qres::mc
