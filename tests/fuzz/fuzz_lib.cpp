#include "fuzz_lib.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <utility>

#include "broker/resource_broker.hpp"
#include "core/exhaustive.hpp"
#include "core/qrg.hpp"

namespace qres::fuzz {

namespace {

std::string str(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string str(std::uint64_t x) { return std::to_string(x); }

QoSVector q(double value) {
  static const QoSSchema schema({"level"});
  return QoSVector(schema, {value});
}

/// `count` levels with descending values (index 0 = best), matching the
/// library's default ranking convention.
std::vector<QoSVector> levels(int count) {
  std::vector<QoSVector> result;
  for (int i = 0; i < count; ++i)
    result.push_back(q(static_cast<double>(count - i)));
  return result;
}

}  // namespace

World make_world(Rng& rng, const GenOptions& opt) {
  // Resources and their availability snapshot. A mix of roomy and tight
  // resources so some operating points are infeasible.
  const int resource_count =
      rng.uniform_int(opt.min_resources, opt.max_resources);
  std::vector<ResourceId> resources;
  AvailabilityView view;
  for (int r = 0; r < resource_count; ++r) {
    resources.push_back(ResourceId{static_cast<std::uint32_t>(r)});
    const double avail = rng.bernoulli(0.25) ? rng.uniform(5.0, 40.0)
                                             : rng.uniform(30.0, 120.0);
    view.set(resources.back(), avail, rng.uniform(0.5, 1.5));
  }

  // Dependency graph on components 0..n-1 with edges i < j only, so 0 is
  // the unique source and n-1 the unique sink.
  const int n = opt.dag ? rng.uniform_int(std::max(opt.min_components, 3),
                                          opt.max_components)
                        : rng.uniform_int(opt.min_components,
                                          opt.max_components);
  std::vector<std::pair<ComponentIndex, ComponentIndex>> edges;
  std::vector<std::vector<ComponentIndex>> preds(n);
  auto add_dep = [&](int i, int j) {
    edges.push_back({static_cast<ComponentIndex>(i),
                     static_cast<ComponentIndex>(j)});
    preds[j].push_back(static_cast<ComponentIndex>(i));
  };
  if (!opt.dag) {
    for (int j = 1; j < n; ++j) add_dep(j - 1, j);
  } else {
    // Every non-source component gets one mandatory predecessor, then
    // extra edges (fan-in capped at 2 to bound the derived input-level
    // cross product), then dangling components are wired into the sink.
    for (int j = 1; j < n; ++j) add_dep(rng.uniform_int(0, j - 1), j);
    for (int j = 2; j < n; ++j)
      for (int i = 0; i < j && preds[j].size() < 2; ++i)
        if (rng.bernoulli(opt.extra_edge_prob) &&
            std::find(preds[j].begin(), preds[j].end(),
                      static_cast<ComponentIndex>(i)) == preds[j].end())
          add_dep(i, j);
    std::vector<bool> has_succ(n, false);
    for (const auto& [from, to] : edges) has_succ[from] = true;
    for (int i = 1; i + 1 < n; ++i)
      if (!has_succ[i]) add_dep(i, n - 1);
  }

  // Per-component output level counts and random table-backed translation
  // functions over the derived flat input levels.
  std::vector<int> out_count(n);
  for (int c = 0; c < n; ++c)
    out_count[c] = rng.uniform_int(opt.min_levels, opt.max_levels);
  std::vector<ServiceComponent> components;
  for (int c = 0; c < n; ++c) {
    std::size_t in_count = 1;
    // Predecessors in ascending component index, matching the
    // ServiceDefinition fan-in convention.
    std::sort(preds[c].begin(), preds[c].end());
    for (ComponentIndex p : preds[c])
      in_count *= static_cast<std::size_t>(out_count[p]);
    TranslationTable table;
    for (std::size_t in = 0; in < in_count; ++in)
      for (int out = 0; out < out_count[c]; ++out)
        if (rng.bernoulli(opt.entry_density)) {
          ResourceVector req;
          const int uses = rng.uniform_int(1, 2);
          for (int u = 0; u < uses; ++u) {
            const ResourceId rid = resources[static_cast<std::size_t>(
                rng.uniform_int(0, resource_count - 1))];
            // Half the requirements sit on a coarse grid of the resource's
            // availability, so distinct edges frequently have *exactly*
            // equal psi — the regime where tie-break divergence between
            // relax_qrg and dijkstra_qrg hides. Continuous draws alone
            // almost never produce exact ties.
            const double amount =
                rng.bernoulli(0.5)
                    ? view.get(rid).available * rng.uniform_int(1, 8) / 8.0
                    : rng.uniform(1.0, 80.0);
            req.set(rid, amount);
          }
          table.set(static_cast<LevelIndex>(in),
                    static_cast<LevelIndex>(out), req);
        }
    if (table.size() == 0) {
      // Keep at least one operating point so components are not trivially
      // dead ends; feasibility still depends on the snapshot.
      ResourceVector req;
      req.set(resources[0], rng.uniform(1.0, 30.0));
      table.set(0, static_cast<LevelIndex>(rng.uniform_int(
                       0, out_count[c] - 1)),
                req);
    }
    components.emplace_back("c" + std::to_string(c), levels(out_count[c]),
                            table.as_function());
  }
  return World{ServiceDefinition(opt.dag ? "fuzz_dag" : "fuzz_chain",
                                 std::move(components), std::move(edges),
                                 q(10)),
               std::move(view), std::move(resources)};
}

std::string check_differential(const Qrg& qrg) {
  for (const bool tie_break : {true, false}) {
    PlannerOptions options;
    options.use_tie_break = tie_break;
    const auto a = relax_qrg(qrg, options);
    const auto b = dijkstra_qrg(qrg, options);
    if (a.size() != b.size()) return "label vector sizes differ";
    for (std::uint32_t v = 0; v < a.size(); ++v) {
      const std::string where = "node " + std::to_string(v) + " (" +
                                qrg.node_name(v) + "), tie_break=" +
                                (tie_break ? "on" : "off") + ": ";
      if (a[v].reachable != b[v].reachable)
        return where + "relax reachable=" + str(std::uint64_t(a[v].reachable)) +
               " dijkstra=" + str(std::uint64_t(b[v].reachable));
      if (!a[v].reachable) continue;
      if (a[v].value != b[v].value)
        return where + "relax value=" + str(a[v].value) +
               " dijkstra=" + str(b[v].value);
      if (a[v].pred_edge != b[v].pred_edge)
        return where + "relax pred_edge=" + std::to_string(a[v].pred_edge) +
               " dijkstra=" + std::to_string(b[v].pred_edge);
      if (a[v].bottleneck != b[v].bottleneck)
        return where + "bottleneck resources differ (relax=" +
               std::to_string(a[v].bottleneck.value()) + " dijkstra=" +
               std::to_string(b[v].bottleneck.value()) + ")";
      if (a[v].alpha != b[v].alpha)
        return where + "relax alpha=" + str(a[v].alpha) +
               " dijkstra=" + str(b[v].alpha);
    }
  }
  return {};
}

std::string check_plan_wellformed(const Qrg& qrg,
                                  const ReservationPlan& plan) {
  const ServiceDefinition& service = qrg.service();
  const std::size_t n = service.component_count();
  if (plan.steps.size() != n)
    return "plan has " + std::to_string(plan.steps.size()) + " steps for " +
           std::to_string(n) + " components";
  const auto& topo = service.topological_order();
  std::vector<LevelIndex> chosen_out(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (plan.steps[i].component != topo[i])
      return "step " + std::to_string(i) + " is component " +
             std::to_string(plan.steps[i].component) +
             ", expected topological order";
    chosen_out[plan.steps[i].component] = plan.steps[i].out_level;
  }
  double max_psi = -1.0;
  bool bottleneck_matches = false;
  for (const PlanStep& step : plan.steps) {
    const ComponentIndex c = step.component;
    const std::string where = "step of component " + std::to_string(c) + ": ";
    if (step.in_level >= service.in_level_count(c))
      return where + "input level out of range";
    if (step.out_level >= service.component(c).out_level_count())
      return where + "output level out of range";
    const std::uint32_t e =
        qrg.find_edge(qrg.node_of(c, QrgNodeKind::kIn, step.in_level),
                      qrg.node_of(c, QrgNodeKind::kOut, step.out_level));
    if (e == QrgEdge::kNone)
      return where + "translation edge (" + std::to_string(step.in_level) +
             " -> " + std::to_string(step.out_level) +
             ") does not exist in the QRG";
    const QrgEdge& edge = qrg.edge(e);
    if (step.psi != edge.psi)
      return where + "recorded psi " + str(step.psi) +
             " != edge psi " + str(edge.psi);
    // Against the translation function itself, not the compiled form
    // the QRG was weighed from.
    const auto base = service.component(c).requirement(step.in_level,
                                                       step.out_level);
    if (!base || !(step.requirement == base->scaled(qrg.scale())))
      return where + "recorded requirement differs from the translation's";
    // Input combo consistency: the step consumes exactly the output
    // levels its predecessors chose.
    const auto& preds = service.predecessors(c);
    if (preds.empty()) {
      if (step.in_level != 0) return where + "source input level != 0";
    } else {
      const auto combo = service.in_level_combo(c, step.in_level);
      for (std::size_t j = 0; j < preds.size(); ++j)
        if (combo[j] != chosen_out[preds[j]])
          return where + "input combo slot " + std::to_string(j) +
                 " is level " + std::to_string(combo[j]) +
                 " but predecessor " + std::to_string(preds[j]) +
                 " chose " + std::to_string(chosen_out[preds[j]]);
    }
    if (step.psi > max_psi) max_psi = step.psi;
  }
  if (max_psi < 0.0) max_psi = 0.0;
  if (plan.bottleneck_psi != max_psi)
    return "bottleneck_psi " + str(plan.bottleneck_psi) +
           " != max step psi " + str(max_psi);
  for (const PlanStep& step : plan.steps) {
    if (step.psi != max_psi) continue;
    const std::uint32_t e =
        qrg.find_edge(qrg.node_of(step.component, QrgNodeKind::kIn,
                                  step.in_level),
                      qrg.node_of(step.component, QrgNodeKind::kOut,
                                  step.out_level));
    const QrgEdge& edge = qrg.edge(e);
    if (edge.bottleneck == plan.bottleneck_resource &&
        edge.alpha == plan.bottleneck_alpha)
      bottleneck_matches = true;
  }
  if (max_psi > 0.0 && !bottleneck_matches)
    return "bottleneck resource/alpha matches no max-psi step";
  if (plan.steps.back().out_level != plan.end_to_end_level)
    return "end_to_end_level is not the sink step's output level";
  if (plan.end_to_end_rank != service.rank_of(plan.end_to_end_level))
    return "end_to_end_rank " + std::to_string(plan.end_to_end_rank) +
           " != rank_of(level) " +
           std::to_string(service.rank_of(plan.end_to_end_level));
  return {};
}

std::string check_planners(const Qrg& qrg) {
  Rng unused(0);
  const PlanResult basic = BasicPlanner().plan(qrg, unused);
  const PlanResult exhaustive = ExhaustivePlanner().plan(qrg, unused);

  for (std::size_t r = 0; r < basic.sinks.size(); ++r)
    if (basic.sinks[r].rank != r)
      return "basic sink info " + std::to_string(r) + " has rank " +
             std::to_string(basic.sinks[r].rank);
  if (basic.sinks.size() != exhaustive.sinks.size())
    return "sink info sizes differ between basic and exhaustive";

  if (basic.plan) {
    if (auto err = check_plan_wellformed(qrg, *basic.plan); !err.empty())
      return "basic plan: " + err;
    if (!basic.sinks[basic.plan->end_to_end_rank].reachable)
      return "basic plan targets a sink its own sink-infos call unreachable";
  }
  if (exhaustive.plan)
    if (auto err = check_plan_wellformed(qrg, *exhaustive.plan); !err.empty())
      return "exhaustive plan: " + err;

  if (qrg.service().is_chain()) {
    // On chains the basic planner is exact: full agreement with the
    // exhaustive reference, per sink and for the chosen plan.
    for (std::size_t r = 0; r < basic.sinks.size(); ++r) {
      if (basic.sinks[r].reachable != exhaustive.sinks[r].reachable)
        return "chain: sink rank " + std::to_string(r) +
               " reachability differs (basic=" +
               str(std::uint64_t(basic.sinks[r].reachable)) + ")";
      if (basic.sinks[r].reachable &&
          basic.sinks[r].psi != exhaustive.sinks[r].psi)
        return "chain: sink rank " + std::to_string(r) + " psi basic=" +
               str(basic.sinks[r].psi) + " exhaustive=" +
               str(exhaustive.sinks[r].psi);
    }
    if (basic.plan.has_value() != exhaustive.plan.has_value())
      return "chain: plan presence differs (basic=" +
             str(std::uint64_t(basic.plan.has_value())) + ")";
    if (basic.plan) {
      if (basic.plan->end_to_end_rank != exhaustive.plan->end_to_end_rank)
        return "chain: rank basic=" +
               std::to_string(basic.plan->end_to_end_rank) + " exhaustive=" +
               std::to_string(exhaustive.plan->end_to_end_rank);
      if (basic.plan->bottleneck_psi != exhaustive.plan->bottleneck_psi)
        return "chain: bottleneck psi basic=" +
               str(basic.plan->bottleneck_psi) + " exhaustive=" +
               str(exhaustive.plan->bottleneck_psi);
      // No better-ranked sink is reachable.
      for (std::size_t r = 0; r < basic.plan->end_to_end_rank; ++r)
        if (basic.sinks[r].reachable)
          return "chain: plan skipped reachable rank " + std::to_string(r);
    }
  } else {
    // DAG heuristic: any extracted plan is a feasible assignment, so the
    // exhaustive optimum must exist and be at least as good
    // (lexicographically by rank, then bottleneck psi).
    if (basic.plan) {
      if (!exhaustive.plan)
        return "dag: basic found a plan but exhaustive found none";
      if (exhaustive.plan->end_to_end_rank > basic.plan->end_to_end_rank)
        return "dag: heuristic rank " +
               std::to_string(basic.plan->end_to_end_rank) +
               " beats exhaustive rank " +
               std::to_string(exhaustive.plan->end_to_end_rank);
      if (exhaustive.plan->end_to_end_rank == basic.plan->end_to_end_rank &&
          basic.plan->bottleneck_psi <
              exhaustive.plan->bottleneck_psi - 1e-12)
        return "dag: heuristic psi " + str(basic.plan->bottleneck_psi) +
               " beats exhaustive psi " +
               str(exhaustive.plan->bottleneck_psi);
    }
  }
  return {};
}

namespace {

/// Reference reimplementation of the broker's clamped windowed average
/// over an unpruned (time, availability) trace.
double reference_windowed_average(
    const std::vector<std::pair<double, double>>& trace, double t,
    double window) {
  double start = t - window;
  if (start < trace.front().first) start = std::min(trace.front().first, t);
  auto value_at = [&](double when) {
    double value = trace.front().second;
    for (const auto& [time, v] : trace) {
      if (time <= when)
        value = v;
      else
        break;
    }
    return value;
  };
  double integral = 0.0;
  double covered = 0.0;
  double prev_time = start;
  double prev_value = value_at(start);
  for (const auto& [time, value] : trace) {
    if (time <= start) continue;
    if (time > t) break;
    integral += prev_value * (time - prev_time);
    covered += time - prev_time;
    prev_time = time;
    prev_value = value;
  }
  integral += prev_value * (t - prev_time);
  covered += t - prev_time;
  if (covered <= 0.0) return prev_value;
  return integral / covered;
}

}  // namespace

std::string check_broker(Rng& rng, int steps) {
  const double capacity = rng.uniform(50.0, 300.0);
  const double window = rng.uniform(1.0, 10.0);
  const double keep = window + rng.uniform(0.0, 50.0);
  const ResourceId rid{0};
  ResourceBroker broker(rid, "fuzz", capacity, window, keep);
  ResourceBroker report_broker(rid, "fuzz_rb", capacity, window, keep,
                               AlphaMode::kReportBased);
  std::map<std::uint32_t, double> model;  // session -> held amount
  std::vector<std::pair<double, double>> trace{{0.0, capacity}};
  std::deque<std::pair<double, double>> report_model;
  double now = 0.0;
  auto record_trace = [&](double t) {
    const double avail = broker.available();
    if (trace.back().first == t)
      trace.back().second = avail;
    else
      trace.push_back({t, avail});
  };
  for (int step = 0; step < steps; ++step) {
    if (!rng.bernoulli(0.15)) now += rng.uniform(0.0, 2.0);
    const std::uint32_t session =
        1 + static_cast<std::uint32_t>(rng.uniform_int(0, 9));
    const int op = rng.uniform_int(0, 3);
    if (op == 0) {
      const double amount = rng.uniform(0.0, capacity / 3.0);
      double held = 0.0;
      for (const auto& [s, a] : model) held += a;
      const bool accepted = broker.reserve(now, SessionId{session}, amount);
      (void)report_broker.reserve(now, SessionId{session}, amount);
      if (accepted != (amount <= capacity - held + 1e-9))
        return "broker: admission decision diverged from the model at t=" +
               str(now);
      if (accepted) model[session] += amount;
    } else if (op == 1) {
      broker.release(now, SessionId{session});
      report_broker.release(now, SessionId{session});
      model.erase(session);
    } else if (op == 2) {
      const double amount = rng.uniform(0.0, capacity / 4.0);
      broker.release_amount(now, SessionId{session}, amount);
      report_broker.release_amount(now, SessionId{session}, amount);
      auto it = model.find(session);
      if (it != model.end()) {
        it->second -= std::min(amount, it->second);
        if (it->second <= 1e-12) model.erase(it);
      }
    } else {
      // Time-weighted alpha at a random (possibly stale) time within the
      // faithfully kept part of the history, against the reference.
      const double latest = trace.back().first;
      const double lo = std::max(0.0, latest - std::max(keep - window, 0.0));
      const double t = rng.uniform(std::min(lo, now), now);
      const ResourceObservation obs = broker.observe(t);
      if (obs.alpha < 0.0) return "broker: negative alpha at t=" + str(t);
      const double expected_avg = reference_windowed_average(trace, t, window);
      double expected_avail = trace.front().second;
      for (const auto& [time, v] : trace) {
        if (time <= t)
          expected_avail = v;
        else
          break;
      }
      const double expected_alpha =
          expected_avg > 0.0 ? expected_avail / expected_avg : 1.0;
      if (std::abs(obs.alpha - expected_alpha) > 1e-9)
        return "broker: time-weighted alpha " + str(obs.alpha) +
               " != reference " + str(expected_alpha) + " at t=" + str(t) +
               " (window=" + str(window) + ")";
      // Report-based alpha (eq. 5) against its own model, observed at the
      // protocol's non-decreasing times.
      const ResourceObservation rb = report_broker.observe(now);
      while (!report_model.empty() &&
             report_model.front().first < now - window)
        report_model.pop_front();
      double rb_expected = 1.0;
      if (!report_model.empty()) {
        double sum = 0.0;
        for (const auto& [time, v] : report_model) sum += v;
        const double avg = sum / static_cast<double>(report_model.size());
        rb_expected = avg > 0.0 ? rb.available / avg : 1.0;
      }
      if (std::abs(rb.alpha - rb_expected) > 1e-9)
        return "broker: report-based alpha " + str(rb.alpha) +
               " != reference " + str(rb_expected) + " at t=" + str(now);
      report_model.push_back({now, rb.available});
    }
    record_trace(now);
    // Accounting invariants after every step.
    double model_total = 0.0;
    for (const auto& [s, a] : model) model_total += a;
    if (broker.reserved() < -1e-9 ||
        broker.reserved() > capacity + 1e-9)
      return "broker: reserved " + str(broker.reserved()) +
             " outside [0, capacity] at t=" + str(now);
    if (std::abs(broker.reserved() - model_total) > 1e-6)
      return "broker: reserved " + str(broker.reserved()) +
             " != model total " + str(model_total);
    if (broker.active_sessions() != model.size())
      return "broker: session count diverged from the model";
    // History invariants: monotone timestamps, current value at the tail,
    // at most one baseline entry older than the keep horizon.
    const auto& history = broker.history();
    for (std::size_t i = 1; i < history.size(); ++i)
      if (history[i].first < history[i - 1].first)
        return "broker: history timestamps are not monotone";
    if (std::abs(history.back().second - broker.available()) > 1e-9)
      return "broker: history tail does not match current availability";
    std::size_t older = 0;
    for (const auto& [time, v] : history)
      if (time < history.back().first - keep) ++older;
    if (older > 1)
      return "broker: " + std::to_string(older) +
             " history entries older than the keep horizon";
  }
  return {};
}

namespace {

/// Everything a run of one snapshot decides, one field per line: the
/// QRG's edges (with materialized requirements), the pass-I labels, the
/// sinks and the plan.
std::string fingerprint(const Qrg& qrg, const IPlanner& planner,
                        std::uint64_t seed) {
  std::string out = "edges " + std::to_string(qrg.edge_count()) + "\n";
  for (std::uint32_t e = 0; e < qrg.edge_count(); ++e) {
    const QrgEdge& edge = qrg.edge(e);
    out += "edge " + std::to_string(e) + " " + std::to_string(edge.from) +
           ">" + std::to_string(edge.to) + " psi " + str(edge.psi) +
           " alpha " + str(edge.alpha) + " res " +
           str(std::uint64_t{edge.bottleneck.value()}) + " req";
    for (const auto& [rid, amount] : qrg.requirement(e))
      out += " " + str(std::uint64_t{rid.value()}) + ":" + str(amount);
    out += "\n";
  }
  const auto labels = relax_qrg(qrg);
  for (std::size_t v = 0; v < labels.size(); ++v)
    out += "label " + std::to_string(v) + " " +
           (labels[v].reachable ? str(labels[v].value) : "-") + " " +
           std::to_string(labels[v].pred_edge) + " " +
           str(std::uint64_t{labels[v].bottleneck.value()}) + " " +
           str(labels[v].alpha) + "\n";
  Rng rng(seed);
  const PlanResult result = planner.plan(qrg, rng);
  for (const SinkInfo& sink : result.sinks)
    out += "sink " + std::to_string(sink.rank) + " " +
           std::to_string(sink.level) + " " +
           (sink.reachable ? str(sink.psi) : "-") + " " + str(sink.alpha) +
           " " + str(std::uint64_t{sink.bottleneck.value()}) + "\n";
  if (!result.plan) return out + "no plan\n";
  const ReservationPlan& plan = *result.plan;
  for (const PlanStep& step : plan.steps) {
    out += "step " + std::to_string(step.component) + " " +
           std::to_string(step.in_level) + ">" +
           std::to_string(step.out_level) + " psi " + str(step.psi) + " req";
    for (const auto& [rid, amount] : step.requirement)
      out += " " + str(std::uint64_t{rid.value()}) + ":" + str(amount);
    out += "\n";
  }
  return out + "plan " + std::to_string(plan.end_to_end_level) + " rank " +
         std::to_string(plan.end_to_end_rank) + " psi " +
         str(plan.bottleneck_psi) + " res " +
         str(std::uint64_t{plan.bottleneck_resource.value()}) + " alpha " +
         str(plan.bottleneck_alpha) + "\n";
}

/// First line where two fingerprints differ.
std::string first_difference(const std::string& want, const std::string& got) {
  std::size_t line_start = 0;
  for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    if (want[i] != got[i]) {
      const auto line_of = [line_start](const std::string& text) {
        return text.substr(line_start, text.find('\n', line_start) -
                                           line_start);
      };
      return "cold '" + line_of(want) + "' vs warm '" + line_of(got) + "'";
    }
    if (want[i] == '\n') line_start = i + 1;
  }
  return "fingerprint lengths " + std::to_string(want.size()) + " vs " +
         std::to_string(got.size());
}

}  // namespace

std::string check_cache_history(const World& world, std::uint64_t seed,
                                const IPlanner& planner, ThreadPool* pool) {
  // A stream of its own, so the caller's generator draws are unchanged.
  Rng rng(seed ^ 0x5eedcafef00dULL);
  struct Snapshot {
    AvailabilityView view;
    PsiKind psi_kind;
    double scale;
  };
  std::vector<Snapshot> snapshots;
  for (const auto& [psi_kind, scale] :
       {std::pair{PsiKind::kRatio, 1.0}, std::pair{PsiKind::kHeadroom, 2.0},
        std::pair{PsiKind::kLogRatio, 1.0}, std::pair{PsiKind::kRatio, 2.0}}) {
    AvailabilityView view;
    for (const auto& [rid, obs] : world.view)
      view.set(rid,
               rng.bernoulli(0.1) ? 0.0
                                  : obs.available * rng.uniform(0.3, 1.5),
               rng.uniform(0.5, 1.5));
    snapshots.push_back(Snapshot{std::move(view), psi_kind, scale});
  }

  // Run 2i plans snapshot i on the warm service, run 2i + 1 on a fresh
  // copy of it.
  std::vector<ServiceDefinition> cold(snapshots.size(), world.service);
  std::vector<std::string> prints(2 * snapshots.size());
  const auto run = [&](std::size_t i) {
    const Snapshot& snapshot = snapshots[i / 2];
    const ServiceDefinition& service =
        i % 2 == 0 ? world.service : cold[i / 2];
    const Qrg qrg(service, snapshot.view, snapshot.psi_kind, snapshot.scale);
    prints[i] = fingerprint(qrg, planner, seed + i / 2);
  };
  if (pool != nullptr)
    pool->parallel_for(prints.size(), run, 1);
  else
    for (std::size_t i = 0; i < prints.size(); ++i) run(i);

  for (std::size_t s = 0; s < snapshots.size(); ++s)
    if (prints[2 * s] != prints[2 * s + 1])
      return "snapshot " + std::to_string(s) + " (" +
             to_string(snapshots[s].psi_kind) + ", scale " +
             str(snapshots[s].scale) + "): " +
             first_difference(prints[2 * s + 1], prints[2 * s]);
  return {};
}

std::string run_iteration(std::uint64_t seed, FuzzStats* stats) {
  Rng rng(seed);
  const auto tag = [seed](const std::string& what, const std::string& err) {
    return "seed " + std::to_string(seed) + ": " + what + ": " + err;
  };
  // Rotate psi kinds and requirement scales across iterations so the
  // differential also covers the ablation configurations.
  const PsiKind psi_kind = static_cast<PsiKind>(seed % 3);
  const double scale = rng.bernoulli(0.2) ? 2.0 : 1.0;

  for (const bool dag : {false, true}) {
    GenOptions opt;
    opt.dag = dag;
    if (dag) opt.max_components = 6;
    World world = make_world(rng, opt);
    const Qrg qrg(world.service, world.view, psi_kind, scale);
    if (stats) {
      ++stats->qrgs;
      stats->nodes += qrg.node_count();
    }
    const std::string kind = dag ? "dag" : "chain";
    if (auto err = check_differential(qrg); !err.empty())
      return tag(kind + " differential", err);
    if (auto err = check_planners(qrg); !err.empty())
      return tag(kind + " planners", err);
    if (stats) ++stats->plans;
    if (auto err = check_cache_history(world, seed, BasicPlanner());
        !err.empty())
      return tag(kind + " cache history", err);
    if (stats) stats->warm_snapshots += 4;
  }
  const int broker_steps = 150;
  if (auto err = check_broker(rng, broker_steps); !err.empty())
    return tag("broker", err);
  if (stats) stats->broker_steps += broker_steps;
  return {};
}

}  // namespace qres::fuzz
