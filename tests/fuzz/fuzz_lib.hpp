// Differential fuzzing and invariant checking for the planner and broker
// layers (see DESIGN.md "Correctness tooling").
//
// The library is deliberately free of any test-framework dependency: it is
// linked both into the standalone `qres_fuzz` driver (tools/qres_fuzz.cpp,
// suitable for long sanitizer-instrumented runs) and into the gtest smoke
// suite (tests/fuzz/test_fuzz_smoke.cpp) that keeps a bounded run inside
// tier-1 ctest.
//
// Every checker returns an empty string on success, or a human-readable
// description of the first violated invariant. Every generated artifact is
// a pure function of the caller-provided Rng, so any failure reproduces
// from its iteration seed alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/availability.hpp"
#include "core/planner.hpp"
#include "core/service.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qres::fuzz {

/// Knobs for the random service / availability generator. The defaults
/// keep instances small enough for the exhaustive reference planner
/// (product of output level counts stays in the hundreds).
struct GenOptions {
  int min_components = 2;
  int max_components = 5;
  int min_levels = 2;       ///< output levels per component
  int max_levels = 3;
  int min_resources = 2;
  int max_resources = 4;
  double entry_density = 0.65;  ///< P[an (in,out) operating point exists]
  double extra_edge_prob = 0.35;  ///< extra DAG dependency edges (dag only)
  bool dag = false;
};

/// A generated instance: service definition, availability snapshot and the
/// resource ids the snapshot covers.
struct World {
  ServiceDefinition service;
  AvailabilityView view;
  std::vector<ResourceId> resources;
};

/// Generates a random service (chain, or single-source/single-sink DAG
/// with fan-in capped at 2 except at the sink) with random table-backed
/// translation functions, plus a random availability snapshot with random
/// per-resource change indices.
World make_world(Rng& rng, const GenOptions& opt);

/// relax_qrg and dijkstra_qrg must produce identical labels — value,
/// reachability, predecessor edge, bottleneck resource and alpha — in both
/// tie-break modes.
std::string check_differential(const Qrg& qrg);

/// Structural well-formedness of a plan against its QRG: one step per
/// component in topological order, every step's translation edge exists
/// and matches the recorded psi/requirement, input combos are consistent
/// with the predecessors' chosen output levels, the bottleneck psi equals
/// the max step psi, and the end-to-end level/rank agree.
std::string check_plan_wellformed(const Qrg& qrg, const ReservationPlan& plan);

/// BasicPlanner against the exhaustive reference: exact agreement (plan
/// presence, rank, bottleneck psi, and per-sink reachability/psi) on
/// chains; never-beats-the-optimum on DAGs. Also checks sink-info rank
/// consistency and plan well-formedness of both planners' results.
std::string check_planners(const Qrg& qrg);

/// Cache-history independence of the compiled QRG: plans `world.service`
/// (already compiled by an earlier Qrg) under four snapshots derived from
/// `world.view` — perturbed availability, scales 1 and 2, every psi kind —
/// and requires each run's QRG edges, pass-I labels, sinks and plan to
/// equal those of the same snapshot planned on a fresh copy of the service
/// (a cold compile). With a `pool`, the warm and cold runs of all
/// snapshots plan concurrently on its workers.
std::string check_cache_history(const World& world, std::uint64_t seed,
                                const IPlanner& planner,
                                ThreadPool* pool = nullptr);

/// Drives a ResourceBroker (both alpha modes) through `steps` random
/// reserve / release / release_amount / observe operations against an
/// independent model: accounting bounds (0 <= reserved <= capacity),
/// history monotonicity, alpha >= 0, at most one history entry older than
/// the keep horizon, and exact agreement of the observed alpha with a
/// reference reimplementation of the clamped windowed average (eq. 5).
std::string check_broker(Rng& rng, int steps);

/// Tallies of what one or more iterations actually exercised, so a clean
/// run can prove it covered something.
struct FuzzStats {
  std::uint64_t qrgs = 0;
  std::uint64_t nodes = 0;
  std::uint64_t plans = 0;
  std::uint64_t warm_snapshots = 0;  ///< check_cache_history snapshots
  std::uint64_t broker_steps = 0;

  void merge(const FuzzStats& other) {
    qrgs += other.qrgs;
    nodes += other.nodes;
    plans += other.plans;
    warm_snapshots += other.warm_snapshots;
    broker_steps += other.broker_steps;
  }
};

/// One full fuzz iteration from a single seed: a chain world and a DAG
/// world (rotating psi kinds and requirement scales) through the planner
/// checks, then a random broker sequence. Returns the first failure
/// (prefixed with the seed for reproduction) or an empty string.
std::string run_iteration(std::uint64_t seed, FuzzStats* stats = nullptr);

}  // namespace qres::fuzz
