#pragma once
// Uniform solver front-end: one string-keyed registry covering every
// SSSP implementation in the repository.
//
// Before this layer each algorithm exposed its own free function with
// its own config/result structs, and every harness (examples, bench,
// the stats layer, the query server) re-implemented the dispatch,
// partition construction and metric flattening.  `run_solver` folds all
// of that behind one call:
//
//   sssp::SolverOptions opts;
//   opts.registry = &reg;                      // optional observability
//   auto run = sssp::run_solver("acic", machine, csr, source, opts);
//   // run.sssp.dist, run.telemetry.cycles, run.telemetry.extra("...")
//
// Built-in names: "acic", "delta_stepping_dist", "delta_stepping_2d",
// "kla", "distributed_control", "async_baseline", "sequential".  The
// original free functions (core::acic_sssp, baselines::*) remain the
// precise, fully-typed entry points; the registry adapters call them,
// so both paths produce identical distances — a property the
// solver-registry tests pin down.  New algorithms can self-register
// with register_solver().
//
// Every adapter builds its partition internally (equal-vertex block by
// default; balanced-edge or 2-D where the algorithm calls for it) and
// flattens algorithm-specific detail into RunTelemetry::extras, so
// callers that only compare solvers never touch per-algorithm types.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/delta_common.hpp"
#include "src/baselines/distributed_control.hpp"
#include "src/baselines/kla.hpp"
#include "src/core/config.hpp"
#include "src/graph/csr.hpp"
#include "src/graph/reorder.hpp"
#include "src/runtime/machine.hpp"
#include "src/sssp/result.hpp"

namespace acic::sssp {

/// Parameters for every registered solver; defaults reproduce the
/// paper's tuned configuration.  Solvers read only their own section.
struct SolverOptions {
  core::AcicConfig acic;
  /// Balanced-edge 1-D partition for ACIC instead of the paper's
  /// equal-vertex block partition.
  bool acic_balanced_partition = false;
  baselines::DeltaConfig delta;
  baselines::KlaConfig kla;
  baselines::DistributedControlConfig dc;

  /// Method for the "sequential" solver: "dijkstra", "bellman_ford" or
  /// "delta_stepping".
  std::string sequential_method = "dijkstra";
  /// Bucket width for sequential delta-stepping (0 = heuristic).
  double sequential_delta = 0.0;

  /// Vertex reordering (src/graph/reorder.hpp): when not kIdentity,
  /// run_solver relabels the graph, maps the source in, runs the solver
  /// on the permuted CSR and inverse-permutes the distances back, so
  /// callers see original-label results.  Distances are exactly equal to
  /// the identity run's; simulated schedule/counters legitimately differ
  /// (the relabeling changes which updates cross node boundaries).
  graph::ReorderMode reorder = graph::ReorderMode::kIdentity;
  /// Host threads for building the permuted CSR (output is identical at
  /// any value).
  unsigned reorder_threads = 1;

  runtime::SimTime time_limit_us = runtime::kNoTimeLimit;

  /// Optional observability registry (src/obs/registry.hpp): attached
  /// to the machine, where the solver's engine and trams find it, so
  /// one run emits runtime, tram and algorithm streams without
  /// per-solver wiring.  Must outlive the run.
  obs::Registry* registry = nullptr;
};

/// Uniform run metadata: what every solver can report about its own
/// execution, independent of the machine-level RunStats already folded
/// into SsspMetrics.
struct RunTelemetry {
  /// Registry name the run was dispatched under.
  std::string solver;
  bool hit_time_limit = false;
  /// The solver's progress-cycle count: reduction cycles (acic),
  /// barrier rounds (delta), supersteps (kla), detector cycles (dc),
  /// phases (sequential).
  std::uint64_t cycles = 0;
  /// Per-worker busy time (empty for sequential).
  std::vector<runtime::SimTime> pe_busy_us;
  /// Peak / mean of pe_busy_us (0 when unavailable).
  double busy_imbalance = 0.0;
  /// Algorithm-specific detail, flattened to (key, value) pairs in a
  /// stable order (e.g. "switched_to_bf", "peak_k", "held_in_tram").
  std::vector<std::pair<std::string, double>> extras;

  /// Looks up an extra by key; `fallback` if absent.
  double extra(const std::string& key, double fallback = 0.0) const;
};

struct SolverRun {
  SsspResult sssp;
  RunTelemetry telemetry;
};

/// A registered solver: runs one SSSP query on `machine` and returns
/// distances + telemetry.  Must leave the machine reusable.
using SolverFn = std::function<SolverRun(
    runtime::Machine&, const graph::Csr&, graph::VertexId,
    const SolverOptions&)>;

/// Registered names, in registration order (built-ins first).
std::vector<std::string> solver_names();
bool has_solver(const std::string& name);

/// Registers (or replaces) a solver under `name`.
void register_solver(const std::string& name, SolverFn fn);

/// Removes the solver registered under `name`; returns false if none
/// is.  Asserts on built-in names (a replaced built-in stays built in).
bool unregister_solver(const std::string& name);

/// Dispatches to the solver registered under `name`.  Asserts on
/// unknown names (solver_names() enumerates the valid set).  When
/// opts.registry is set it is attached to the machine for the duration
/// of the run and left attached, so callers can export afterwards.
SolverRun run_solver(const std::string& name, runtime::Machine& machine,
                     const graph::Csr& csr, graph::VertexId source,
                     const SolverOptions& opts = {});

}  // namespace acic::sssp
