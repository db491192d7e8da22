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
// Names: "acic", "delta_stepping_dist", "delta_stepping_2d", "kla",
// "distributed_control", "async_baseline" and "sequential" (the
// Dijkstra oracle).  The table is fixed at compile time.  The original
// free functions (core::acic_sssp, baselines::*) remain the precise,
// fully-typed entry points; the registry adapters call them, so both
// paths produce identical distances — a property the solver-registry
// tests pin down.
//
// Every adapter builds its partition internally (equal-vertex block by
// default; balanced-edge or 2-D where the algorithm calls for it) and
// flattens algorithm-specific detail into RunTelemetry::extras, so
// callers that only compare solvers never touch per-algorithm types.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/delta_stepping.hpp"
#include "src/baselines/distributed_control.hpp"
#include "src/baselines/kla.hpp"
#include "src/core/config.hpp"
#include "src/graph/csr.hpp"
#include "src/runtime/machine.hpp"
#include "src/sssp/result.hpp"

namespace acic::sssp {

/// Parameters for every solver in the registry; defaults reproduce the
/// paper's tuned configuration.  Solvers read only their own section.
struct SolverOptions {
  core::AcicConfig acic;
  /// Balanced-edge 1-D partition for ACIC instead of the paper's
  /// equal-vertex block partition.
  bool acic_balanced_partition = false;
  baselines::DeltaConfig delta;
  baselines::KlaConfig kla;
  baselines::DistributedControlConfig dc;

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

/// Solver names, in table order.
std::vector<std::string> solver_names();
bool has_solver(const std::string& name);

/// Dispatches to the solver named `name`.  Asserts on
/// unknown names (solver_names() enumerates the valid set).  When
/// opts.registry is set it is attached to the machine for the duration
/// of the run and left attached, so callers can export afterwards.
SolverRun run_solver(const std::string& name, runtime::Machine& machine,
                     const graph::Csr& csr, graph::VertexId source,
                     const SolverOptions& opts = {});

}  // namespace acic::sssp
