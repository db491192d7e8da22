#include "src/sssp/solver.hpp"

#include <algorithm>
#include <utility>

#include "src/baselines/delta_stepping_2d.hpp"
#include "src/baselines/delta_stepping_dist.hpp"
#include "src/baselines/sequential.hpp"
#include "src/core/acic.hpp"
#include "src/graph/partition.hpp"
#include "src/graph/partition2d.hpp"
#include "src/util/assert.hpp"

namespace acic::sssp {

double RunTelemetry::extra(const std::string& key, double fallback) const {
  for (const auto& [k, v] : extras) {
    if (k == key) return v;
  }
  return fallback;
}

namespace {

double imbalance(const std::vector<runtime::SimTime>& busy) {
  if (busy.empty()) return 0.0;
  double total = 0.0;
  double peak = 0.0;
  for (const double b : busy) {
    total += b;
    peak = std::max(peak, b);
  }
  const double mean = total / static_cast<double>(busy.size());
  return mean > 0.0 ? peak / mean : 0.0;
}

SolverRun run_acic(runtime::Machine& machine, const graph::Csr& csr,
                   graph::VertexId source, const SolverOptions& opts) {
  const auto partition =
      opts.acic_balanced_partition
          ? graph::Partition1D::balanced_edges(csr, machine.num_pes())
          : graph::Partition1D::block(csr.num_vertices(),
                                      machine.num_pes());
  auto run = core::acic_sssp(machine, csr, partition, source, opts.acic,
                             opts.time_limit_us);
  SolverRun out;
  out.sssp = std::move(run.sssp);
  out.telemetry.hit_time_limit = run.hit_time_limit;
  out.telemetry.cycles = run.reduction_cycles;
  out.telemetry.pe_busy_us = std::move(run.pe_busy_us);
  out.telemetry.extras = {
      {"sent_directly", static_cast<double>(run.lifecycle.sent_directly)},
      {"held_in_tram", static_cast<double>(run.lifecycle.held_in_tram)},
      {"held_in_pq_hold",
       static_cast<double>(run.lifecycle.held_in_pq_hold)},
      {"superseded_in_pq",
       static_cast<double>(run.lifecycle.superseded_in_pq)},
      {"expanded", static_cast<double>(run.lifecycle.expanded)},
  };
  return out;
}

template <bool kTwoD>
SolverRun run_delta(runtime::Machine& machine, const graph::Csr& csr,
                    graph::VertexId source, const SolverOptions& opts) {
  baselines::DeltaRunResult run;
  if constexpr (kTwoD) {
    const auto partition = graph::Partition2D::squarest(csr,
                                                        machine.num_pes());
    run = baselines::delta_stepping_2d(machine, csr, partition, source,
                                       opts.delta, opts.time_limit_us);
  } else {
    const auto partition =
        graph::Partition1D::block(csr.num_vertices(), machine.num_pes());
    run = baselines::delta_stepping_dist(machine, csr, partition, source,
                                         opts.delta, opts.time_limit_us);
  }
  SolverRun out;
  out.sssp = std::move(run.sssp);
  out.telemetry.hit_time_limit = run.hit_time_limit;
  out.telemetry.cycles = run.barrier_rounds;
  out.telemetry.pe_busy_us = std::move(run.pe_busy_us);
  out.telemetry.extras = {
      {"buckets_processed", static_cast<double>(run.buckets_processed)},
      {"light_phases", static_cast<double>(run.light_phases)},
      {"heavy_phases", static_cast<double>(run.heavy_phases)},
      {"bf_sweeps", static_cast<double>(run.bf_sweeps)},
      {"switched_to_bf", run.switched_to_bf ? 1.0 : 0.0},
  };
  return out;
}

SolverRun run_kla(runtime::Machine& machine, const graph::Csr& csr,
                  graph::VertexId source, const SolverOptions& opts) {
  const auto partition =
      graph::Partition1D::block(csr.num_vertices(), machine.num_pes());
  auto run = baselines::kla_sssp(machine, csr, partition, source, opts.kla,
                                 opts.time_limit_us);
  SolverRun out;
  out.sssp = std::move(run.sssp);
  out.telemetry.hit_time_limit = run.hit_time_limit;
  out.telemetry.cycles = run.supersteps;
  out.telemetry.pe_busy_us = std::move(run.pe_busy_us);
  out.telemetry.extras = {
      {"final_k", static_cast<double>(run.final_k)},
      {"peak_k", static_cast<double>(run.peak_k)},
  };
  return out;
}

template <bool kUsePriority>
SolverRun run_dc(runtime::Machine& machine, const graph::Csr& csr,
                 graph::VertexId source, const SolverOptions& opts) {
  const auto partition =
      graph::Partition1D::block(csr.num_vertices(), machine.num_pes());
  baselines::DistributedControlConfig config = opts.dc;
  config.use_priority = kUsePriority;
  auto run = baselines::distributed_control_sssp(
      machine, csr, partition, source, config, opts.time_limit_us);
  SolverRun out;
  out.sssp = std::move(run.sssp);
  out.telemetry.hit_time_limit = run.hit_time_limit;
  out.telemetry.cycles = run.detector_cycles;
  out.telemetry.pe_busy_us = std::move(run.pe_busy_us);
  return out;
}

SolverRun run_sequential(runtime::Machine& /*machine*/,
                         const graph::Csr& csr, graph::VertexId source,
                         const SolverOptions& /*opts*/) {
  baselines::SeqStats stats;
  SolverRun out;
  out.sssp.dist = baselines::dijkstra(csr, source, &stats);
  out.sssp.metrics.updates_created = stats.relaxations;
  out.sssp.metrics.updates_processed = stats.relaxations;
  out.sssp.metrics.updates_rejected =
      stats.relaxations - stats.improvements;
  out.telemetry.cycles = stats.phases;
  out.telemetry.extras = {
      {"relaxations", static_cast<double>(stats.relaxations)},
      {"improvements", static_cast<double>(stats.improvements)},
  };
  return out;
}

/// One row of the solver table.  Each adapter runs one query and leaves
/// the machine reusable.
struct Entry {
  const char* name;
  SolverRun (*run)(runtime::Machine&, const graph::Csr&, graph::VertexId,
                   const SolverOptions&);
};

constexpr Entry kSolvers[] = {
    {"acic", run_acic},
    {"delta_stepping_dist", run_delta</*kTwoD=*/false>},
    {"delta_stepping_2d", run_delta</*kTwoD=*/true>},
    {"kla", run_kla},
    {"distributed_control", run_dc</*kUsePriority=*/true>},
    {"async_baseline", run_dc</*kUsePriority=*/false>},
    {"sequential", run_sequential},
};

}  // namespace

std::vector<std::string> solver_names() {
  std::vector<std::string> names;
  for (const Entry& entry : kSolvers) names.emplace_back(entry.name);
  return names;
}

bool has_solver(const std::string& name) {
  for (const Entry& entry : kSolvers) {
    if (name == entry.name) return true;
  }
  return false;
}

SolverRun run_solver(const std::string& name, runtime::Machine& machine,
                     const graph::Csr& csr, graph::VertexId source,
                     const SolverOptions& opts) {
  ACIC_ASSERT(source < csr.num_vertices());
  if (opts.reorder != graph::ReorderMode::kIdentity) {
    // Relabel once, recurse with the permuted graph and mapped source,
    // then hand back distances in the caller's original labels.
    const graph::Remap remap(csr, opts.reorder, opts.reorder_threads);
    SolverOptions inner = opts;
    inner.reorder = graph::ReorderMode::kIdentity;
    SolverRun run = run_solver(name, machine, remap.csr(),
                               remap.map_vertex(source), inner);
    run.sssp.dist = remap.unmap_distances(run.sssp.dist);
    return run;
  }
  for (const Entry& entry : kSolvers) {
    if (name != entry.name) continue;
    if (opts.registry != nullptr) machine.set_registry(opts.registry);
    SolverRun run = entry.run(machine, csr, source, opts);
    run.telemetry.solver = name;
    run.telemetry.busy_imbalance = imbalance(run.telemetry.pe_busy_us);
    return run;
  }
  ACIC_ASSERT_MSG(false, "unknown solver name (see sssp::solver_names)");
  return {};
}

}  // namespace acic::sssp
