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

/// Propagates the run's registry into a tram config that does not
/// already name one.
tram::TramConfig with_registry(tram::TramConfig config,
                               obs::Registry* registry) {
  if (config.registry == nullptr) config.registry = registry;
  return config;
}

SolverRun run_acic(runtime::Machine& machine, const graph::Csr& csr,
                   graph::VertexId source, const SolverOptions& opts) {
  const auto partition =
      opts.acic_balanced_partition
          ? graph::Partition1D::balanced_edges(csr, machine.num_pes())
          : graph::Partition1D::block(csr.num_vertices(),
                                      machine.num_pes());
  core::AcicConfig config = opts.acic;
  if (config.registry == nullptr) config.registry = opts.registry;
  if (config.frontier_feed == nullptr) {
    config.frontier_feed = opts.storage.frontier_feed;
  }
  auto run = core::acic_sssp(machine, csr, partition, source, config,
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

SolverRun run_delta(runtime::Machine& machine, const graph::Csr& csr,
                    graph::VertexId source, const SolverOptions& opts,
                    bool two_d) {
  baselines::DeltaConfig config = opts.delta;
  config.tram = with_registry(config.tram, opts.registry);
  if (config.frontier_feed == nullptr) {
    config.frontier_feed = opts.storage.frontier_feed;
  }
  baselines::DeltaRunResult run;
  if (two_d) {
    const auto partition = graph::Partition2D::squarest(csr,
                                                        machine.num_pes());
    run = baselines::delta_stepping_2d(machine, csr, partition, source,
                                       config, opts.time_limit_us);
  } else {
    const auto partition =
        graph::Partition1D::block(csr.num_vertices(), machine.num_pes());
    run = baselines::delta_stepping_dist(machine, csr, partition, source,
                                         config, opts.time_limit_us);
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
  baselines::KlaConfig config = opts.kla;
  config.tram = with_registry(config.tram, opts.registry);
  auto run = baselines::kla_sssp(machine, csr, partition, source, config,
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

SolverRun run_dc(runtime::Machine& machine, const graph::Csr& csr,
                 graph::VertexId source, const SolverOptions& opts,
                 bool use_priority) {
  const auto partition =
      graph::Partition1D::block(csr.num_vertices(), machine.num_pes());
  baselines::DistributedControlConfig config = opts.dc;
  config.use_priority = use_priority;
  config.tram = with_registry(config.tram, opts.registry);
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
                         const SolverOptions& opts) {
  baselines::SeqStats stats;
  SolverRun out;
  if (opts.sequential_method == "dijkstra") {
    out.sssp.dist = baselines::dijkstra(csr, source, &stats);
  } else if (opts.sequential_method == "bellman_ford") {
    out.sssp.dist = baselines::bellman_ford(csr, source, &stats);
  } else if (opts.sequential_method == "delta_stepping") {
    out.sssp.dist = baselines::delta_stepping_seq(
        csr, source, opts.sequential_delta, &stats);
  } else {
    ACIC_ASSERT_MSG(false,
                    "unknown sequential_method (expected dijkstra, "
                    "bellman_ford or delta_stepping)");
  }
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

struct RegistryEntry {
  std::string name;
  SolverFn fn;
  bool built_in = false;  // registered by the library; never removable
};

std::vector<RegistryEntry>& solver_registry() {
  static std::vector<RegistryEntry> entries = [] {
    std::vector<RegistryEntry> built_ins;
    auto add = [&built_ins](const char* name, SolverFn fn) {
      built_ins.push_back(RegistryEntry{name, std::move(fn), true});
    };
    add("acic", run_acic);
    add("delta_stepping_dist",
        [](runtime::Machine& m, const graph::Csr& g, graph::VertexId s,
           const SolverOptions& o) {
          return run_delta(m, g, s, o, /*two_d=*/false);
        });
    add("delta_stepping_2d",
        [](runtime::Machine& m, const graph::Csr& g, graph::VertexId s,
           const SolverOptions& o) {
          return run_delta(m, g, s, o, /*two_d=*/true);
        });
    add("kla", run_kla);
    add("distributed_control",
        [](runtime::Machine& m, const graph::Csr& g, graph::VertexId s,
           const SolverOptions& o) {
          return run_dc(m, g, s, o, /*use_priority=*/true);
        });
    add("async_baseline",
        [](runtime::Machine& m, const graph::Csr& g, graph::VertexId s,
           const SolverOptions& o) {
          return run_dc(m, g, s, o, /*use_priority=*/false);
        });
    add("sequential", run_sequential);
    return built_ins;
  }();
  return entries;
}

}  // namespace

std::vector<std::string> solver_names() {
  std::vector<std::string> names;
  names.reserve(solver_registry().size());
  for (const RegistryEntry& entry : solver_registry()) {
    names.push_back(entry.name);
  }
  return names;
}

bool has_solver(const std::string& name) {
  for (const RegistryEntry& entry : solver_registry()) {
    if (entry.name == name) return true;
  }
  return false;
}

void register_solver(const std::string& name, SolverFn fn) {
  ACIC_ASSERT_MSG(fn != nullptr, "solver function must be callable");
  for (RegistryEntry& entry : solver_registry()) {
    if (entry.name == name) {
      entry.fn = std::move(fn);
      return;
    }
  }
  solver_registry().push_back(RegistryEntry{name, std::move(fn)});
}

bool unregister_solver(const std::string& name) {
  std::vector<RegistryEntry>& entries = solver_registry();
  for (auto it = entries.begin(); it != entries.end(); ++it) {
    if (it->name != name) continue;
    ACIC_ASSERT_MSG(!it->built_in, "built-in solvers cannot be unregistered");
    entries.erase(it);
    return true;
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
  for (const RegistryEntry& entry : solver_registry()) {
    if (entry.name != name) continue;
    if (opts.registry != nullptr) machine.set_registry(opts.registry);
    SolverRun run = entry.fn(machine, csr, source, opts);
    run.telemetry.solver = name;
    run.telemetry.busy_imbalance = imbalance(run.telemetry.pe_busy_us);
    return run;
  }
  ACIC_ASSERT_MSG(false, "unknown solver name (see sssp::solver_names)");
  return {};
}

}  // namespace acic::sssp
