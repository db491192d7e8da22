#include "src/stats/compare.hpp"

#include "src/sssp/solver.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"

namespace acic::stats {

std::size_t paper_optimal_buffer(std::uint32_t nodes) {
  if (nodes >= 16) return 512;
  if (nodes >= 4) return 1024;
  return 2048;
}

std::vector<CompareRow> run_comparison(const CompareSpec& spec,
                                       void (*progress)(const char*)) {
  std::vector<CompareRow> rows;
  for (const GraphKind graph : spec.graphs) {
    for (const std::uint32_t nodes : spec.nodes_list) {
      CompareRow row;
      row.graph = graph;
      row.nodes = nodes;

      for (std::uint32_t trial = 0; trial < spec.trials; ++trial) {
        ExperimentSpec exp;
        exp.graph = graph;
        exp.scale = spec.scale;
        exp.edge_factor = spec.edge_factor;
        exp.seed = util::derive_seed(spec.base_seed, trial);
        exp.nodes = nodes;
        exp.full_scale_nodes = spec.full_scale_nodes;

        // Only ACIC aggregates through tramlib: the 2-D grid baseline
        // messages its rows and columns directly.
        sssp::SolverOptions opts;
        opts.acic.tram.buffer_items = spec.buffer_override != 0
                                          ? spec.buffer_override
                                          : paper_optimal_buffer(nodes);
        opts.time_limit_us = spec.time_limit_us;

        const graph::Csr csr = build_graph(exp);
        runtime::Machine acic_machine(exp.topology());
        const sssp::SolverRun acic =
            sssp::run_solver("acic", acic_machine, csr, exp.source, opts);
        runtime::Machine riken_machine(exp.topology());
        const sssp::SolverRun riken = sssp::run_solver(
            "delta_stepping_2d", riken_machine, csr, exp.source, opts);

        row.acic_time_s += acic.sssp.metrics.sim_time_s();
        row.riken_time_s += riken.sssp.metrics.sim_time_s();
        row.acic_teps += acic.sssp.metrics.teps();
        row.riken_teps += riken.sssp.metrics.teps();
        row.acic_updates +=
            static_cast<double>(acic.sssp.metrics.updates_created);
        row.riken_updates +=
            static_cast<double>(riken.sssp.metrics.updates_created);
        row.acic_imbalance += acic.telemetry.busy_imbalance;
        row.riken_imbalance += riken.telemetry.busy_imbalance;
        row.any_time_limit |= acic.telemetry.hit_time_limit ||
                              riken.telemetry.hit_time_limit;
      }
      const double t = spec.trials;
      row.acic_time_s /= t;
      row.riken_time_s /= t;
      row.acic_teps /= t;
      row.riken_teps /= t;
      row.acic_updates /= t;
      row.riken_updates /= t;
      row.acic_imbalance /= t;
      row.riken_imbalance /= t;
      rows.push_back(row);

      if (progress != nullptr) {
        progress(util::strformat(
                     "  %s nodes=%u: acic=%.3fs riken=%.3fs (speedup %.2fx)",
                     graph_kind_name(graph), nodes, row.acic_time_s,
                     row.riken_time_s, row.speedup_acic_over_riken())
                     .c_str());
      }
    }
  }
  return rows;
}

}  // namespace acic::stats
