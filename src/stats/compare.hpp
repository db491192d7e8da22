#pragma once
// The ACIC vs Δ-stepping comparison grid behind the paper's figures 7–9
// (execution time, TEPS, update counts on RMAT and random graphs across
// node counts).  One function produces the grid; the per-figure bench
// binaries format different columns of it.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/runtime/network.hpp"
#include "src/stats/experiment.hpp"

namespace acic::stats {

struct CompareSpec {
  std::uint32_t scale = 13;
  std::uint32_t edge_factor = 16;
  std::vector<std::uint32_t> nodes_list{1, 2, 4, 8, 16};
  std::vector<GraphKind> graphs{GraphKind::kRandom, GraphKind::kRmat};
  /// Trials per point; each uses a distinct seed (the paper averages 10).
  std::uint32_t trials = 3;
  std::uint64_t base_seed = 1;
  /// Per-run simulated-time guard.
  runtime::SimTime time_limit_us = 300e6;
  /// Tramlib buffer size; 0 applies the per-node-count optimum from the
  /// fig. 6 sweep (paper_optimal_buffer scaled to the experiment size).
  std::size_t buffer_override = 0;
  /// Use the paper's full 48-worker nodes instead of 8-worker mini nodes
  /// (see ExperimentSpec::full_scale_nodes).
  bool full_scale_nodes = false;
};

struct CompareRow {
  GraphKind graph = GraphKind::kRandom;
  std::uint32_t nodes = 1;
  /// Trial-averaged outcomes.
  double acic_time_s = 0.0;
  double riken_time_s = 0.0;
  double acic_teps = 0.0;
  double riken_teps = 0.0;
  double acic_updates = 0.0;
  double riken_updates = 0.0;
  double acic_imbalance = 0.0;
  double riken_imbalance = 0.0;
  bool any_time_limit = false;

  double speedup_acic_over_riken() const {
    return acic_time_s > 0.0 ? riken_time_s / acic_time_s : 0.0;
  }
};

/// The tramlib buffer size the paper's fig. 6 sweep finds optimal at each
/// node count (2048 for 1–2 nodes, 1024 for 4–8, 512 for 16+).
std::size_t paper_optimal_buffer(std::uint32_t nodes);

/// Runs the full grid.  `progress` (optional) is invoked with a
/// human-readable line after each point.
std::vector<CompareRow> run_comparison(
    const CompareSpec& spec,
    void (*progress)(const char* line) = nullptr);

}  // namespace acic::stats
