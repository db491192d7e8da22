#pragma once
// Per-operation CPU costs shared by every distributed engine in this
// repository.  ACIC, the SSSP baselines and both connected-components
// engines read the one table kCosts, so they charge the *same* costs for
// the same logical operations, and simulated-time comparisons between
// them reflect algorithmic structure (update counts, synchronization,
// message aggregation) rather than arbitrary constant choices.

#include "src/runtime/network.hpp"

namespace acic::sssp {

struct CostModel {
  /// Compare an incoming update against the vertex distance and store it.
  runtime::SimTime update_apply_us = 0.3;
  /// Generate one onward update from an out-edge (read edge, add weight).
  runtime::SimTime edge_relax_us = 0.15;
  /// One push or pop on a PE-local priority queue / bucket structure.
  runtime::SimTime pq_op_us = 0.08;
};

inline constexpr CostModel kCosts{};

}  // namespace acic::sssp
