#pragma once
// Degree-distribution summaries, used both by tests (verifying that RMAT
// is power-law-ish and uniform-random is not) and by the examples.

#include <cstddef>
#include <vector>

#include "src/graph/csr.hpp"

namespace acic::graph {

struct DegreeStats {
  std::size_t max_degree = 0;
  double mean_degree = 0.0;
  /// Gini coefficient of the out-degree distribution in [0, 1]:
  /// ~0 for uniform-random graphs, large (> 0.4) for RMAT hubs.
  double gini = 0.0;
  /// Number of vertices with zero out-degree.
  std::size_t isolated = 0;
};

DegreeStats compute_degree_stats(const Csr& csr);

}  // namespace acic::graph
