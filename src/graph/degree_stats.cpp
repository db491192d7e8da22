#include "src/graph/degree_stats.hpp"

#include <algorithm>
#include <cstdint>

namespace acic::graph {

DegreeStats compute_degree_stats(const Csr& csr) {
  DegreeStats stats;
  const VertexId n = csr.num_vertices();
  if (n == 0) return stats;

  std::vector<std::size_t> degrees(n);
  std::size_t total = 0;
  for (VertexId v = 0; v < n; ++v) {
    degrees[v] = csr.out_degree(v);
    total += degrees[v];
    stats.max_degree = std::max(stats.max_degree, degrees[v]);
    if (degrees[v] == 0) ++stats.isolated;
  }
  stats.mean_degree = static_cast<double>(total) / static_cast<double>(n);

  // Gini via the sorted-rank formula:
  //   G = (2 * sum_i i*x_i) / (n * sum x) - (n + 1) / n,  x sorted asc,
  // with i being 1-based rank.
  std::sort(degrees.begin(), degrees.end());
  if (total > 0) {
    long double weighted = 0.0L;
    for (VertexId i = 0; i < n; ++i) {
      weighted += static_cast<long double>(i + 1) * degrees[i];
    }
    const long double dn = n;
    stats.gini = static_cast<double>(
        (2.0L * weighted) / (dn * static_cast<long double>(total)) -
        (dn + 1.0L) / dn);
  }
  return stats;
}

}  // namespace acic::graph
