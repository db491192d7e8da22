// Hop-count checks of the workload generators and of Dijkstra's notion
// of "unreachable", against a plain BFS kept in this file.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "src/baselines/sequential.hpp"
#include "src/graph/csr.hpp"
#include "src/stats/experiment.hpp"

namespace {

using acic::graph::Csr;
using acic::graph::VertexId;

constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();

/// Hop counts from `source` along out-edges; kUnreached where
/// unreachable.
std::vector<std::uint32_t> bfs_hops(const Csr& csr, VertexId source) {
  std::vector<std::uint32_t> hops(csr.num_vertices(), kUnreached);
  hops[source] = 0;
  std::queue<VertexId> frontier;
  frontier.push(source);
  while (!frontier.empty()) {
    const VertexId v = frontier.front();
    frontier.pop();
    for (const acic::graph::Neighbor& nb : csr.out_neighbors(v)) {
      if (hops[nb.dst] == kUnreached) {
        hops[nb.dst] = hops[v] + 1;
        frontier.push(nb.dst);
      }
    }
  }
  return hops;
}

/// Lower bound on the hop diameter by double sweep: BFS from vertex 0,
/// then the eccentricity of the farthest vertex it reached.
std::uint32_t diameter_lower_bound(const Csr& csr) {
  const auto first = bfs_hops(csr, 0);
  VertexId farthest = 0;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    if (first[v] != kUnreached && first[v] >= first[farthest]) farthest = v;
  }
  std::uint32_t eccentricity = 0;
  for (const std::uint32_t h : bfs_hops(csr, farthest)) {
    if (h != kUnreached) eccentricity = std::max(eccentricity, h);
  }
  return eccentricity;
}

TEST(Bfs, RoadGraphHasHigherDiameterThanRandom) {
  acic::stats::ExperimentSpec spec;
  spec.scale = 12;
  spec.seed = 3;
  spec.graph = acic::stats::GraphKind::kRandom;
  const Csr random_graph = acic::stats::build_graph(spec);
  spec.graph = acic::stats::GraphKind::kRoad;
  const Csr road_graph = acic::stats::build_graph(spec);
  // The workload distinction the paper's §V leans on, quantified.
  EXPECT_GT(diameter_lower_bound(road_graph),
            4 * diameter_lower_bound(random_graph));
}

TEST(Bfs, ReachabilityAgreesWithDijkstra) {
  acic::stats::ExperimentSpec spec;
  spec.scale = 10;
  spec.edge_factor = 2;  // leaves unreachable vertices
  spec.seed = 9;
  const Csr csr = acic::stats::build_graph(spec);
  const auto hops = bfs_hops(csr, 0);
  const auto dist = acic::baselines::dijkstra(csr, 0);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_EQ(hops[v] == kUnreached, dist[v] == acic::graph::kInfDist)
        << "vertex " << v;
  }
}

}  // namespace
