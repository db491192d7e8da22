// Smoke tests for the 2-D grid Δ-stepping baseline.

#include <gtest/gtest.h>

#include "src/baselines/delta_stepping.hpp"
#include "src/baselines/sequential.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/validate.hpp"

namespace {

using acic::baselines::DeltaConfig;
using acic::baselines::DeltaRunResult;
using acic::graph::Csr;
using acic::graph::GenParams;
using acic::graph::Partition2D;
using acic::runtime::Machine;
using acic::runtime::Topology;

DeltaRunResult run_2d(const Csr& csr, acic::graph::VertexId source,
                      const Topology& topo, const DeltaConfig& config) {
  Machine machine(topo);
  const Partition2D partition = Partition2D::squarest(csr, topo.num_pes());
  return acic::baselines::delta_stepping_2d(machine, csr, partition, source,
                                            config);
}

TEST(Delta2DSmoke, TinyChainOnGrid) {
  acic::graph::EdgeList list(4, {});
  list.add(0, 1, 1.0);
  list.add(1, 2, 2.0);
  list.add(2, 3, 4.0);
  const Csr csr = Csr::from_edge_list(list);
  const DeltaRunResult run = run_2d(csr, 0, Topology{1, 2, 2}, {});
  EXPECT_FALSE(run.hit_time_limit);
  EXPECT_DOUBLE_EQ(run.sssp.dist[3], 7.0);
}

TEST(Delta2DSmoke, MatchesDijkstraOnRandomGraph) {
  GenParams params;
  params.num_vertices = 600;
  params.num_edges = 4800;
  params.seed = 17;
  const Csr csr =
      Csr::from_edge_list(acic::graph::generate_uniform_random(params));
  const auto expected = acic::baselines::dijkstra(csr, 0);

  const DeltaRunResult run = run_2d(csr, 0, Topology{1, 3, 3}, {});
  EXPECT_FALSE(run.hit_time_limit);
  const auto cmp = acic::graph::compare_distances(run.sssp.dist, expected);
  EXPECT_TRUE(cmp.ok) << cmp.error;
}

TEST(Delta2DSmoke, MatchesDijkstraOnRmatWithHybrid) {
  GenParams params;
  params.num_vertices = 1024;
  params.num_edges = 8192;
  params.seed = 23;
  const Csr csr = Csr::from_edge_list(acic::graph::generate_rmat(params));
  const auto expected = acic::baselines::dijkstra(csr, 0);

  const DeltaRunResult run = run_2d(csr, 0, Topology{1, 2, 3}, {});
  const auto cmp = acic::graph::compare_distances(run.sssp.dist, expected);
  EXPECT_TRUE(cmp.ok) << cmp.error;
  const auto fixed = acic::graph::validate_sssp(csr, 0, run.sssp.dist);
  EXPECT_TRUE(fixed.ok) << fixed.error;
}

TEST(Delta2DSmoke, SpreadsHubEdgesAcrossColumn) {
  // A star graph: vertex 0 has huge out-degree.  Under the 2-D partition
  // its out-edges must spread across multiple cells (the load-balance
  // property the paper credits for the RMAT win).
  acic::graph::EdgeList list(64, {});
  for (acic::graph::VertexId v = 1; v < 64; ++v) list.add(0, v, 1.0);
  const Csr csr = Csr::from_edge_list(list);
  const Partition2D partition(csr, 2, 2);
  const auto counts = partition.edges_per_cell();
  int cells_with_edges = 0;
  for (const std::size_t c : counts) {
    if (c > 0) ++cells_with_edges;
  }
  EXPECT_GE(cells_with_edges, 2);
}

}  // namespace
