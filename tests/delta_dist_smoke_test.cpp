// Smoke tests for distributed Δ-stepping (1-D): exact agreement with
// Dijkstra, clean termination, hybrid Bellman-Ford switching.

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
using acic::graph::Partition1D;
using acic::runtime::Machine;
using acic::runtime::Topology;

DeltaRunResult run_delta(const Csr& csr, acic::graph::VertexId source,
                         const Topology& topo, const DeltaConfig& config) {
  Machine machine(topo);
  const Partition1D partition =
      Partition1D::block(csr.num_vertices(), topo.num_pes());
  return acic::baselines::delta_stepping_dist(machine, csr, partition,
                                              source, config);
}

TEST(DeltaDistSmoke, TinyChain) {
  acic::graph::EdgeList list(4, {});
  list.add(0, 1, 1.0);
  list.add(1, 2, 2.0);
  list.add(2, 3, 4.0);
  const Csr csr = Csr::from_edge_list(list);
  const DeltaRunResult run = run_delta(csr, 0, Topology::tiny(2), {});
  EXPECT_FALSE(run.hit_time_limit);
  EXPECT_DOUBLE_EQ(run.sssp.dist[3], 7.0);
}

TEST(DeltaDistSmoke, MatchesDijkstraOnRandomGraph) {
  GenParams params;
  params.num_vertices = 512;
  params.num_edges = 4096;
  params.seed = 11;
  const Csr csr =
      Csr::from_edge_list(acic::graph::generate_uniform_random(params));
  const auto expected = acic::baselines::dijkstra(csr, 0);

  DeltaConfig config;
  const DeltaRunResult run = run_delta(csr, 0, Topology{1, 2, 3}, config);
  EXPECT_FALSE(run.hit_time_limit);
  const auto cmp = acic::graph::compare_distances(run.sssp.dist, expected);
  EXPECT_TRUE(cmp.ok) << cmp.error;
}

TEST(DeltaDistSmoke, NonHybridAlsoMatchesDijkstra) {
  GenParams params;
  params.num_vertices = 300;
  params.num_edges = 2500;
  params.seed = 5;
  const Csr csr =
      Csr::from_edge_list(acic::graph::generate_uniform_random(params));
  const auto expected = acic::baselines::dijkstra(csr, 3);

  DeltaConfig config;
  config.hybrid_bellman_ford = false;
  const DeltaRunResult run = run_delta(csr, 3, Topology::tiny(4), config);
  EXPECT_FALSE(run.switched_to_bf);
  const auto cmp = acic::graph::compare_distances(run.sssp.dist, expected);
  EXPECT_TRUE(cmp.ok) << cmp.error;
}

TEST(DeltaDistSmoke, HybridSwitchStillCorrectOnRmat) {
  GenParams params;
  params.num_vertices = 1024;
  params.num_edges = 8192;
  params.seed = 2;
  const Csr csr = Csr::from_edge_list(acic::graph::generate_rmat(params));
  const auto expected = acic::baselines::dijkstra(csr, 0);

  const DeltaRunResult run = run_delta(csr, 0, Topology{1, 2, 2}, {});
  const auto cmp = acic::graph::compare_distances(run.sssp.dist, expected);
  EXPECT_TRUE(cmp.ok) << cmp.error;
}

}  // namespace
