// Parameterized correctness sweeps for every baseline: sequential
// kernels (Dijkstra self-check via fixed point, Bellman-Ford,
// Δ-stepping across Δ values) and the distributed algorithms across
// graph kinds, seeds and machine shapes.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/baselines/delta_stepping.hpp"
#include "src/baselines/distributed_control.hpp"
#include "src/baselines/kla.hpp"
#include "src/baselines/sequential.hpp"
#include "src/graph/partition2d.hpp"
#include "src/graph/validate.hpp"
#include "src/stats/experiment.hpp"

namespace {

using acic::graph::Csr;
using acic::graph::Partition1D;
using acic::graph::Partition2D;
using acic::runtime::Machine;
using acic::runtime::Topology;
using acic::stats::ExperimentSpec;
using acic::stats::GraphKind;

Csr make_graph(GraphKind kind, std::uint64_t seed, std::uint32_t scale = 10,
               std::uint32_t edge_factor = 8) {
  ExperimentSpec spec;
  spec.graph = kind;
  spec.scale = scale;
  spec.edge_factor = edge_factor;
  spec.seed = seed;
  return acic::stats::build_graph(spec);
}

// ---- sequential kernels -----------------------------------------------------

TEST(SequentialKernels, DijkstraSatisfiesFixedPoint) {
  for (const GraphKind kind :
       {GraphKind::kRandom, GraphKind::kRmat, GraphKind::kRoad}) {
    const Csr csr = make_graph(kind, 3);
    const auto dist = acic::baselines::dijkstra(csr, 0);
    const auto result = acic::graph::validate_sssp(csr, 0, dist);
    EXPECT_TRUE(result.ok) << result.error;
  }
}

class SeqDeltaSweep : public ::testing::TestWithParam<double> {};

TEST_P(SeqDeltaSweep, MatchesDijkstraForAnyDelta) {
  const Csr csr = make_graph(GraphKind::kRmat, 7);
  const auto expected = acic::baselines::dijkstra(csr, 0);
  const auto actual =
      acic::baselines::delta_stepping_seq(csr, 0, GetParam());
  EXPECT_TRUE(acic::graph::compare_distances(actual, expected).ok);
}

INSTANTIATE_TEST_SUITE_P(Deltas, SeqDeltaSweep,
                         ::testing::Values(0.0, 1.0, 8.0, 64.0, 1024.0),
                         [](const auto& info) {
                           return "delta" +
                                  std::to_string(
                                      static_cast<int>(info.param));
                         });

TEST(SequentialKernels, DefaultDeltaIsPositive) {
  const Csr csr = make_graph(GraphKind::kRandom, 2);
  EXPECT_GT(acic::baselines::default_delta(csr), 0.0);
  // Empty graph edge case.
  const Csr empty = Csr::from_edge_list(acic::graph::EdgeList(4, {}));
  EXPECT_GT(acic::baselines::default_delta(empty), 0.0);
}

TEST(SequentialKernels, DijkstraStatsCountRelaxations) {
  const Csr csr = make_graph(GraphKind::kRandom, 5, 9);
  acic::baselines::SeqStats stats;
  acic::baselines::dijkstra(csr, 0, &stats);
  EXPECT_GT(stats.relaxations, 0u);
  EXPECT_GE(stats.relaxations, stats.improvements);
}

// ---- distributed algorithms across kinds × seeds ---------------------------

enum class DistAlgo { kDelta1D, kDelta2D, kKla, kDc };

using DistCase = std::tuple<DistAlgo, GraphKind, std::uint64_t>;

class DistributedSweep : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributedSweep, MatchesDijkstra) {
  const auto [algo, kind, seed] = GetParam();
  const Csr csr = make_graph(kind, seed);
  const auto expected = acic::baselines::dijkstra(csr, 0);

  Machine machine(Topology{2, 2, 2});
  std::vector<acic::graph::Dist> dist;
  switch (algo) {
    case DistAlgo::kDelta1D: {
      const auto partition =
          Partition1D::block(csr.num_vertices(), machine.num_pes());
      dist = acic::baselines::delta_stepping_dist(machine, csr, partition,
                                                  0, {}, 120e6)
                 .sssp.dist;
      break;
    }
    case DistAlgo::kDelta2D: {
      const auto partition =
          Partition2D::squarest(csr, machine.num_pes());
      dist = acic::baselines::delta_stepping_2d(machine, csr, partition,
                                                0, {}, 120e6)
                 .sssp.dist;
      break;
    }
    case DistAlgo::kKla: {
      const auto partition =
          Partition1D::block(csr.num_vertices(), machine.num_pes());
      dist = acic::baselines::kla_sssp(machine, csr, partition, 0, {},
                                       120e6)
                 .sssp.dist;
      break;
    }
    case DistAlgo::kDc: {
      const auto partition =
          Partition1D::block(csr.num_vertices(), machine.num_pes());
      dist = acic::baselines::distributed_control_sssp(
                 machine, csr, partition, 0, {}, 120e6)
                 .sssp.dist;
      break;
    }
  }
  const auto cmp = acic::graph::compare_distances(dist, expected);
  EXPECT_TRUE(cmp.ok) << cmp.error;
}

std::string dist_case_name(const ::testing::TestParamInfo<DistCase>& info) {
  const char* names[] = {"delta1d", "delta2d", "kla", "dc"};
  std::string kind = acic::stats::graph_kind_name(std::get<1>(info.param));
  for (char& c : kind) {
    if (c == '-') c = '_';
  }
  return std::string(names[static_cast<int>(std::get<0>(info.param))]) +
         "_" + kind + "_s" + std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AlgosKindsSeeds, DistributedSweep,
    ::testing::Combine(
        ::testing::Values(DistAlgo::kDelta1D, DistAlgo::kDelta2D,
                          DistAlgo::kKla, DistAlgo::kDc),
        ::testing::Values(GraphKind::kRandom, GraphKind::kRmat,
                          GraphKind::kRoad),
        ::testing::Values(1u, 2u)),
    dist_case_name);

// ---- Δ-stepping specifics ---------------------------------------------------

TEST(DeltaDist, ExplicitDeltaValuesAllCorrect) {
  const Csr csr = make_graph(GraphKind::kRandom, 9);
  const auto expected = acic::baselines::dijkstra(csr, 0);
  for (const double delta : {4.0, 32.0, 300.0}) {
    Machine machine(Topology::tiny(4));
    const auto partition = Partition1D::block(csr.num_vertices(), 4);
    acic::baselines::DeltaConfig config;
    config.delta = delta;
    const auto run = acic::baselines::delta_stepping_dist(
        machine, csr, partition, 0, config, 120e6);
    EXPECT_TRUE(
        acic::graph::compare_distances(run.sssp.dist, expected).ok)
        << "delta " << delta;
  }
}

TEST(DeltaDist, HugeDeltaDegeneratesToFewBuckets) {
  const Csr csr = make_graph(GraphKind::kRandom, 9, 9);
  Machine machine(Topology::tiny(4));
  const auto partition = Partition1D::block(csr.num_vertices(), 4);
  acic::baselines::DeltaConfig config;
  config.delta = 1e9;  // everything is a light edge in bucket 0
  config.hybrid_bellman_ford = false;
  const auto run = acic::baselines::delta_stepping_dist(
      machine, csr, partition, 0, config, 120e6);
  EXPECT_EQ(run.buckets_processed, 1u);
  const auto expected = acic::baselines::dijkstra(csr, 0);
  EXPECT_TRUE(acic::graph::compare_distances(run.sssp.dist, expected).ok);
}

TEST(DeltaDist, HybridSwitchTriggersOnRoadGraph) {
  // Road graphs have a long settled-count decay, so the local-maximum
  // heuristic must fire.
  const Csr csr = make_graph(GraphKind::kRoad, 4, 12);
  Machine machine(Topology{1, 2, 2});
  const auto partition =
      Partition1D::block(csr.num_vertices(), machine.num_pes());
  const auto run = acic::baselines::delta_stepping_dist(
      machine, csr, partition, 0, {}, 300e6);
  EXPECT_TRUE(run.switched_to_bf);
  EXPECT_GT(run.bf_sweeps, 0u);
  const auto expected = acic::baselines::dijkstra(csr, 0);
  EXPECT_TRUE(acic::graph::compare_distances(run.sssp.dist, expected).ok);
}

TEST(Delta2D, RectangularGridsWork) {
  const Csr csr = make_graph(GraphKind::kRandom, 6, 9);
  const auto expected = acic::baselines::dijkstra(csr, 0);
  for (const auto& [nodes, procs, pes] :
       {std::tuple{1u, 2u, 3u}, std::tuple{1u, 1u, 5u},
        std::tuple{2u, 3u, 2u}}) {
    Machine machine(Topology{nodes, procs, pes});
    const auto partition =
        Partition2D::squarest(csr, machine.num_pes());
    const auto run = acic::baselines::delta_stepping_2d(
        machine, csr, partition, 0, {}, 120e6);
    EXPECT_TRUE(
        acic::graph::compare_distances(run.sssp.dist, expected).ok)
        << nodes << "x" << procs << "x" << pes;
  }
}

// ---- KLA specifics ----------------------------------------------------------

TEST(KlaBehaviour, AdaptsKUpward) {
  const Csr csr = make_graph(GraphKind::kRandom, 10);
  Machine machine(Topology::tiny(4));
  const auto partition = Partition1D::block(csr.num_vertices(), 4);
  acic::baselines::KlaConfig config;
  config.initial_k = 1;
  const auto run =
      acic::baselines::kla_sssp(machine, csr, partition, 0, config, 120e6);
  // The changed-count surges in early supersteps; k must have grown at
  // some point (it may shrink back down while draining the tail).
  EXPECT_GT(run.peak_k, 1u);
}

TEST(KlaBehaviour, RespectsMaxK) {
  const Csr csr = make_graph(GraphKind::kRandom, 10, 9);
  Machine machine(Topology::tiny(4));
  const auto partition = Partition1D::block(csr.num_vertices(), 4);
  acic::baselines::KlaConfig config;
  config.initial_k = 2;
  config.max_k = 4;
  const auto run =
      acic::baselines::kla_sssp(machine, csr, partition, 0, config, 120e6);
  EXPECT_LE(run.final_k, 4u);
}

// ---- distributed control specifics -----------------------------------------

TEST(DcBehaviour, DeterministicAcrossRuns) {
  const Csr csr = make_graph(GraphKind::kRmat, 11);
  const auto partition = Partition1D::block(csr.num_vertices(), 8);
  auto run_once = [&] {
    Machine machine(Topology{2, 2, 2});
    return acic::baselines::distributed_control_sssp(machine, csr,
                                                     partition, 0, {},
                                                     120e6);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.sssp.dist, b.sssp.dist);
  EXPECT_EQ(a.sssp.metrics.updates_created,
            b.sssp.metrics.updates_created);
}

TEST(DcBehaviour, ConservationHolds) {
  const Csr csr = make_graph(GraphKind::kRandom, 12);
  Machine machine(Topology::tiny(4));
  const auto partition = Partition1D::block(csr.num_vertices(), 4);
  const auto run = acic::baselines::distributed_control_sssp(
      machine, csr, partition, 0, {}, 120e6);
  EXPECT_EQ(run.sssp.metrics.updates_created,
            run.sssp.metrics.updates_processed);
}

}  // namespace
