// Property-based tests: invariants that must hold for every algorithm on
// every workload, plus negative tests proving the validator catches
// corrupted results.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "src/baselines/sequential.hpp"
#include "src/graph/validate.hpp"
#include "src/sssp/solver.hpp"
#include "src/stats/experiment.hpp"
#include "src/util/rng.hpp"

namespace {

using acic::graph::Csr;
using acic::graph::Dist;
using acic::graph::kInfDist;
using acic::stats::ExperimentSpec;
using acic::stats::GraphKind;

// Every registry solver except the sequential oracle they must agree
// with.
std::vector<std::string> distributed_solvers() {
  std::vector<std::string> names = acic::sssp::solver_names();
  std::erase(names, "sequential");
  return names;
}

// "delta_stepping_dist" runs as pure 1-D Δ-stepping: the hybrid
// Bellman-Ford tail stays with the RIKEN-style "delta_stepping_2d".
acic::sssp::SolverRun solve(const std::string& solver, const Csr& csr,
                            const ExperimentSpec& spec,
                            acic::runtime::SimTime time_limit_us =
                                acic::runtime::kNoTimeLimit) {
  acic::runtime::Machine machine(spec.topology());
  acic::sssp::SolverOptions opts;
  if (solver == "delta_stepping_dist") opts.delta.hybrid_bellman_ford = false;
  opts.time_limit_us = time_limit_us;
  return acic::sssp::run_solver(solver, machine, csr, spec.source, opts);
}

// ---- cross-algorithm properties --------------------------------------------

using AlgoKind = std::tuple<std::string, GraphKind>;

class AlgorithmProperties : public ::testing::TestWithParam<AlgoKind> {};

TEST_P(AlgorithmProperties, FixedPointAndMetricsInvariants) {
  const auto& [solver, kind] = GetParam();
  ExperimentSpec spec;
  spec.graph = kind;
  spec.scale = 10;
  spec.edge_factor = 8;
  spec.seed = 19;
  spec.nodes = 2;
  const Csr csr = acic::stats::build_graph(spec);
  const auto outcome = solve(solver, csr, spec, 300e6);
  ASSERT_FALSE(outcome.telemetry.hit_time_limit);
  const auto& dist = outcome.sssp.dist;
  const auto& m = outcome.sssp.metrics;

  // P1: the SSSP fixed point (implies exact shortest distances).
  const auto fixed = acic::graph::validate_sssp(csr, spec.source, dist);
  EXPECT_TRUE(fixed.ok) << fixed.error;

  // P2: all distances non-negative; source is zero.
  for (const Dist d : dist) {
    EXPECT_TRUE(d >= 0.0) << d;
  }
  EXPECT_DOUBLE_EQ(dist[spec.source], 0.0);

  // P3: simulated time advanced and is finite.
  EXPECT_GT(m.sim_time_us, 0.0);
  EXPECT_TRUE(std::isfinite(m.sim_time_us));

  // P4: work accounting is sane.
  EXPECT_GT(m.updates_created, 0u);
  EXPECT_GE(m.updates_processed, m.updates_rejected);
  EXPECT_LE(m.wasted_fraction(), 1.0);
  EXPECT_GE(m.wasted_fraction(), 0.0);

  // P5: vertices_touched equals the number of reachable vertices
  // (every reachable vertex goes from infinity to finite exactly once).
  std::uint64_t reachable = 0;
  for (const Dist d : dist) {
    if (d != kInfDist) ++reachable;
  }
  EXPECT_EQ(m.vertices_touched, reachable);

  // P6: some traffic flowed and TEPS is consistent with it.
  EXPECT_GT(m.network_messages, 0u);
  EXPECT_NEAR(m.teps(),
              static_cast<double>(m.updates_created) / m.sim_time_s(),
              1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllKinds, AlgorithmProperties,
    ::testing::Combine(
        ::testing::ValuesIn(distributed_solvers()),
        ::testing::Values(GraphKind::kRandom, GraphKind::kRmat,
                          GraphKind::kRoad)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             acic::stats::graph_kind_name(std::get<1>(info.param));
    });

// ---- algorithm-independence property ----------------------------------------

TEST(Properties, AllAlgorithmsAgreeExactly) {
  // Six independent implementations; exact agreement on every vertex is
  // the strongest cross-check the repository has.
  ExperimentSpec spec;
  spec.graph = GraphKind::kRmat;
  spec.scale = 10;
  spec.seed = 91;
  spec.nodes = 2;
  const Csr csr = acic::stats::build_graph(spec);

  const auto reference = solve("acic", csr, spec).sssp.dist;
  for (const std::string& solver : distributed_solvers()) {
    if (solver == "acic") continue;
    const auto dist = solve(solver, csr, spec).sssp.dist;
    const auto cmp = acic::graph::compare_distances(dist, reference);
    EXPECT_TRUE(cmp.ok) << solver << ": " << cmp.error;
  }
}

// ---- monotonicity property ---------------------------------------------------

TEST(Properties, RemovingEdgesNeverShortensDistances) {
  ExperimentSpec spec;
  spec.graph = GraphKind::kRandom;
  spec.scale = 9;
  spec.seed = 27;
  const Csr full = acic::stats::build_graph(spec);

  // Drop every third edge.
  acic::graph::EdgeList reduced(full.num_vertices(), {});
  std::size_t i = 0;
  for (acic::graph::VertexId v = 0; v < full.num_vertices(); ++v) {
    for (const auto& nb : full.out_neighbors(v)) {
      if (i++ % 3 != 0) reduced.add(v, nb.dst, nb.weight);
    }
  }
  const Csr sparse = Csr::from_edge_list(reduced);

  const auto dist_full = acic::baselines::dijkstra(full, 0);
  const auto dist_sparse = acic::baselines::dijkstra(sparse, 0);
  for (acic::graph::VertexId v = 0; v < full.num_vertices(); ++v) {
    EXPECT_GE(dist_sparse[v], dist_full[v]) << "vertex " << v;
  }
}

TEST(Properties, ScalingWeightsScalesDistances) {
  ExperimentSpec spec;
  spec.graph = GraphKind::kRandom;
  spec.scale = 9;
  spec.seed = 28;
  const Csr csr = acic::stats::build_graph(spec);

  acic::graph::EdgeList doubled(csr.num_vertices(), {});
  for (acic::graph::VertexId v = 0; v < csr.num_vertices(); ++v) {
    for (const auto& nb : csr.out_neighbors(v)) {
      doubled.add(v, nb.dst, nb.weight * 2.0);
    }
  }
  const auto base = acic::baselines::dijkstra(csr, 0);
  const auto scaled = acic::baselines::dijkstra(
      Csr::from_edge_list(doubled), 0);
  for (std::size_t v = 0; v < base.size(); ++v) {
    if (base[v] == kInfDist) {
      EXPECT_EQ(scaled[v], kInfDist);
    } else {
      EXPECT_DOUBLE_EQ(scaled[v], base[v] * 2.0);
    }
  }
}

// ---- validator negative tests -----------------------------------------------

class ValidatorCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    ExperimentSpec spec;
    spec.graph = GraphKind::kRandom;
    spec.scale = 8;
    // Sparse enough that some vertices are unreachable (needed by the
    // fabricated-reachability test).
    spec.edge_factor = 2;
    spec.seed = 14;
    csr_ = acic::stats::build_graph(spec);
    dist_ = acic::baselines::dijkstra(csr_, 0);
  }

  Csr csr_;
  std::vector<Dist> dist_;
};

TEST_F(ValidatorCorruption, AcceptsCorrectResult) {
  EXPECT_TRUE(acic::graph::validate_sssp(csr_, 0, dist_).ok);
}

TEST_F(ValidatorCorruption, DetectsInflatedDistance) {
  // Find a reachable non-source vertex and inflate it.
  for (std::size_t v = 1; v < dist_.size(); ++v) {
    if (dist_[v] != kInfDist) {
      dist_[v] += 1.0;
      break;
    }
  }
  EXPECT_FALSE(acic::graph::validate_sssp(csr_, 0, dist_).ok);
}

TEST_F(ValidatorCorruption, DetectsDeflatedDistance) {
  for (std::size_t v = 1; v < dist_.size(); ++v) {
    if (dist_[v] != kInfDist && dist_[v] > 1.0) {
      dist_[v] -= 0.5;
      break;
    }
  }
  EXPECT_FALSE(acic::graph::validate_sssp(csr_, 0, dist_).ok);
}

TEST_F(ValidatorCorruption, DetectsWrongSourceDistance) {
  dist_[0] = 1.0;
  EXPECT_FALSE(acic::graph::validate_sssp(csr_, 0, dist_).ok);
}

TEST_F(ValidatorCorruption, DetectsFabricatedReachability) {
  // Mark an unreachable vertex as reached with a plausible value.
  for (std::size_t v = 0; v < dist_.size(); ++v) {
    if (dist_[v] == kInfDist) {
      dist_[v] = 10.0;
      EXPECT_FALSE(acic::graph::validate_sssp(csr_, 0, dist_).ok);
      return;
    }
  }
  GTEST_SKIP() << "graph fully reachable for this seed";
}

TEST_F(ValidatorCorruption, DetectsSizeMismatch) {
  dist_.pop_back();
  EXPECT_FALSE(acic::graph::validate_sssp(csr_, 0, dist_).ok);
}

TEST(CompareDistances, ExactAndInfinityAware) {
  const std::vector<Dist> a{0.0, 1.0, kInfDist};
  EXPECT_TRUE(acic::graph::compare_distances(a, a).ok);
  const std::vector<Dist> b{0.0, 1.0000001, kInfDist};
  EXPECT_FALSE(acic::graph::compare_distances(a, b).ok);
  const std::vector<Dist> c{0.0, 1.0};
  EXPECT_FALSE(acic::graph::compare_distances(a, c).ok);
  const std::vector<Dist> d{0.0, kInfDist, 1.0};
  EXPECT_FALSE(acic::graph::compare_distances(a, d).ok);
}

// ---- experiment harness ------------------------------------------------------

TEST(Harness, GraphKindNamesRoundTrip) {
  for (const GraphKind kind :
       {GraphKind::kRandom, GraphKind::kRmat, GraphKind::kRoad,
        GraphKind::kErdosRenyi}) {
    EXPECT_EQ(acic::stats::graph_kind_from_string(
                  acic::stats::graph_kind_name(kind)),
              kind);
  }
}

TEST(Harness, TopologySelection) {
  ExperimentSpec spec;
  spec.nodes = 3;
  EXPECT_EQ(spec.topology().num_pes(), 24u);  // mini nodes: 8 workers
  spec.full_scale_nodes = true;
  EXPECT_EQ(spec.topology().num_pes(), 144u);  // paper nodes: 48 workers
  spec.pes_override = 5;
  EXPECT_EQ(spec.topology().num_pes(), 5u);
}

TEST(Harness, BuildGraphHonorsScale) {
  ExperimentSpec spec;
  spec.scale = 8;
  spec.edge_factor = 4;
  const Csr csr = acic::stats::build_graph(spec);
  EXPECT_EQ(csr.num_vertices(), 256u);
  EXPECT_NEAR(static_cast<double>(csr.num_edges()), 1024.0, 64.0);
}

TEST(Harness, RoadGraphIsSquareGrid) {
  ExperimentSpec spec;
  spec.graph = GraphKind::kRoad;
  spec.scale = 8;
  const Csr csr = acic::stats::build_graph(spec);
  EXPECT_EQ(csr.num_vertices(), 256u);  // 16 x 16
}

}  // namespace
