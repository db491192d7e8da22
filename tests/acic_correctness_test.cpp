// Parameterized correctness sweeps for ACIC: every graph kind × seed ×
// machine shape × parameter setting must produce exactly Dijkstra's
// distances, satisfy the SSSP fixed point, conserve update counts, and
// be deterministic.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "src/baselines/sequential.hpp"
#include "src/core/acic.hpp"
#include "src/graph/validate.hpp"
#include "src/stats/experiment.hpp"
#include "src/tram/tram.hpp"
#include "src/util/rng.hpp"

namespace {

using acic::core::AcicConfig;
using acic::core::AcicRunResult;
using acic::graph::Csr;
using acic::graph::Partition1D;
using acic::runtime::Machine;
using acic::stats::ExperimentSpec;
using acic::stats::GraphKind;

AcicRunResult run_acic(const Csr& csr, const ExperimentSpec& spec,
                       const AcicConfig& config) {
  Machine machine(spec.topology());
  const Partition1D partition =
      Partition1D::block(csr.num_vertices(), machine.num_pes());
  return acic::core::acic_sssp(machine, csr, partition, spec.source,
                               config, /*time_limit_us=*/120e6);
}

void expect_correct(const Csr& csr, acic::graph::VertexId source,
                    const AcicRunResult& run) {
  ASSERT_FALSE(run.hit_time_limit);
  const auto expected = acic::baselines::dijkstra(csr, source);
  const auto cmp =
      acic::graph::compare_distances(run.sssp.dist, expected);
  EXPECT_TRUE(cmp.ok) << cmp.error;
  const auto fixed =
      acic::graph::validate_sssp(csr, source, run.sssp.dist);
  EXPECT_TRUE(fixed.ok) << fixed.error;
  EXPECT_EQ(run.sssp.metrics.updates_created,
            run.sssp.metrics.updates_processed);
}

// ---- graph kind × seed sweep ---------------------------------------------

using KindSeed = std::tuple<GraphKind, std::uint64_t>;

class AcicGraphSweep : public ::testing::TestWithParam<KindSeed> {};

TEST_P(AcicGraphSweep, MatchesDijkstra) {
  const auto [kind, seed] = GetParam();
  ExperimentSpec spec;
  spec.graph = kind;
  spec.scale = 10;
  spec.edge_factor = 8;
  spec.seed = seed;
  spec.nodes = 2;
  const Csr csr = acic::stats::build_graph(spec);
  expect_correct(csr, spec.source, run_acic(csr, spec, {}));
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, AcicGraphSweep,
    ::testing::Combine(::testing::Values(GraphKind::kRandom,
                                         GraphKind::kRmat,
                                         GraphKind::kRoad,
                                         GraphKind::kErdosRenyi),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    [](const auto& info) {
      std::string name =
          acic::stats::graph_kind_name(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name.append("_seed").append(
          std::to_string(std::get<1>(info.param)));
    });

// ---- machine shape sweep ---------------------------------------------------

class AcicTopologySweep
    : public ::testing::TestWithParam<acic::runtime::Topology> {};

TEST_P(AcicTopologySweep, MatchesDijkstra) {
  ExperimentSpec spec;
  spec.graph = GraphKind::kRandom;
  spec.scale = 10;
  spec.seed = 42;
  const Csr csr = acic::stats::build_graph(spec);

  Machine machine(GetParam());
  const Partition1D partition =
      Partition1D::block(csr.num_vertices(), machine.num_pes());
  const auto run =
      acic::core::acic_sssp(machine, csr, partition, 0, {}, 120e6);
  expect_correct(csr, 0, run);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AcicTopologySweep,
    ::testing::Values(acic::runtime::Topology{1, 1, 1},   // sequential
                      acic::runtime::Topology{1, 1, 7},   // one process
                      acic::runtime::Topology{1, 3, 2},   // multi-process
                      acic::runtime::Topology{2, 2, 2},   // multi-node
                      acic::runtime::Topology{4, 2, 3},   // 24 PEs
                      acic::runtime::Topology{3, 1, 5}),  // odd shapes
    [](const auto& info) {
      return std::to_string(info.param.nodes) + "n" +
             std::to_string(info.param.procs_per_node) + "p" +
             std::to_string(info.param.pes_per_proc) + "w";
    });

// ---- parameter sweep --------------------------------------------------------

struct ParamCase {
  const char* name;
  double p_tram;
  double p_pq;
  std::size_t buckets;
  std::size_t buffer;
  acic::tram::Aggregation mode;
  bool use_pq;
  bool use_pq_hold;
  bool use_tram_hold;
};

// gtest_discover_tests puts this text into each case's ctest name.
// Without it gtest prints the struct's raw bytes — the name pointer and
// padding included — so the names would change from build to build.
void PrintTo(const ParamCase& c, std::ostream* os) {
  *os << c.name << " p_tram=" << c.p_tram << " p_pq=" << c.p_pq
      << " buckets=" << c.buckets << " buffer=" << c.buffer
      << " mode=" << acic::tram::aggregation_name(c.mode)
      << " use_pq=" << c.use_pq << " use_pq_hold=" << c.use_pq_hold
      << " use_tram_hold=" << c.use_tram_hold;
}

class AcicParamSweep : public ::testing::TestWithParam<ParamCase> {};

TEST_P(AcicParamSweep, MatchesDijkstraUnderAnyConfiguration) {
  const ParamCase& param = GetParam();
  ExperimentSpec spec;
  spec.graph = GraphKind::kRmat;
  spec.scale = 10;
  spec.seed = 8;
  spec.nodes = 2;
  const Csr csr = acic::stats::build_graph(spec);

  AcicConfig config;
  config.p_tram = param.p_tram;
  config.p_pq = param.p_pq;
  config.num_buckets = param.buckets;
  config.tram.buffer_items = param.buffer;
  config.tram.mode = param.mode;
  config.use_pq = param.use_pq;
  config.use_pq_hold = param.use_pq_hold;
  config.use_tram_hold = param.use_tram_hold;
  expect_correct(csr, spec.source, run_acic(csr, spec, config));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AcicParamSweep,
    ::testing::Values(
        ParamCase{"paper_tuned", 0.999, 0.05, 512, 1024,
                  acic::tram::Aggregation::kWP, true, true, true},
        ParamCase{"tight_tram", 0.05, 0.05, 512, 1024,
                  acic::tram::Aggregation::kWP, true, true, true},
        ParamCase{"wide_pq", 0.999, 0.999, 512, 1024,
                  acic::tram::Aggregation::kWP, true, true, true},
        ParamCase{"few_buckets", 0.5, 0.5, 8, 1024,
                  acic::tram::Aggregation::kWP, true, true, true},
        ParamCase{"single_bucket", 0.5, 0.5, 1, 1024,
                  acic::tram::Aggregation::kWP, true, true, true},
        ParamCase{"tiny_buffers", 0.999, 0.05, 512, 2,
                  acic::tram::Aggregation::kWP, true, true, true},
        ParamCase{"huge_buffers", 0.999, 0.05, 512, 1u << 20,
                  acic::tram::Aggregation::kWP, true, true, true},
        ParamCase{"mode_pp", 0.999, 0.05, 512, 256,
                  acic::tram::Aggregation::kPP, true, true, true},
        ParamCase{"mode_ww", 0.999, 0.05, 512, 256,
                  acic::tram::Aggregation::kWW, true, true, true},
        ParamCase{"mode_pw", 0.999, 0.05, 512, 256,
                  acic::tram::Aggregation::kPW, true, true, true},
        ParamCase{"no_pq", 0.999, 0.05, 512, 1024,
                  acic::tram::Aggregation::kWP, false, false, false},
        ParamCase{"no_pq_hold", 0.999, 0.05, 512, 1024,
                  acic::tram::Aggregation::kWP, true, false, true},
        ParamCase{"no_tram_hold", 0.999, 0.05, 512, 1024,
                  acic::tram::Aggregation::kWP, true, true, false}),
    [](const auto& info) { return std::string(info.param.name); });

// ---- sources, determinism, special cases ----------------------------------

TEST(AcicCorrectness, WorkWindowPolicyMatchesDijkstra) {
  ExperimentSpec spec;
  spec.graph = GraphKind::kRmat;
  spec.scale = 10;
  spec.seed = 71;
  spec.nodes = 2;
  const Csr csr = acic::stats::build_graph(spec);
  AcicConfig config;
  config.threshold_policy = acic::core::ThresholdPolicyKind::kWorkWindow;
  expect_correct(csr, spec.source, run_acic(csr, spec, config));
}

TEST(AcicCorrectness, NonZeroSources) {
  ExperimentSpec spec;
  spec.graph = GraphKind::kRandom;
  spec.scale = 9;
  spec.seed = 21;
  spec.nodes = 2;
  const Csr csr = acic::stats::build_graph(spec);
  for (const acic::graph::VertexId source :
       {acic::graph::VertexId{1}, acic::graph::VertexId{137},
        acic::graph::VertexId{511}}) {
    ExperimentSpec with_source = spec;
    with_source.source = source;
    const auto run = run_acic(csr, with_source, {});
    const auto expected = acic::baselines::dijkstra(csr, source);
    const auto cmp =
        acic::graph::compare_distances(run.sssp.dist, expected);
    EXPECT_TRUE(cmp.ok) << "source " << source << ": " << cmp.error;
  }
}

TEST(AcicCorrectness, DeterministicAcrossRuns) {
  ExperimentSpec spec;
  spec.graph = GraphKind::kRmat;
  spec.scale = 10;
  spec.seed = 33;
  spec.nodes = 2;
  const Csr csr = acic::stats::build_graph(spec);

  const auto a = run_acic(csr, spec, {});
  const auto b = run_acic(csr, spec, {});
  EXPECT_EQ(a.sssp.dist, b.sssp.dist);
  EXPECT_EQ(a.sssp.metrics.updates_created, b.sssp.metrics.updates_created);
  EXPECT_EQ(a.sssp.metrics.sim_time_us, b.sssp.metrics.sim_time_us);
  EXPECT_EQ(a.reduction_cycles, b.reduction_cycles);
}

TEST(AcicCorrectness, DistancesInvariantUnderNetworkTiming) {
  // The ownership discipline means network parameters may change *when*
  // things happen but never *what* is computed.
  ExperimentSpec spec;
  spec.graph = GraphKind::kRandom;
  spec.scale = 9;
  spec.seed = 77;
  const Csr csr = acic::stats::build_graph(spec);
  const Partition1D partition = Partition1D::block(csr.num_vertices(), 8);

  acic::runtime::NetworkModel slow;
  slow.latency_inter_node_us = 50.0;
  slow.latency_intra_node_us = 10.0;
  slow.send_overhead_us = 5.0;

  Machine fast_machine(acic::runtime::Topology{2, 2, 2});
  Machine slow_machine(acic::runtime::Topology{2, 2, 2}, slow);
  const auto fast = acic::core::acic_sssp(fast_machine, csr, partition,
                                          0, {}, 120e6);
  const auto slow_run = acic::core::acic_sssp(slow_machine, csr,
                                              partition, 0, {}, 120e6);
  EXPECT_EQ(fast.sssp.dist, slow_run.sssp.dist);
  EXPECT_GT(slow_run.sssp.metrics.sim_time_us,
            fast.sssp.metrics.sim_time_us);
}

TEST(AcicCorrectness, SingleVertexGraph) {
  acic::graph::EdgeList list(1, {});
  const Csr csr = Csr::from_edge_list(list);
  Machine machine(acic::runtime::Topology::tiny(1));
  const Partition1D partition = Partition1D::block(1, 1);
  const auto run =
      acic::core::acic_sssp(machine, csr, partition, 0, {}, 1e6);
  ASSERT_EQ(run.sssp.dist.size(), 1u);
  EXPECT_DOUBLE_EQ(run.sssp.dist[0], 0.0);
  EXPECT_FALSE(run.hit_time_limit);
}

TEST(AcicCorrectness, MorePesThanVertices) {
  acic::graph::EdgeList list(3, {});
  list.add(0, 1, 1.0);
  list.add(1, 2, 1.0);
  const Csr csr = Csr::from_edge_list(list);
  Machine machine(acic::runtime::Topology::tiny(8));
  const Partition1D partition = Partition1D::block(3, 8);
  const auto run =
      acic::core::acic_sssp(machine, csr, partition, 0, {}, 1e6);
  EXPECT_DOUBLE_EQ(run.sssp.dist[2], 2.0);
}

TEST(AcicCorrectness, ZeroWeightEdges) {
  acic::graph::EdgeList list(4, {});
  list.add(0, 1, 0.0);
  list.add(1, 2, 0.0);
  list.add(2, 3, 5.0);
  const Csr csr = Csr::from_edge_list(list);
  Machine machine(acic::runtime::Topology::tiny(2));
  const Partition1D partition = Partition1D::block(4, 2);
  const auto run =
      acic::core::acic_sssp(machine, csr, partition, 0, {}, 1e6);
  EXPECT_DOUBLE_EQ(run.sssp.dist[1], 0.0);
  EXPECT_DOUBLE_EQ(run.sssp.dist[2], 0.0);
  EXPECT_DOUBLE_EQ(run.sssp.dist[3], 5.0);
}

TEST(AcicCorrectness, ParallelEdgesKeepMinimum) {
  acic::graph::EdgeList list(2, {});
  list.add(0, 1, 9.0);
  list.add(0, 1, 2.0);
  list.add(0, 1, 5.0);
  const Csr csr = Csr::from_edge_list(list);
  Machine machine(acic::runtime::Topology::tiny(2));
  const Partition1D partition = Partition1D::block(2, 2);
  const auto run =
      acic::core::acic_sssp(machine, csr, partition, 0, {}, 1e6);
  EXPECT_DOUBLE_EQ(run.sssp.dist[1], 2.0);
}

}  // namespace
