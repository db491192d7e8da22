// Shape-regression tests: miniature versions of the paper's headline
// claims, pinned as assertions so a refactor that silently destroys a
// reproduced result fails CI.  Each uses a fixed seed and small scale;
// thresholds are chosen with generous margins over the measured values
// (see EXPERIMENTS.md for the full-size numbers).

#include <gtest/gtest.h>

#include "src/cc/async_cc.hpp"
#include "src/cc/bsp_cc.hpp"
#include "src/graph/generators.hpp"
#include "src/sssp/solver.hpp"
#include "src/stats/compare.hpp"
#include "src/stats/experiment.hpp"

namespace {

using acic::graph::Csr;
using acic::sssp::SolverOptions;
using acic::sssp::SolverRun;
using acic::stats::ExperimentSpec;
using acic::stats::GraphKind;

ExperimentSpec base_spec(GraphKind kind, std::uint32_t nodes) {
  ExperimentSpec spec;
  spec.graph = kind;
  spec.scale = 12;
  spec.seed = 101;
  spec.nodes = nodes;
  return spec;
}

SolverRun solve(const char* solver, const Csr& csr,
                const ExperimentSpec& spec, const SolverOptions& opts = {}) {
  acic::runtime::Machine machine(spec.topology());
  return acic::sssp::run_solver(solver, machine, csr, spec.source, opts);
}

TEST(PaperShapes, PqSuppressesSpeculation) {
  // Fig. 5 / §IV.E: a low p_pq creates noticeably fewer updates than a
  // fully open pq.
  const auto spec = base_spec(GraphKind::kRandom, 6);  // 48 PEs
  const auto csr = acic::stats::build_graph(spec);
  SolverOptions low;
  low.acic.p_pq = 0.05;
  SolverOptions high;
  high.acic.p_pq = 0.999;
  const auto low_run = solve("acic", csr, spec, low);
  const auto high_run = solve("acic", csr, spec, high);
  EXPECT_LT(static_cast<double>(low_run.sssp.metrics.updates_created),
            0.9 * static_cast<double>(high_run.sssp.metrics.updates_created));
}

TEST(PaperShapes, RemovingPqExplodesUpdates) {
  // §I / ablation: the min-priority queue is the main waste suppressor.
  const auto spec = base_spec(GraphKind::kRandom, 4);
  const auto csr = acic::stats::build_graph(spec);
  SolverOptions without_pq;
  without_pq.acic.use_pq = false;
  const auto with_run = solve("acic", csr, spec);
  const auto without_run = solve("acic", csr, spec, without_pq);
  EXPECT_GT(without_run.sssp.metrics.updates_created,
            2 * with_run.sssp.metrics.updates_created);
  EXPECT_GT(without_run.sssp.metrics.sim_time_us,
            with_run.sssp.metrics.sim_time_us);
}

TEST(PaperShapes, AcicBeatsRikenOnRandomAtScaleAndLosesOnRmat) {
  // Fig. 7's two headline outcomes at 8 mini-nodes.
  const auto random_spec = base_spec(GraphKind::kRandom, 8);
  const auto random_csr = acic::stats::build_graph(random_spec);
  const auto acic_random = solve("acic", random_csr, random_spec);
  const auto riken_random =
      solve("delta_stepping_2d", random_csr, random_spec);
  EXPECT_LT(acic_random.sssp.metrics.sim_time_us,
            riken_random.sssp.metrics.sim_time_us);

  const auto rmat_spec = base_spec(GraphKind::kRmat, 8);
  const auto rmat_csr = acic::stats::build_graph(rmat_spec);
  const auto acic_rmat = solve("acic", rmat_csr, rmat_spec);
  const auto riken_rmat = solve("delta_stepping_2d", rmat_csr, rmat_spec);
  EXPECT_GT(acic_rmat.sssp.metrics.sim_time_us,
            1.5 * riken_rmat.sssp.metrics.sim_time_us);
}

TEST(PaperShapes, RmatHubsImbalanceAcicsOneDPartition) {
  // §IV.F: ACIC's 1-D partition concentrates hub work; the 2-D baseline
  // stays far more balanced on RMAT.
  const auto spec = base_spec(GraphKind::kRmat, 4);
  const auto csr = acic::stats::build_graph(spec);
  const auto acic_run = solve("acic", csr, spec);
  const auto riken_run = solve("delta_stepping_2d", csr, spec);
  EXPECT_GT(acic_run.telemetry.busy_imbalance, 2.0);
  EXPECT_LT(riken_run.telemetry.busy_imbalance,
            acic_run.telemetry.busy_imbalance);
}

TEST(PaperShapes, IntrospectionBeatsNoIntrospection) {
  // ACIC vs distributed control (same asynchrony, no histograms or
  // thresholds): introspection must reduce created updates.
  const auto spec = base_spec(GraphKind::kRandom, 4);
  const auto csr = acic::stats::build_graph(spec);
  const auto acic_run = solve("acic", csr, spec);
  const auto dc_run = solve("distributed_control", csr, spec);
  EXPECT_LT(acic_run.sssp.metrics.updates_created,
            dc_run.sssp.metrics.updates_created);
}

TEST(PaperShapes, HighDiameterFavorsAsynchrony) {
  // §V prediction (measured in examples/road_network): on a road graph
  // the bulk-synchronous baseline needs far more synchronization rounds
  // and more time than ACIC.
  const auto spec = base_spec(GraphKind::kRoad, 4);
  const auto csr = acic::stats::build_graph(spec);
  const auto acic_run = solve("acic", csr, spec);
  const auto riken_run = solve("delta_stepping_2d", csr, spec);
  EXPECT_LT(acic_run.sssp.metrics.sim_time_us,
            riken_run.sssp.metrics.sim_time_us);
  EXPECT_GT(riken_run.telemetry.cycles, 2 * acic_run.telemetry.cycles);
}

TEST(PaperShapes, AsyncCcBeatsBspCc) {
  // §V: asynchronous introspective connected components vs BSP label
  // propagation on a sparse random graph.
  acic::graph::GenParams params;
  params.num_vertices = 1u << 12;
  params.num_edges = 2u << 12;
  params.seed = 103;
  const auto csr = acic::graph::Csr::from_edge_list(
      acic::graph::generate_uniform_random(params).symmetrized());
  const acic::runtime::Topology topo{4, 2, 4};
  const auto partition =
      acic::graph::Partition1D::block(csr.num_vertices(), topo.num_pes());
  acic::runtime::Machine m1(topo);
  const auto async_result = acic::cc::async_cc(m1, csr, partition);
  acic::runtime::Machine m2(topo);
  const auto bsp_result = acic::cc::bsp_cc(m2, csr, partition);
  EXPECT_LT(async_result.sim_time_us, bsp_result.sim_time_us);
  EXPECT_LT(async_result.updates_created, bsp_result.updates_created);
}

TEST(PaperShapes, PaperOptimalBufferRule) {
  // Fig. 6's published optima, used by the comparison grid.
  EXPECT_EQ(acic::stats::paper_optimal_buffer(1), 2048u);
  EXPECT_EQ(acic::stats::paper_optimal_buffer(2), 2048u);
  EXPECT_EQ(acic::stats::paper_optimal_buffer(4), 1024u);
  EXPECT_EQ(acic::stats::paper_optimal_buffer(8), 1024u);
  EXPECT_EQ(acic::stats::paper_optimal_buffer(16), 512u);
}

TEST(PaperShapes, ComparisonGridRunsEndToEnd) {
  // The machinery behind figs. 7-9, at toy size.
  acic::stats::CompareSpec spec;
  spec.scale = 10;
  spec.trials = 1;
  spec.nodes_list = {1, 2};
  spec.graphs = {GraphKind::kRandom};
  const auto rows = acic::stats::run_comparison(spec);
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& row : rows) {
    EXPECT_FALSE(row.any_time_limit);
    EXPECT_GT(row.acic_time_s, 0.0);
    EXPECT_GT(row.riken_time_s, 0.0);
    EXPECT_GT(row.acic_updates, 0.0);
    EXPECT_GT(row.speedup_acic_over_riken(), 0.0);
  }
}

}  // namespace
