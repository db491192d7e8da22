// Tests for the execution tracer (Projections analogue) and the tram
// fault-injection hook, including the documented property that the
// paper's counter-based quiescence detection assumes exactly-once
// delivery while the *distances* themselves are idempotent.

#include <gtest/gtest.h>

#include <cstdio>

#include "src/baselines/sequential.hpp"
#include "src/core/acic.hpp"
#include "src/graph/validate.hpp"
#include "src/runtime/trace.hpp"
#include "src/sssp/solver.hpp"
#include "src/stats/experiment.hpp"

namespace {

using acic::core::AcicConfig;
using acic::graph::Csr;
using acic::graph::Partition1D;
using acic::runtime::Machine;
using acic::runtime::Pe;
using acic::runtime::SpanKind;
using acic::runtime::Topology;
using acic::runtime::Tracer;

TEST(Tracer, RecordsTaskSpans) {
  Machine machine(Topology::tiny(2));
  Tracer tracer;
  machine.set_tracer(&tracer);
  machine.schedule_at(0.0, 0, [](Pe& pe) { pe.charge(5.0); });
  machine.schedule_at(0.0, 1, [](Pe& pe) { pe.charge(3.0); });
  machine.run();
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[0].kind, SpanKind::kTask);
  EXPECT_DOUBLE_EQ(tracer.spans()[0].end_us - tracer.spans()[0].start_us,
                   5.0);
}

TEST(Tracer, RecordsIdlePolls) {
  Machine machine(Topology::tiny(1));
  Tracer tracer;
  machine.set_tracer(&tracer);
  int polls = 0;
  machine.add_idle_handler(0, [&polls](Pe& pe) {
    if (polls++ == 0) {
      pe.charge(2.0);
      return true;  // found work once
    }
    return false;
  });
  machine.schedule_at(0.0, 0, [](Pe&) {});
  machine.run();
  int tasks = 0;
  int idles = 0;
  for (const auto& span : tracer.spans()) {
    (span.kind == SpanKind::kTask ? tasks : idles) += 1;
  }
  EXPECT_EQ(tasks, 2);  // initial task + productive poll
  EXPECT_EQ(idles, 1);  // the final empty poll
}

TEST(Tracer, UtilizationBinsAreBounded) {
  Machine machine(Topology::tiny(2));
  Tracer tracer;
  machine.set_tracer(&tracer);
  machine.schedule_at(0.0, 0, [](Pe& pe) { pe.charge(100.0); });
  machine.run();
  const auto util = tracer.utilization(2, 100.0, 10);
  ASSERT_EQ(util.size(), 2u);
  for (const double cell : util[0]) {
    EXPECT_GT(cell, 0.9);  // PE 0 busy the whole horizon
  }
  for (const double cell : util[1]) {
    EXPECT_DOUBLE_EQ(cell, 0.0);  // PE 1 never ran anything
  }
}

TEST(Tracer, SpanCrossingBinBoundarySplits) {
  Tracer tracer;
  tracer.record(0, 5.0, 15.0, SpanKind::kTask);  // spans bins 0 and 1
  const auto util = tracer.utilization(1, 20.0, 2);
  EXPECT_DOUBLE_EQ(util[0][0], 0.5);
  EXPECT_DOUBLE_EQ(util[0][1], 0.5);
}

TEST(Tracer, WriteCsvRoundTrip) {
  // Record a trace from a real (tiny) run, dump it, and parse it back:
  // header + one row per span, each row matching `pe,start,end,kind`
  // with the original values.
  Machine machine(Topology::tiny(2));
  Tracer tracer;
  machine.set_tracer(&tracer);
  machine.schedule_at(0.0, 0, [](Pe& pe) { pe.charge(5.0); });
  machine.schedule_at(2.0, 1, [](Pe& pe) { pe.charge(1.5); });
  machine.run();
  ASSERT_EQ(tracer.spans().size(), 2u);

  const std::string path = ::testing::TempDir() + "/acic_roundtrip.csv";
  ASSERT_TRUE(tracer.write_csv(path));

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[256];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_STREQ(line, "pe,start_us,end_us,kind\n");
  std::size_t rows = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned pe = 0;
    double start = -1.0;
    double end = -1.0;
    char kind[16] = {0};
    ASSERT_EQ(std::sscanf(line, "%u,%lf,%lf,%15s", &pe, &start, &end,
                          kind),
              4)
        << "malformed row: " << line;
    const acic::runtime::TraceSpan& span = tracer.spans()[rows];
    EXPECT_EQ(pe, span.pe);
    EXPECT_NEAR(start, span.start_us, 1e-3);  // %.3f precision
    EXPECT_NEAR(end, span.end_us, 1e-3);
    EXPECT_STREQ(kind,
                 span.kind == SpanKind::kTask ? "task" : "idle");
    ++rows;
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(rows, tracer.spans().size());
}

TEST(Tracer, WriteCsvFailsOnBadPath) {
  Tracer tracer;
  tracer.record(0, 0.0, 1.0, SpanKind::kTask);
  EXPECT_FALSE(tracer.write_csv("/nonexistent-dir/trace.csv"));
  // Opens fine, but every write fails with ENOSPC.
  EXPECT_FALSE(tracer.write_csv("/dev/full"));
}

TEST(Tracer, CsvAndArtOutputs) {
  Tracer tracer;
  tracer.record(0, 0.0, 1.0, SpanKind::kTask);
  tracer.record(1, 0.0, 0.5, SpanKind::kIdlePoll);
  const std::string path = ::testing::TempDir() + "/acic_trace.csv";
  ASSERT_TRUE(tracer.write_csv(path));
  std::remove(path.c_str());
  const std::string art = tracer.utilization_art(2, 1.0, 4);
  EXPECT_NE(art.find("pe0"), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);  // pe0 fully busy
}

TEST(Tracer, AcicRunProducesPlausibleTimeline) {
  acic::stats::ExperimentSpec spec;
  spec.graph = acic::stats::GraphKind::kRandom;
  spec.scale = 9;
  spec.seed = 5;
  const Csr csr = acic::stats::build_graph(spec);
  Machine machine(Topology::tiny(4));
  Tracer tracer;
  machine.set_tracer(&tracer);
  const Partition1D partition = Partition1D::block(csr.num_vertices(), 4);
  const auto run =
      acic::core::acic_sssp(machine, csr, partition, 0, {}, 60e6);
  EXPECT_FALSE(run.hit_time_limit);
  EXPECT_GT(tracer.spans().size(), 100u);
  // Early bins must be busier than the tail (the paper's "tail" effect).
  const auto util =
      tracer.utilization(4, run.sssp.metrics.sim_time_us, 10);
  double early = 0.0;
  double late = 0.0;
  for (std::uint32_t pe = 0; pe < 4; ++pe) {
    early += util[pe][1];
    late += util[pe][9];
  }
  EXPECT_GT(early, late);
}

// ---- fault injection ---------------------------------------------------------

TEST(FaultInjection, DuplicatedDeliveriesKeepDistancesCorrect) {
  // Updates are idempotent: re-delivering any of them can never corrupt
  // a distance (a duplicate is simply rejected).  However, the paper's
  // counter-based quiescence scheme assumes exactly-once delivery —
  // duplicates make `processed` overshoot `created`, so the run only
  // ends at the time limit.  The distances at that point must still be
  // exactly Dijkstra's.
  acic::stats::ExperimentSpec spec;
  spec.graph = acic::stats::GraphKind::kRandom;
  spec.scale = 9;
  spec.seed = 13;
  const Csr csr = acic::stats::build_graph(spec);
  const auto expected = acic::baselines::dijkstra(csr, 0);

  Machine machine(Topology::tiny(4));
  const Partition1D partition = Partition1D::block(csr.num_vertices(), 4);
  AcicConfig config;
  config.tram.debug_duplicate_every = 7;
  const auto run =
      acic::core::acic_sssp(machine, csr, partition, 0, config,
                            /*time_limit_us=*/50e3);
  const auto cmp = acic::graph::compare_distances(run.sssp.dist, expected);
  EXPECT_TRUE(cmp.ok) << cmp.error;
  // The overshoot proves the exactly-once assumption is load-bearing.
  EXPECT_GT(run.sssp.metrics.updates_processed,
            run.sssp.metrics.updates_created);
}

TEST(FaultInjection, VertexTerminationSurvivesDuplicates) {
  // The abandoned finalized-vertex termination (§II.D) does not depend
  // on counter equality, so with an oracle it terminates cleanly even
  // under at-least-once delivery.
  acic::stats::ExperimentSpec spec;
  spec.graph = acic::stats::GraphKind::kRandom;
  spec.scale = 9;
  spec.seed = 13;
  const Csr csr = acic::stats::build_graph(spec);
  const auto expected = acic::baselines::dijkstra(csr, 0);
  std::uint64_t reachable = 0;
  for (const auto d : expected) {
    if (d != acic::graph::kInfDist) ++reachable;
  }

  Machine machine(Topology::tiny(4));
  const Partition1D partition = Partition1D::block(csr.num_vertices(), 4);
  AcicConfig config;
  config.tram.debug_duplicate_every = 7;
  config.use_vertex_termination = true;
  config.expected_reachable = reachable;
  const auto run =
      acic::core::acic_sssp(machine, csr, partition, 0, config, 60e6);
  EXPECT_FALSE(run.hit_time_limit);
  EXPECT_TRUE(
      acic::graph::compare_distances(run.sssp.dist, expected).ok);
}

}  // namespace

namespace reorder {

using acic::core::AcicConfig;
using acic::graph::Csr;
using acic::graph::Partition1D;
using acic::runtime::Machine;
using acic::runtime::Topology;

TEST(FaultInjection, ReversedBatchesStillTerminateAndMatch) {
  // Adversarial reordering inside every aggregate (worst updates first):
  // exactly-once delivery is preserved, so the counter-based quiescence
  // still works, and the result is order-independent.
  acic::stats::ExperimentSpec spec;
  spec.graph = acic::stats::GraphKind::kRmat;
  spec.scale = 10;
  spec.seed = 17;
  const Csr csr = acic::stats::build_graph(spec);
  const auto expected = acic::baselines::dijkstra(csr, 0);

  Machine machine(Topology{1, 2, 4});
  const Partition1D partition = Partition1D::block(csr.num_vertices(), 8);
  AcicConfig config;
  config.tram.debug_reverse_batches = true;
  const auto run =
      acic::core::acic_sssp(machine, csr, partition, 0, config, 120e6);
  EXPECT_FALSE(run.hit_time_limit);
  EXPECT_TRUE(
      acic::graph::compare_distances(run.sssp.dist, expected).ok);
  EXPECT_EQ(run.sssp.metrics.updates_created,
            run.sssp.metrics.updates_processed);
}

TEST(BalancedPartition, AcicMatchesDijkstraAndReducesHubImbalance) {
  acic::stats::ExperimentSpec spec;
  spec.graph = acic::stats::GraphKind::kRmat;
  spec.scale = 11;
  spec.seed = 19;
  spec.nodes = 2;
  const Csr csr = acic::stats::build_graph(spec);
  const auto expected = acic::baselines::dijkstra(csr, 0);

  Machine block_machine(spec.topology());
  const auto block_run =
      acic::sssp::run_solver("acic", block_machine, csr, spec.source);
  acic::sssp::SolverOptions balanced;
  balanced.acic_balanced_partition = true;
  Machine balanced_machine(spec.topology());
  const auto balanced_run = acic::sssp::run_solver(
      "acic", balanced_machine, csr, spec.source, balanced);

  EXPECT_TRUE(acic::graph::compare_distances(balanced_run.sssp.dist,
                                             expected)
                  .ok);
  // Balancing out-edges cannot make the hub concentration worse.
  EXPECT_LE(balanced_run.telemetry.busy_imbalance,
            block_run.telemetry.busy_imbalance + 0.5);
}

}  // namespace reorder
