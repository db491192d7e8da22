// Deeper-path tests: corners of the runtime, tram, partitioners and CC
// that the main suites exercise only incidentally.

#include <gtest/gtest.h>

#include <map>

#include "src/baselines/delta_stepping_dist.hpp"
#include "src/baselines/sequential.hpp"
#include "src/cc/async_cc.hpp"
#include "src/cc/union_find.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/partition2d.hpp"
#include "src/graph/validate.hpp"
#include "src/runtime/collectives.hpp"
#include "src/sssp/solver.hpp"
#include "src/stats/experiment.hpp"
#include "src/tram/tram.hpp"

namespace {

using acic::graph::Csr;
using acic::graph::Partition1D;
using acic::runtime::Machine;
using acic::runtime::Pe;
using acic::runtime::PeId;
using acic::runtime::Reducer;
using acic::runtime::Topology;

TEST(MachineDeep, SendToSelfWorks) {
  Machine machine(Topology::tiny(1));
  int delivered = 0;
  machine.schedule_at(0.0, 0, [&](Pe& pe) {
    pe.send(0, 64, [&](Pe&) { ++delivered; });
  });
  machine.run();
  EXPECT_EQ(delivered, 1);
}

TEST(MachineDeep, EnqueueLocalPreservesFifoOrder) {
  Machine machine(Topology::tiny(1));
  std::vector<int> order;
  machine.schedule_at(0.0, 0, [&](Pe& pe) {
    order.push_back(0);
    pe.enqueue_local([&](Pe&) { order.push_back(2); });
    pe.enqueue_local([&](Pe&) { order.push_back(3); });
    order.push_back(1);
  });
  machine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(MachineDeep, ZeroByteMessageStillPaysLatency) {
  Machine machine(Topology{2, 1, 1});
  double arrival = 0.0;
  machine.schedule_at(0.0, 0, [&](Pe& pe) {
    pe.send(1, 0, [&](Pe& dst) { arrival = dst.now(); });
  });
  machine.run();
  EXPECT_GT(arrival, machine.network().latency_inter_node_us);
}

TEST(MachineDeep, RunContinuesAcrossCalls) {
  Machine machine(Topology::tiny(1));
  machine.schedule_at(10.0, 0, [](Pe&) {});
  const auto first = machine.run();
  EXPECT_DOUBLE_EQ(first.end_time_us, 10.0);
  machine.schedule_at(5.0, 0, [](Pe&) {});  // in the past: clamped
  const auto second = machine.run();
  EXPECT_GE(second.end_time_us, 10.0);  // time is monotone
}

TEST(ReducerDeep, ManyPipelinedCyclesAllSumCorrectly) {
  Machine machine(Topology{1, 2, 3});
  std::vector<double> sums;
  Reducer reducer(
      machine, 1,
      [&](Pe&, std::uint64_t, const std::vector<double>& sum)
          -> std::optional<std::vector<double>> {
        sums.push_back(sum[0]);
        return std::nullopt;
      },
      [](Pe&, std::uint64_t, const std::vector<double>&) {});
  constexpr int kCycles = 20;
  for (PeId p = 0; p < machine.num_pes(); ++p) {
    machine.schedule_at(0.0, p, [&reducer](Pe& pe) {
      for (int c = 0; c < kCycles; ++c) {
        reducer.contribute(pe, {static_cast<double>(c + 1)});
      }
    });
  }
  machine.run();
  ASSERT_EQ(sums.size(), static_cast<std::size_t>(kCycles));
  for (int c = 0; c < kCycles; ++c) {
    EXPECT_DOUBLE_EQ(sums[c], 6.0 * (c + 1)) << "cycle " << c;
  }
}

TEST(TramDeep, TwoPesShareProcessSet) {
  // PP mode: both PEs of a process write the same buffer; either PE's
  // flush ships everything.
  Machine machine(Topology{2, 1, 2});
  acic::tram::TramConfig config;
  config.mode = acic::tram::Aggregation::kPP;
  config.buffer_items = 1u << 20;
  int delivered = 0;
  acic::tram::Tram<int> tram(machine, config,
                             [&](Pe&, const int&) { ++delivered; });
  machine.schedule_at(0.0, 0, [&](Pe& pe) { tram.insert(pe, 2, 1); });
  machine.schedule_at(0.0, 1, [&](Pe& pe) { tram.insert(pe, 3, 2); });
  machine.schedule_at(1.0, 1, [&](Pe& pe) {
    EXPECT_EQ(tram.pending_items(1), 2u);  // the shared set holds both
    tram.flush_all(pe);
  });
  machine.run();
  EXPECT_EQ(delivered, 2);
}

TEST(TramDeep, AutoAndManualFlushInterleave) {
  Machine machine(Topology::tiny(2));
  acic::tram::TramConfig config;
  config.mode = acic::tram::Aggregation::kWW;
  config.buffer_items = 4;
  std::vector<int> received;
  acic::tram::Tram<int> tram(
      machine, config,
      [&](Pe&, const int& v) { received.push_back(v); });
  machine.schedule_at(0.0, 0, [&](Pe& pe) {
    for (int i = 0; i < 10; ++i) tram.insert(pe, 1, i);  // 2 auto flushes
    tram.flush_all(pe);                                  // remaining 2
  });
  machine.run();
  ASSERT_EQ(received.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(received[i], i);
  EXPECT_EQ(tram.stats().auto_flushes, 2u);
}

TEST(Partition2DDeep, RmatEdgesCoveredOnRectangularGrid) {
  acic::graph::GenParams params;
  params.num_vertices = 1u << 10;
  params.num_edges = 1u << 13;
  params.seed = 77;
  const Csr csr =
      Csr::from_edge_list(acic::graph::generate_rmat(params));
  const acic::graph::Partition2D partition(csr, 3, 5);
  std::size_t total = 0;
  for (std::uint32_t pe = 0; pe < partition.num_cells(); ++pe) {
    total += partition.cell_edges(pe).size();
  }
  EXPECT_EQ(total, csr.num_edges());
  // Owner bijection holds on rectangles too.
  std::map<std::uint32_t, int> owners;
  for (std::uint32_t g = 0; g < partition.num_groups(); ++g) {
    ++owners[partition.state_owner(g)];
  }
  EXPECT_EQ(owners.size(), partition.num_cells());
}

TEST(CcDeep, ReversedBatchesDoNotChangeLabels) {
  acic::graph::GenParams params;
  params.num_vertices = 1u << 10;
  params.num_edges = 2u << 10;
  params.seed = 31;
  const Csr csr = Csr::from_edge_list(
      acic::graph::generate_uniform_random(params).symmetrized());
  const auto expected = acic::cc::connected_components(csr);

  Machine machine(Topology{1, 2, 4});
  const auto partition =
      Partition1D::block(csr.num_vertices(), machine.num_pes());
  acic::cc::AsyncCcConfig config;
  config.tram.debug_reverse_batches = true;
  const auto result =
      acic::cc::async_cc(machine, csr, partition, config, 120e6);
  EXPECT_FALSE(result.hit_time_limit);
  EXPECT_EQ(result.labels, expected);
}

TEST(DeltaDeep, RoadGraphWithStragglerStillExact) {
  acic::stats::ExperimentSpec spec;
  spec.graph = acic::stats::GraphKind::kRoad;
  spec.scale = 10;
  spec.seed = 41;
  const Csr csr = acic::stats::build_graph(spec);
  const auto expected = acic::baselines::dijkstra(csr, 0);

  Machine machine(Topology{1, 2, 4});
  machine.set_speed_factor(3, 0.25);
  const auto partition =
      Partition1D::block(csr.num_vertices(), machine.num_pes());
  const auto run = acic::baselines::delta_stepping_dist(
      machine, csr, partition, 0, {}, 300e6);
  EXPECT_FALSE(run.hit_time_limit);
  EXPECT_TRUE(
      acic::graph::compare_distances(run.sssp.dist, expected).ok);
}

TEST(HarnessDeep, BalancedPartitionOptionFlowsThrough) {
  acic::stats::ExperimentSpec spec;
  spec.graph = acic::stats::GraphKind::kRandom;
  spec.scale = 9;
  spec.seed = 43;
  const Csr csr = acic::stats::build_graph(spec);
  const auto expected = acic::baselines::dijkstra(csr, 0);
  acic::sssp::SolverOptions opts;
  opts.acic_balanced_partition = true;
  Machine machine(spec.topology());
  const auto run =
      acic::sssp::run_solver("acic", machine, csr, spec.source, opts);
  EXPECT_TRUE(
      acic::graph::compare_distances(run.sssp.dist, expected).ok);
}

}  // namespace
