// Additional runtime tests: element-wise reduction ops, straggler speed
// factors, and ACIC's histogram snapshot recording.

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/acic.hpp"
#include "src/runtime/collectives.hpp"
#include "src/runtime/machine.hpp"
#include "src/stats/experiment.hpp"

namespace {

using acic::runtime::Machine;
using acic::runtime::Pe;
using acic::runtime::PeId;
using acic::runtime::ReduceOp;
using acic::runtime::Reducer;
using acic::runtime::Topology;

TEST(ReducerOps, MinAndMaxSlots) {
  Machine machine(Topology::tiny(5));
  std::vector<double> result;
  Reducer reducer(
      machine, 3,
      [&](Pe&, std::uint64_t, const std::vector<double>& sum)
          -> std::optional<std::vector<double>> {
        result = sum;
        return std::nullopt;
      },
      [](Pe&, std::uint64_t, const std::vector<double>&) {},
      /*fanout=*/2,
      {ReduceOp::kSum, ReduceOp::kMin, ReduceOp::kMax});
  for (PeId p = 0; p < 5; ++p) {
    machine.schedule_at(0.0, p, [&reducer, p](Pe& pe) {
      const double x = static_cast<double>(p);
      reducer.contribute(pe, {1.0, 10.0 - x, x});
    });
  }
  machine.run();
  ASSERT_EQ(result.size(), 3u);
  EXPECT_DOUBLE_EQ(result[0], 5.0);   // sum of ones
  EXPECT_DOUBLE_EQ(result[1], 6.0);   // min of 10..6
  EXPECT_DOUBLE_EQ(result[2], 4.0);   // max of 0..4
}

TEST(ReducerOps, ShortContributionsPadWithEachOpsIdentity) {
  // Missing tail slots are the identity of their op (0, +inf, -inf), so
  // a contribution that stops early leaves the other PEs' values alone.
  Machine machine(Topology::tiny(3));
  std::vector<double> result;
  Reducer reducer(
      machine, 3,
      [&](Pe&, std::uint64_t, const std::vector<double>& sum)
          -> std::optional<std::vector<double>> {
        result = sum;
        return std::nullopt;
      },
      [](Pe&, std::uint64_t, const std::vector<double>&) {},
      /*fanout=*/2,
      {ReduceOp::kSum, ReduceOp::kMin, ReduceOp::kMax});
  machine.schedule_at(0.0, 0, [&reducer](Pe& pe) {
    reducer.contribute(pe, {1.0});
  });
  machine.schedule_at(0.0, 1, [&reducer](Pe& pe) {
    reducer.contribute(pe, {2.0, 5.0});
  });
  machine.schedule_at(0.0, 2, [&reducer](Pe& pe) {
    reducer.contribute(pe, {});
  });
  machine.run();
  ASSERT_EQ(result.size(), 3u);
  EXPECT_DOUBLE_EQ(result[0], 3.0);
  EXPECT_DOUBLE_EQ(result[1], 5.0);
  EXPECT_EQ(result[2], -std::numeric_limits<double>::infinity());
}

TEST(ReducerOps, MinOfInfinityIdentity) {
  Machine machine(Topology::tiny(2));
  std::vector<double> result;
  Reducer reducer(
      machine, 1,
      [&](Pe&, std::uint64_t, const std::vector<double>& sum)
          -> std::optional<std::vector<double>> {
        result = sum;
        return std::nullopt;
      },
      [](Pe&, std::uint64_t, const std::vector<double>&) {}, 2,
      {ReduceOp::kMin});
  const double inf = std::numeric_limits<double>::infinity();
  machine.schedule_at(0.0, 0, [&reducer, inf](Pe& pe) {
    reducer.contribute(pe, {inf});
  });
  machine.schedule_at(0.0, 1, [&reducer, inf](Pe& pe) {
    reducer.contribute(pe, {inf});
  });
  machine.run();
  EXPECT_TRUE(std::isinf(result[0]));
}

TEST(SpeedFactor, SlowPeTakesProportionallyLonger) {
  Machine machine(Topology::tiny(2));
  machine.set_speed_factor(1, 0.25);
  double fast_end = 0.0;
  double slow_end = 0.0;
  machine.schedule_at(0.0, 0, [&](Pe& pe) {
    pe.charge(10.0);
    fast_end = pe.now();
  });
  machine.schedule_at(0.0, 1, [&](Pe& pe) {
    pe.charge(10.0);
    slow_end = pe.now();
  });
  machine.run();
  EXPECT_DOUBLE_EQ(fast_end, 10.0);
  EXPECT_DOUBLE_EQ(slow_end, 40.0);
}

TEST(SpeedFactor, DoesNotChangeAcicDistances) {
  acic::stats::ExperimentSpec spec;
  spec.graph = acic::stats::GraphKind::kRandom;
  spec.scale = 9;
  spec.seed = 3;
  const auto csr = acic::stats::build_graph(spec);
  const auto partition =
      acic::graph::Partition1D::block(csr.num_vertices(), 4);

  Machine normal(Topology::tiny(4));
  Machine slowed(Topology::tiny(4));
  slowed.set_speed_factor(2, 0.1);
  const auto a =
      acic::core::acic_sssp(normal, csr, partition, 0, {}, 120e6);
  const auto b =
      acic::core::acic_sssp(slowed, csr, partition, 0, {}, 120e6);
  EXPECT_EQ(a.sssp.dist, b.sssp.dist);
  EXPECT_GT(b.sssp.metrics.sim_time_us, a.sssp.metrics.sim_time_us);
}

TEST(HistogramSnapshots, RecordedWhenEnabled) {
  acic::stats::ExperimentSpec spec;
  spec.graph = acic::stats::GraphKind::kRmat;
  spec.scale = 10;
  spec.seed = 4;
  const auto csr = acic::stats::build_graph(spec);
  const auto partition =
      acic::graph::Partition1D::block(csr.num_vertices(), 8);

  Machine machine(Topology{1, 2, 4});
  acic::core::AcicConfig config;
  config.record_histograms = true;
  const auto run =
      acic::core::acic_sssp(machine, csr, partition, 0, config, 120e6);
  ASSERT_FALSE(run.histograms.empty());
  // The terminating cycle returns early without recording a snapshot.
  EXPECT_GE(run.histograms.size() + 1, run.reduction_cycles);
  EXPECT_LE(run.histograms.size(), run.reduction_cycles);
  for (const auto& snap : run.histograms) {
    EXPECT_EQ(snap.counts.size(), config.num_buckets);
    // Global histogram mass equals the active-update count.
    double mass = 0.0;
    for (const double c : snap.counts) mass += c;
    EXPECT_DOUBLE_EQ(mass, snap.active_updates);
    EXPECT_LE(snap.t_pq, snap.t_tram + config.num_buckets);  // sane
  }
  // Activity must rise then fall back to zero at the end.
  EXPECT_DOUBLE_EQ(run.histograms.back().active_updates, 0.0);
}

TEST(LifecycleInvariants, HoldRouteAndProcessingSplitsAddUp) {
  acic::stats::ExperimentSpec spec;
  spec.graph = acic::stats::GraphKind::kRandom;
  spec.scale = 10;
  spec.seed = 6;
  const auto csr = acic::stats::build_graph(spec);
  const auto partition =
      acic::graph::Partition1D::block(csr.num_vertices(), 8);
  Machine machine(Topology{1, 2, 4});
  acic::core::AcicConfig config;
  config.p_tram = 0.3;  // exercise the tram hold too
  const auto run =
      acic::core::acic_sssp(machine, csr, partition, 0, config, 120e6);

  const auto& lc = run.lifecycle;
  EXPECT_EQ(lc.created, lc.sent_directly + lc.held_in_tram);
  EXPECT_EQ(lc.created,
            lc.rejected_on_arrival + lc.superseded_in_pq + lc.expanded);
  EXPECT_GT(lc.held_in_pq_hold, 0u);  // p_pq = 0.05 parks most updates
}

}  // namespace
