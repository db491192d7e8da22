// Tests for the dynamic-graph subsystem (src/dynamic/): mutation batch
// semantics, CSR invariants across epochs, repair planning, the
// warm-start engine mode, and the central property the whole layer
// stands on — incremental repair produces *exactly* the from-scratch
// distances after every batch of a random mutation stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "src/baselines/sequential.hpp"
#include "src/core/acic.hpp"
#include "src/dynamic/dynamic_graph.hpp"
#include "src/dynamic/incremental.hpp"
#include "src/dynamic/mutation.hpp"
#include "src/dynamic/repair.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/partition.hpp"
#include "src/graph/validate.hpp"
#include "src/runtime/machine.hpp"
#include "src/server/workload.hpp"
#include "src/util/rng.hpp"

namespace {

using acic::dynamic::ApplyStats;
using acic::dynamic::DynamicGraph;
using acic::dynamic::IncrementalConfig;
using acic::dynamic::IncrementalSssp;
using acic::dynamic::Mutation;
using acic::dynamic::MutationBatch;
using acic::dynamic::MutationKind;
using acic::dynamic::RefreshStats;
using acic::dynamic::SsspState;
using acic::graph::Csr;
using acic::graph::Dist;
using acic::graph::EdgeList;
using acic::graph::kInfDist;
using acic::graph::kInvalidVertex;
using acic::graph::Partition1D;
using acic::graph::VertexId;
using acic::graph::Weight;
using acic::runtime::Machine;
using acic::runtime::Topology;

EdgeList small_list() {
  // 0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (1), 2 -> 3 (1), 1 -> 3 (5)
  EdgeList list(4, {});
  list.add(0, 1, 1.0);
  list.add(0, 2, 4.0);
  list.add(1, 2, 1.0);
  list.add(2, 3, 1.0);
  list.add(1, 3, 5.0);
  return list;
}

EdgeList random_list(std::uint32_t scale, std::uint64_t seed) {
  acic::graph::GenParams params;
  params.num_vertices = VertexId{1} << scale;
  params.num_edges = params.num_vertices * 6ull;
  params.seed = seed;
  return acic::graph::generate_uniform_random(params);
}

/// Random mutation batch drawn against the graph's *current* edge set so
/// removals and reweights usually hit live edges.
MutationBatch random_batch(const DynamicGraph& graph,
                           acic::util::Xoshiro256& rng,
                           std::size_t size) {
  const Csr& csr = graph.csr();
  const VertexId n = csr.num_vertices();
  MutationBatch batch;
  for (std::size_t m = 0; m < size; ++m) {
    const double kind = rng.next_double();
    const Weight w = rng.next_double(0.5, 8.0);
    if (kind < 0.35 || csr.num_edges() == 0) {
      batch.push_back(Mutation::insert(
          static_cast<VertexId>(rng.next_below(n)),
          static_cast<VertexId>(rng.next_below(n)), w));
      continue;
    }
    const std::size_t e = rng.next_below(csr.num_edges());
    const auto row = std::upper_bound(csr.offsets().begin(),
                                      csr.offsets().end(), e);
    const auto src =
        static_cast<VertexId>(row - csr.offsets().begin()) - 1;
    const VertexId dst = csr.neighbors()[e].dst;
    if (kind < 0.65) {
      batch.push_back(Mutation::remove(src, dst));
    } else {
      batch.push_back(Mutation::reweight(src, dst, w));
    }
  }
  return batch;
}

// ---- mutation semantics ------------------------------------------------

TEST(DynamicGraph, BatchSemantics) {
  DynamicGraph graph(small_list());
  EXPECT_EQ(graph.epoch(), 0u);
  EXPECT_EQ(graph.num_edges(), 5u);

  MutationBatch batch;
  batch.push_back(Mutation::insert(3, 0, 2.0));    // new edge
  batch.push_back(Mutation::insert(0, 1, 9.0));    // upsert -> reweight
  batch.push_back(Mutation::remove(1, 3));         // live removal
  batch.push_back(Mutation::remove(3, 1));         // absent -> rejected
  batch.push_back(Mutation::reweight(2, 0, 1.0));  // absent -> rejected
  batch.push_back(Mutation::insert(1, 1, 1.0));    // self -> rejected
  const ApplyStats stats = graph.apply(batch);

  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.inserted, 1u);
  EXPECT_EQ(stats.reweighted, 1u);
  EXPECT_EQ(stats.removed, 1u);
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(graph.epoch(), 1u);
  EXPECT_EQ(graph.num_edges(), 5u);  // +1 insert, -1 remove

  Weight w = 0.0;
  EXPECT_TRUE(graph.edge_weight(3, 0, &w));
  EXPECT_EQ(w, 2.0);
  EXPECT_TRUE(graph.edge_weight(0, 1, &w));
  EXPECT_EQ(w, 9.0);
  EXPECT_FALSE(graph.edge_weight(1, 3, nullptr));

  // Timestamps are monotone and unique across the applied log.
  ASSERT_EQ(graph.log().size(), 3u);
  for (std::size_t i = 1; i < graph.log().size(); ++i) {
    EXPECT_GT(graph.log()[i].timestamp, graph.log()[i - 1].timestamp);
  }
}

TEST(DynamicGraph, LastWriterWinsWithinBatch) {
  DynamicGraph graph(small_list());
  MutationBatch batch;
  batch.push_back(Mutation::reweight(0, 1, 7.0));
  batch.push_back(Mutation::remove(0, 1));  // supersedes the reweight
  const ApplyStats stats = graph.apply(batch);
  EXPECT_EQ(stats.removed, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_FALSE(graph.edge_weight(0, 1, nullptr));
}

TEST(DynamicGraph, EmptyBatchStillAdvancesEpoch) {
  DynamicGraph graph(small_list());
  graph.apply({});
  EXPECT_EQ(graph.epoch(), 1u);
  EXPECT_TRUE(graph.log().empty());
}

TEST(DynamicGraph, SnapshotsPinTheirEpoch) {
  DynamicGraph graph(small_list());
  const auto before = graph.snapshot_ptr();
  graph.apply({Mutation::remove(0, 1)});
  EXPECT_EQ(before->epoch, 0u);
  EXPECT_EQ(before->csr.num_edges(), 5u);   // old epoch intact
  EXPECT_EQ(graph.num_edges(), 4u);
  // Reverse CSR tracks the forward one on both snapshots.
  EXPECT_EQ(before->reverse.num_edges(), 5u);
  EXPECT_EQ(graph.snapshot().reverse.num_edges(), 4u);
}

// ---- validate_csr (satellite a) ----------------------------------------

TEST(ValidateCsr, AcceptsBuilderOutputAndMutatedEpochs) {
  DynamicGraph graph(random_list(8, 11));
  acic::util::Xoshiro256 rng(5);
  for (int epoch = 0; epoch < 6; ++epoch) {
    graph.apply(random_batch(graph, rng, 16));
    const auto fwd =
        acic::graph::validate_csr(graph.csr(), /*require_simple=*/true);
    EXPECT_TRUE(fwd.ok) << fwd.error;
    const auto rev = acic::graph::validate_csr(graph.snapshot().reverse,
                                               /*require_simple=*/true);
    EXPECT_TRUE(rev.ok) << rev.error;
  }
}

TEST(ValidateCsr, RejectsBrokenInvariants) {
  // Hand-build a CSR with an unsorted row via from_parts' release-mode
  // path is UB by contract, so break invariants through the EdgeList
  // instead: duplicates violate require_simple only.
  EdgeList list(3, {});
  list.add(0, 1, 2.0);
  list.add(0, 1, 3.0);
  list.add(1, 2, 1.0);
  const Csr csr = Csr::from_edge_list(list);
  EXPECT_TRUE(acic::graph::validate_csr(csr).ok);
  const auto simple = acic::graph::validate_csr(csr, true);
  EXPECT_FALSE(simple.ok);
  EXPECT_NE(simple.error.find("duplicate"), std::string::npos);

  EdgeList loop(2, {});
  loop.add(0, 0, 1.0);
  const auto self = acic::graph::validate_csr(Csr::from_edge_list(loop),
                                              true);
  EXPECT_FALSE(self.ok);
}

// ---- repair planning ---------------------------------------------------

TEST(RepairPlan, NonTreeRemovalTouchesNothing) {
  DynamicGraph graph(small_list());
  const auto before = graph.snapshot_ptr();
  SsspState state;
  state.source = 0;
  state.epoch = 0;
  state.dist = acic::baselines::dijkstra(before->csr, 0);
  state.parent = acic::dynamic::compute_parents(*before, 0, state.dist);

  // 1 -> 3 (w=5) is not on any shortest path (dist[3] = 3 via 2).
  graph.apply({Mutation::remove(1, 3)});
  const auto plan = acic::dynamic::plan_repair(
      graph.snapshot(), state, graph.applied_since(0));
  EXPECT_TRUE(plan.touches_nothing());
}

TEST(RepairPlan, TreeRemovalInvalidatesSubtreeAndSeedsBoundary) {
  DynamicGraph graph(small_list());
  const auto before = graph.snapshot_ptr();
  SsspState state;
  state.source = 0;
  state.epoch = 0;
  state.dist = acic::baselines::dijkstra(before->csr, 0);
  state.parent = acic::dynamic::compute_parents(*before, 0, state.dist);
  ASSERT_EQ(state.parent[1], 0u);

  // 0 -> 1 is the tree edge for 1; its subtree is {1, 2, 3}.
  graph.apply({Mutation::remove(0, 1)});
  const auto plan = acic::dynamic::plan_repair(
      graph.snapshot(), state, graph.applied_since(0));
  EXPECT_EQ(plan.affected, (std::vector<VertexId>{1, 2, 3}));
  // Boundary: only 0 -> 2 (w=4) crosses into the affected region.
  ASSERT_EQ(plan.seeds.size(), 1u);
  EXPECT_EQ(plan.seeds[0].vertex, 2u);
  EXPECT_EQ(plan.seeds[0].dist, 4.0);
  EXPECT_EQ(plan.warm_dist[1], kInfDist);
  EXPECT_EQ(plan.warm_dist[0], 0.0);
}

TEST(RepairPlan, InsertSeedsImprovedHeadOnly) {
  DynamicGraph graph(small_list());
  SsspState state;
  state.source = 0;
  state.epoch = 0;
  state.dist = acic::baselines::dijkstra(graph.csr(), 0);
  state.parent =
      acic::dynamic::compute_parents(graph.snapshot(), 0, state.dist);

  // dist = {0, 1, 2, 3}.  0 -> 3 (w=1) improves 3; 3 -> 1 (w=9) improves
  // nothing.
  graph.apply({Mutation::insert(0, 3, 1.0), Mutation::insert(3, 1, 9.0)});
  const auto plan = acic::dynamic::plan_repair(
      graph.snapshot(), state, graph.applied_since(0));
  EXPECT_TRUE(plan.affected.empty());
  ASSERT_EQ(plan.seeds.size(), 1u);
  EXPECT_EQ(plan.seeds[0].vertex, 3u);
  EXPECT_EQ(plan.seeds[0].dist, 1.0);
}

TEST(RepairPlan, CollapseNetsOutInsertThenRemove) {
  DynamicGraph graph(small_list());
  graph.apply({Mutation::insert(3, 0, 2.0)});
  graph.apply({Mutation::reweight(3, 0, 6.0)});
  graph.apply({Mutation::remove(3, 0)});
  const auto span = graph.applied_since(0);
  const auto deltas =
      acic::dynamic::collapse_mutations(span.data(),
                                        span.data() + span.size());
  EXPECT_TRUE(deltas.empty());  // inserted then removed: no net change
}

// ---- warm-start engine mode --------------------------------------------

TEST(WarmEngine, EmptySeedsQuiesceWithWarmDistances) {
  const Csr csr = Csr::from_edge_list(small_list());
  const std::vector<Dist> warm = acic::baselines::dijkstra(csr, 0);
  Machine machine(Topology::tiny(2));
  const Partition1D partition = Partition1D::block(csr.num_vertices(), 2);
  acic::core::AcicEngineOptions options;
  options.warm_dist = &warm;
  acic::core::AcicEngine engine(machine, csr, partition, 0, {},
                                std::move(options));
  machine.run();
  ASSERT_TRUE(engine.complete());
  const auto result = engine.collect();
  EXPECT_EQ(result.sssp.dist, warm);
  EXPECT_EQ(result.lifecycle.created, 0u);
}

TEST(WarmEngine, SeedsRepairExactly) {
  // Remove the tree edge 0 -> 1 and drive the warm engine with the
  // planner's output; it must land on the new graph's exact distances.
  DynamicGraph graph(small_list());
  const auto before = graph.snapshot_ptr();
  SsspState state;
  state.source = 0;
  state.epoch = 0;
  state.dist = acic::baselines::dijkstra(before->csr, 0);
  state.parent = acic::dynamic::compute_parents(*before, 0, state.dist);
  graph.apply({Mutation::remove(0, 1)});
  const auto plan = acic::dynamic::plan_repair(
      graph.snapshot(), state, graph.applied_since(0));

  Machine machine(Topology::tiny(2));
  const Partition1D partition =
      Partition1D::block(graph.num_vertices(), 2);
  acic::core::AcicEngineOptions options;
  options.warm_dist = &plan.warm_dist;
  options.seeds = plan.seeds;
  acic::core::AcicEngine engine(machine, graph.csr(), partition, 0, {},
                                std::move(options));
  machine.run();
  ASSERT_TRUE(engine.complete());
  EXPECT_EQ(engine.collect().sssp.dist,
            acic::baselines::dijkstra(graph.csr(), 0));
}

// ---- the central property: incremental == from-scratch -----------------

struct StreamCase {
  std::uint32_t scale;
  std::uint64_t seed;
  unsigned threads;
};

// Keeps the ctest names stable: gtest's fallback prints the raw bytes,
// uninitialized padding included (see PrintTo in
// acic_correctness_test.cpp).
void PrintTo(const StreamCase& c, std::ostream* os) {
  *os << "scale=" << c.scale << " seed=" << c.seed
      << " threads=" << c.threads;
}

class IncrementalEqualsScratch
    : public ::testing::TestWithParam<StreamCase> {};

TEST_P(IncrementalEqualsScratch, ElementwiseAfterEveryBatch) {
  const StreamCase param = GetParam();
  DynamicGraph graph(random_list(param.scale, param.seed));
  IncrementalConfig config;
  config.topology = Topology::tiny(4);
  config.threads = param.threads;
  IncrementalSssp solver(graph, /*source=*/0, config);

  acic::util::Xoshiro256 rng(param.seed * 31 + 7);
  for (int epoch = 1; epoch <= 8; ++epoch) {
    graph.apply(random_batch(graph, rng, 10));
    const RefreshStats stats = solver.refresh();
    EXPECT_EQ(stats.to_epoch, static_cast<std::uint64_t>(epoch));

    const std::vector<Dist> truth =
        acic::baselines::dijkstra(graph.csr(), 0);
    ASSERT_EQ(solver.state().dist, truth)
        << "divergence at epoch " << epoch << " (seed " << param.seed
        << ", scale " << param.scale << ", threads " << param.threads
        << ")";

    std::string error;
    EXPECT_TRUE(acic::dynamic::state_is_consistent(graph.snapshot(),
                                                   solver.state(), &error))
        << error;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, IncrementalEqualsScratch,
    ::testing::Values(StreamCase{6, 1, 1}, StreamCase{6, 2, 1},
                      StreamCase{7, 3, 1}, StreamCase{7, 4, 4},
                      StreamCase{8, 5, 1}, StreamCase{8, 6, 4}),
    [](const ::testing::TestParamInfo<StreamCase>& info) {
      return "scale" + std::to_string(info.param.scale) + "seed" +
             std::to_string(info.param.seed) + "threads" +
             std::to_string(info.param.threads);
    });

/// Same stream replayed twice produces bit-identical logs, distance
/// checksums and repair decisions — the determinism the repo promises.
TEST(DynamicDeterminism, ReplayIsBitIdentical) {
  auto run_once = [] {
    DynamicGraph graph(random_list(7, 77));
    IncrementalConfig config;
    config.topology = Topology::tiny(4);
    IncrementalSssp solver(graph, 0, config);
    acic::util::Xoshiro256 rng(123);
    std::vector<std::uint64_t> timestamps;
    std::vector<std::vector<Dist>> dists;
    std::uint64_t repairs = 0;
    for (int epoch = 0; epoch < 6; ++epoch) {
      graph.apply(random_batch(graph, rng, 12));
      const RefreshStats stats = solver.refresh();
      repairs += stats.recomputed || stats.skipped ? 0 : 1;
      dists.push_back(solver.state().dist);
    }
    for (const auto& record : graph.log()) {
      timestamps.push_back(record.timestamp);
    }
    return std::make_tuple(timestamps, dists, repairs,
                           solver.total_updates_created());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_EQ(std::get<3>(a), std::get<3>(b));
}

/// Serial and sharded event loops agree on warm runs (the parallel
/// engine's conservative windows are oblivious to warm starts).
TEST(DynamicDeterminism, WarmRunsThreadInvariant) {
  DynamicGraph graph(random_list(7, 91));
  acic::util::Xoshiro256 rng(44);
  const MutationBatch batch = random_batch(graph, rng, 20);

  auto run_with_threads = [&](unsigned threads) {
    DynamicGraph g(random_list(7, 91));
    IncrementalConfig config;
    config.topology = Topology{2, 1, 2};  // two nodes -> two shards
    config.threads = threads;
    IncrementalSssp solver(g, 0, config);
    g.apply(batch);
    solver.refresh();
    return solver.state().dist;
  };
  EXPECT_EQ(run_with_threads(1), run_with_threads(2));
}

TEST(MutationWorkload, DeterministicAndMonotone) {
  const Csr base = Csr::from_edge_list(random_list(7, 13));
  acic::server::MutationWorkloadConfig config;
  config.seed = 99;
  config.num_batches = 20;
  config.batch_size = 5;
  const auto a = acic::server::generate_mutation_stream(config, base);
  const auto b = acic::server::generate_mutation_stream(config, base);
  ASSERT_EQ(a.size(), 20u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].batch.size(), 5u);
    EXPECT_EQ(a[i].apply_us, b[i].apply_us);
    if (i > 0) {
      EXPECT_GE(a[i].apply_us, a[i - 1].apply_us);
    }
    for (std::size_t m = 0; m < a[i].batch.size(); ++m) {
      EXPECT_EQ(a[i].batch[m].kind, b[i].batch[m].kind);
      EXPECT_EQ(a[i].batch[m].src, b[i].batch[m].src);
      EXPECT_EQ(a[i].batch[m].dst, b[i].batch[m].dst);
      EXPECT_EQ(a[i].batch[m].weight, b[i].batch[m].weight);
    }
  }
}

}  // namespace
