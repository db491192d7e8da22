// Landmark (ALT) tier tests: bound validity against Dijkstra across
// seeds and scales, exact p2p answers (reachable and unreachable), and
// row invalidation/refresh under mutation.

#include <gtest/gtest.h>

#include <vector>

#include "src/baselines/sequential.hpp"
#include "src/dynamic/dynamic_graph.hpp"
#include "src/graph/edge_list.hpp"
#include "src/graph/generators.hpp"
#include "src/sssp/landmarks.hpp"

namespace {

using acic::baselines::dijkstra;
using acic::dynamic::DynamicGraph;
using acic::dynamic::Mutation;
using acic::graph::Csr;
using acic::graph::Dist;
using acic::graph::EdgeList;
using acic::graph::kInfDist;
using acic::graph::VertexId;
using acic::sssp::LandmarkBounds;
using acic::sssp::LandmarkConfig;
using acic::sssp::LandmarkIndex;
using acic::sssp::P2pStats;
using acic::sssp::P2pWorkspace;

Csr random_graph(std::uint32_t scale, std::uint64_t seed,
                 std::uint64_t degree = 8) {
  acic::graph::GenParams params;
  params.num_vertices = VertexId{1} << scale;
  params.num_edges = params.num_vertices * degree;
  params.seed = seed;
  return Csr::from_edge_list(acic::graph::generate_uniform_random(params));
}

LandmarkIndex build_index(const Csr& csr, std::size_t num_landmarks = 6) {
  LandmarkConfig config;
  config.num_landmarks = num_landmarks;
  return LandmarkIndex(csr, csr.reversed(), config);
}

// Probe pairs spread deterministically over the vertex range.
std::vector<std::pair<VertexId, VertexId>> probe_pairs(VertexId n) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId i = 0; i < 24; ++i) {
    const VertexId s = (i * 37u + 11u) % n;
    const VertexId t = (i * 101u + 3u) % n;
    pairs.emplace_back(s, t);
  }
  pairs.emplace_back(0, 0);  // s == t
  return pairs;
}

TEST(Landmarks, BoundsBracketExactDistanceAcrossSeedsAndScales) {
  for (const std::uint32_t scale : {6u, 8u, 10u}) {
    for (const std::uint64_t seed : {1ull, 9ull, 42ull}) {
      const Csr csr = random_graph(scale, seed);
      const LandmarkIndex index = build_index(csr);
      ASSERT_GT(index.landmarks().size(), 0u);
      for (const auto& [s, t] : probe_pairs(csr.num_vertices())) {
        const Dist exact = dijkstra(csr, s)[t];
        const LandmarkBounds b = index.bounds(s, t);
        EXPECT_LE(b.lower, exact)
            << "scale " << scale << " seed " << seed << " (" << s << ", "
            << t << ")";
        EXPECT_GE(b.upper, exact)
            << "scale " << scale << " seed " << seed << " (" << s << ", "
            << t << ")";
      }
    }
  }
}

TEST(Landmarks, P2pExactlyEqualsDijkstraIncludingUnreachable) {
  for (const std::uint64_t seed : {2ull, 21ull}) {
    // Sparse graph: plenty of genuinely unreachable pairs.
    const Csr csr = random_graph(8, seed, /*degree=*/2);
    const LandmarkIndex index = build_index(csr);
    P2pWorkspace ws;
    bool saw_unreachable = false;
    for (const auto& [s, t] : probe_pairs(csr.num_vertices())) {
      const Dist exact = dijkstra(csr, s)[t];
      P2pStats stats;
      const Dist got = index.p2p(csr, s, t, &ws, &stats);
      // Bitwise equality: the tiers never approximate.
      EXPECT_EQ(got, exact) << "seed " << seed << " (" << s << ", " << t
                            << ")";
      saw_unreachable |= (exact == kInfDist);
    }
    EXPECT_TRUE(saw_unreachable);
  }
}

TEST(Landmarks, ExactTierAnswersLandmarkSources) {
  const Csr csr = random_graph(8, 4);
  const LandmarkIndex index = build_index(csr);
  ASSERT_FALSE(index.landmarks().empty());
  const VertexId lm = index.landmarks().front();
  const auto row = dijkstra(csr, lm);
  for (const VertexId t : {VertexId{0}, VertexId{17}, VertexId{200}}) {
    Dist out = -1.0;
    EXPECT_TRUE(index.exact_p2p(lm, t, &out));
    EXPECT_EQ(out, row[t]);
  }
}

TEST(Landmarks, GoalDirectedSearchSettlesFewerVerticesThanFullSolve) {
  const Csr csr = random_graph(10, 12);
  const LandmarkIndex index = build_index(csr, 8);
  P2pWorkspace ws;
  std::uint64_t settled = 0, probes = 0;
  for (const auto& [s, t] : probe_pairs(csr.num_vertices())) {
    if (s == t) continue;
    P2pStats stats;
    index.p2p(csr, s, t, &ws, &stats);
    if (stats.exact_tier) continue;
    settled += stats.settled;
    ++probes;
  }
  ASSERT_GT(probes, 0u);
  // Goal direction must on average prune most of the graph.
  EXPECT_LT(settled / probes, csr.num_vertices() / 2);
}

TEST(Landmarks, InvalidationTracksMutationsAndRefreshRestores) {
  EdgeList list(6, {});
  // Path 0 -> 1 -> 2 -> 3 -> 4 -> 5 plus a heavy shortcut 0 -> 5.
  for (VertexId v = 0; v + 1 < 6; ++v) list.add(v, v + 1, 1.0);
  list.add(0, 5, 100.0);
  DynamicGraph graph(std::move(list));
  LandmarkConfig config;
  config.num_landmarks = 2;
  LandmarkIndex index(graph.csr(), graph.snapshot().reverse, config);
  ASSERT_EQ(index.invalid_rows(), 0u);

  // Removing a tight tree edge must invalidate the rows that used it.
  const auto before = graph.epoch();
  graph.apply({Mutation::remove(2, 3)});
  const auto applied = graph.applied_since(before);
  const auto deltas = acic::dynamic::collapse_mutations(
      applied.data(), applied.data() + applied.size());
  EXPECT_GT(index.invalidate(deltas), 0u);
  EXPECT_GT(index.invalid_fraction(), 0.0);

  // After refresh, every row is valid and p2p answers are exact for the
  // mutated graph.
  const std::size_t invalid = index.invalid_rows();
  EXPECT_EQ(index.refresh(graph.csr(), graph.snapshot().reverse), invalid);
  ASSERT_EQ(index.invalid_rows(), 0u);
  P2pWorkspace ws;
  for (VertexId s = 0; s < 6; ++s) {
    const auto truth = dijkstra(graph.csr(), s);
    for (VertexId t = 0; t < 6; ++t) {
      EXPECT_EQ(index.p2p(graph.csr(), s, t, &ws), truth[t])
          << "(" << s << ", " << t << ")";
    }
  }
}

TEST(Landmarks, StaleRowsNeverBreakExactnessBeforeRefresh) {
  // Invalidated rows must stop contributing rather than mislead: without
  // any refresh, p2p answers on the *new* graph stay exact.
  const Csr base = random_graph(7, 8);
  EdgeList list(base.num_vertices(), {});
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    for (const auto& nb : base.out_neighbors(v)) {
      list.add(v, nb.dst, nb.weight);
    }
  }
  DynamicGraph graph(std::move(list));
  LandmarkConfig config;
  config.num_landmarks = 4;
  LandmarkIndex index(graph.csr(), graph.snapshot().reverse, config);

  // Remove an arbitrary live edge and insert a strong shortcut.
  VertexId rm_src = 0;
  while (graph.csr().out_degree(rm_src) == 0) ++rm_src;
  const VertexId rm_dst = graph.csr().out_neighbors(rm_src)[0].dst;
  const auto before = graph.epoch();
  graph.apply({Mutation::remove(rm_src, rm_dst),
               Mutation::insert(3, 60, 0.5)});
  const auto applied = graph.applied_since(before);
  const auto deltas = acic::dynamic::collapse_mutations(
      applied.data(), applied.data() + applied.size());
  index.invalidate(deltas);

  P2pWorkspace ws;
  for (const auto& [s, t] : probe_pairs(graph.num_vertices())) {
    const Dist exact = dijkstra(graph.csr(), s)[t];
    EXPECT_EQ(index.p2p(graph.csr(), s, t, &ws), exact)
        << "(" << s << ", " << t << ")";
  }
}

}  // namespace
