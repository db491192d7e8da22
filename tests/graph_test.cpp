// Unit tests for the graph substrate: edge lists, CSR construction,
// generators, degree statistics and partitioners.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/graph/csr.hpp"
#include "src/graph/degree_stats.hpp"
#include "src/graph/edge_list.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/partition.hpp"
#include "src/graph/partition2d.hpp"

namespace {

using namespace acic::graph;

TEST(EdgeList, SortBySourceOrders) {
  EdgeList list(4, {});
  list.add(3, 0, 1.0);
  list.add(1, 2, 1.0);
  list.add(1, 0, 1.0);
  list.sort_by_source();
  EXPECT_EQ(list.edges()[0].src, 1u);
  EXPECT_EQ(list.edges()[0].dst, 0u);
  EXPECT_EQ(list.edges()[1].dst, 2u);
  EXPECT_EQ(list.edges()[2].src, 3u);
}

TEST(EdgeList, RemoveSelfLoops) {
  EdgeList list(3, {});
  list.add(0, 0, 1.0);
  list.add(0, 1, 1.0);
  list.add(2, 2, 1.0);
  list.remove_self_loops();
  ASSERT_EQ(list.num_edges(), 1u);
  EXPECT_EQ(list.edges()[0].dst, 1u);
}

TEST(EdgeList, RemoveDuplicatesKeepsLightest) {
  EdgeList list(3, {});
  list.add(0, 1, 5.0);
  list.add(0, 1, 2.0);
  list.add(0, 2, 1.0);
  list.remove_duplicates();
  ASSERT_EQ(list.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(list.edges()[0].weight, 2.0);
}

TEST(EdgeList, EndpointRangeCheck) {
  EdgeList list(2, {});
  list.add(0, 1, 1.0);
  EXPECT_TRUE(list.endpoints_in_range());
  list.add(0, 5, 1.0);
  EXPECT_FALSE(list.endpoints_in_range());
}

TEST(Csr, BuildsOffsetsAndNeighbors) {
  EdgeList list(4, {});
  list.add(0, 1, 1.0);
  list.add(0, 2, 2.0);
  list.add(2, 3, 3.0);
  const Csr csr = Csr::from_edge_list(list);
  EXPECT_EQ(csr.num_vertices(), 4u);
  EXPECT_EQ(csr.num_edges(), 3u);
  EXPECT_EQ(csr.out_degree(0), 2u);
  EXPECT_EQ(csr.out_degree(1), 0u);
  EXPECT_EQ(csr.out_degree(2), 1u);
  EXPECT_EQ(csr.out_neighbors(2)[0].dst, 3u);
  EXPECT_DOUBLE_EQ(csr.out_neighbors(2)[0].weight, 3.0);
}

TEST(Csr, AdjacencySortedByDestination) {
  EdgeList list(4, {});
  list.add(0, 3, 1.0);
  list.add(0, 1, 1.0);
  list.add(0, 2, 1.0);
  const Csr csr = Csr::from_edge_list(list);
  const auto row = csr.out_neighbors(0);
  EXPECT_EQ(row[0].dst, 1u);
  EXPECT_EQ(row[1].dst, 2u);
  EXPECT_EQ(row[2].dst, 3u);
}

TEST(Csr, UnsortedInputProducesSameCsr) {
  EdgeList a(8, {});
  a.add(5, 1, 1.0);
  a.add(0, 3, 2.0);
  a.add(5, 0, 3.0);
  EdgeList b = a;
  b.sort_by_source();
  const Csr csr_a = Csr::from_edge_list(a);
  const Csr csr_b = Csr::from_edge_list(b);
  EXPECT_TRUE(std::ranges::equal(csr_a.offsets(), csr_b.offsets()));
  EXPECT_TRUE(std::ranges::equal(csr_a.neighbors(), csr_b.neighbors()));
}

TEST(Csr, EdgesInRange) {
  EdgeList list(4, {});
  list.add(0, 1, 1.0);
  list.add(1, 2, 1.0);
  list.add(1, 3, 1.0);
  list.add(3, 0, 1.0);
  const Csr csr = Csr::from_edge_list(list);
  EXPECT_EQ(csr.edges_in_range(0, 2), 3u);
  EXPECT_EQ(csr.edges_in_range(2, 4), 1u);
  EXPECT_EQ(csr.max_out_degree(), 2u);
}

TEST(Generators, DeterministicInSeed) {
  GenParams params;
  params.num_vertices = 256;
  params.num_edges = 2048;
  params.seed = 5;
  const EdgeList a = generate_rmat(params);
  const EdgeList b = generate_rmat(params);
  EXPECT_EQ(a.edges(), b.edges());
  const EdgeList c = generate_uniform_random(params);
  const EdgeList d = generate_uniform_random(params);
  EXPECT_EQ(c.edges(), d.edges());
}

TEST(Generators, DifferentSeedsDiffer) {
  GenParams params;
  params.num_vertices = 256;
  params.num_edges = 2048;
  params.seed = 5;
  const EdgeList a = generate_uniform_random(params);
  params.seed = 6;
  const EdgeList b = generate_uniform_random(params);
  EXPECT_NE(a.edges(), b.edges());
}

TEST(Generators, WeightsWithinRange) {
  GenParams params;
  params.num_vertices = 128;
  params.num_edges = 1024;
  params.min_weight = 2.0;
  params.max_weight = 7.0;
  for (const EdgeList& list :
       {generate_rmat(params), generate_uniform_random(params),
        generate_erdos_renyi(params)}) {
    for (const Edge& e : list.edges()) {
      EXPECT_GE(e.weight, 2.0);
      EXPECT_LT(e.weight, 7.0);
    }
  }
}

TEST(Generators, RmatIsSkewedUniformIsNot) {
  GenParams params;
  params.num_vertices = 1u << 12;
  params.num_edges = 1u << 16;
  params.seed = 9;
  const auto rmat = Csr::from_edge_list(generate_rmat(params));
  const auto uniform =
      Csr::from_edge_list(generate_uniform_random(params));
  const DegreeStats rmat_stats = compute_degree_stats(rmat);
  const DegreeStats uniform_stats = compute_degree_stats(uniform);
  // The paper's two workloads are distinguished exactly by this skew.
  EXPECT_GT(rmat_stats.gini, 0.4);
  EXPECT_LT(uniform_stats.gini, 0.25);
  EXPECT_GT(rmat_stats.max_degree, uniform_stats.max_degree * 4);
}

TEST(Generators, RmatSelfLoopsRemovedByDefault) {
  GenParams params;
  params.num_vertices = 512;
  params.num_edges = 8192;
  const EdgeList list = generate_rmat(params);
  for (const Edge& e : list.edges()) EXPECT_NE(e.src, e.dst);
}

TEST(Generators, ErdosRenyiHasDistinctEdges) {
  GenParams params;
  params.num_vertices = 128;
  params.num_edges = 2000;
  const EdgeList list = generate_erdos_renyi(params);
  EXPECT_EQ(list.num_edges(), 2000u);
  std::set<std::pair<VertexId, VertexId>> seen;
  for (const Edge& e : list.edges()) {
    EXPECT_NE(e.src, e.dst);
    EXPECT_TRUE(seen.emplace(e.src, e.dst).second)
        << "duplicate edge " << e.src << "->" << e.dst;
  }
}

TEST(Generators, GridRoadIsBidirectionalAndConnected) {
  GridParams grid;
  grid.width = 8;
  grid.height = 8;
  grid.shortcut_fraction = 0.0;
  const EdgeList list = generate_grid_road(grid, 1);
  // 4-connected 8x8 grid: 2 * (7*8 + 8*7) directed edges.
  EXPECT_EQ(list.num_edges(), 2u * (7 * 8 + 8 * 7));
  // Bidirectionality: every edge has its reverse with equal weight.
  std::map<std::pair<VertexId, VertexId>, Weight> weights;
  for (const Edge& e : list.edges()) weights[{e.src, e.dst}] = e.weight;
  for (const Edge& e : list.edges()) {
    auto it = weights.find({e.dst, e.src});
    ASSERT_NE(it, weights.end());
    EXPECT_DOUBLE_EQ(it->second, e.weight);
  }
}

TEST(Generators, GridRoadShortcutsAddEdges) {
  GridParams grid;
  grid.width = 16;
  grid.height = 16;
  grid.shortcut_fraction = 0.1;
  const EdgeList with = generate_grid_road(grid, 1);
  grid.shortcut_fraction = 0.0;
  const EdgeList without = generate_grid_road(grid, 1);
  EXPECT_GT(with.num_edges(), without.num_edges());
}

TEST(Partition1D, BlockCoversAllVerticesContiguously) {
  const auto partition = Partition1D::block(100, 7);
  EXPECT_EQ(partition.num_parts(), 7u);
  VertexId expected_start = 0;
  for (std::uint32_t p = 0; p < 7; ++p) {
    EXPECT_EQ(partition.begin(p), expected_start);
    expected_start = partition.end(p);
  }
  EXPECT_EQ(expected_start, 100u);
}

TEST(Partition1D, BlockSizesDifferByAtMostOne) {
  const auto partition = Partition1D::block(100, 7);
  VertexId min_size = 100;
  VertexId max_size = 0;
  for (std::uint32_t p = 0; p < 7; ++p) {
    min_size = std::min(min_size, partition.size(p));
    max_size = std::max(max_size, partition.size(p));
  }
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(Partition1D, OwnerMatchesRanges) {
  const auto partition = Partition1D::block(97, 5);
  for (VertexId v = 0; v < 97; ++v) {
    const std::uint32_t owner = partition.owner(v);
    EXPECT_GE(v, partition.begin(owner));
    EXPECT_LT(v, partition.end(owner));
  }
}

TEST(Partition1D, BalancedEdgesEvensOutSkew) {
  // A graph where vertex 0 has most of the edges.
  EdgeList list(100, {});
  for (int i = 0; i < 900; ++i) {
    list.add(0, static_cast<VertexId>(1 + i % 99), 1.0);
  }
  for (VertexId v = 1; v < 100; ++v) list.add(v, 0, 1.0);
  const Csr csr = Csr::from_edge_list(list);

  const auto block = Partition1D::block(100, 4);
  const auto balanced = Partition1D::balanced_edges(csr, 4);

  auto max_edges = [&](const Partition1D& partition) {
    std::size_t peak = 0;
    for (std::uint32_t p = 0; p < 4; ++p) {
      peak = std::max(peak, csr.edges_in_range(partition.begin(p),
                                               partition.end(p)));
    }
    return peak;
  };
  // The hub forces any contiguous partition to hold >= 900 edges in one
  // part; balanced-edges must not do *worse* than block and must give
  // every part at least one vertex.
  EXPECT_LE(max_edges(balanced), max_edges(block));
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_GE(balanced.size(p), 1u);
  }
}

namespace {

// owner() has three code paths (pow2 shift, branchless count for <=32
// parts, upper_bound beyond); all must agree with the starts() ranges.
void expect_owner_matches_starts(const Partition1D& partition) {
  const auto& starts = partition.starts();
  for (VertexId v = 0; v < partition.num_vertices(); ++v) {
    const std::uint32_t owner = partition.owner(v);
    ASSERT_LT(owner, partition.num_parts());
    EXPECT_GE(v, starts[owner]);
    EXPECT_LT(v, starts[owner + 1]);
  }
}

}  // namespace

TEST(Partition1D, OwnerAgreesWithStartsInAllThreeForms) {
  // 1024/8: uniform power-of-two chunks -> the shift fast path.
  expect_owner_matches_starts(Partition1D::block(1024, 8));
  // 100/4: chunk 25 (not a power of two), parts <= 32 -> branchless count.
  expect_owner_matches_starts(Partition1D::block(100, 4));
  // 1000/40: parts > 32 -> upper_bound binary search.
  expect_owner_matches_starts(Partition1D::block(1000, 40));

  // balanced_edges starts are irregular; cover both owner() fallbacks.
  GenParams params;
  params.num_vertices = 512;
  params.num_edges = 4096;
  const Csr csr = Csr::from_edge_list(generate_rmat(params));
  expect_owner_matches_starts(Partition1D::balanced_edges(csr, 8));
  expect_owner_matches_starts(Partition1D::balanced_edges(csr, 40));
}

TEST(Partition1D, BalancedEdgesSinglePartOwnsEverything) {
  GenParams params;
  params.num_vertices = 64;
  params.num_edges = 256;
  const Csr csr = Csr::from_edge_list(generate_uniform_random(params));
  const auto partition = Partition1D::balanced_edges(csr, 1);
  EXPECT_EQ(partition.num_parts(), 1u);
  EXPECT_EQ(partition.begin(0), 0u);
  EXPECT_EQ(partition.end(0), 64u);
  expect_owner_matches_starts(partition);
}

TEST(Partition1D, BalancedEdgesZeroOutDegreeTail) {
  // All edges originate from the first few vertices; the tail has zero
  // out-degree.  Every vertex (including the tail) must still land in
  // exactly one part, and ranges must stay monotone.
  EdgeList list(50, {});
  for (VertexId v = 0; v < 5; ++v) {
    for (int i = 0; i < 20; ++i) {
      list.add(v, static_cast<VertexId>((v + i + 1) % 50), 1.0);
    }
  }
  const Csr csr = Csr::from_edge_list(list);
  const auto partition = Partition1D::balanced_edges(csr, 4);
  EXPECT_EQ(partition.num_vertices(), 50u);
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_LE(partition.begin(p), partition.end(p));
  }
  EXPECT_EQ(partition.end(3), 50u);
  expect_owner_matches_starts(partition);
}

TEST(Partition1D, BalancedEdgesMorePartsThanVertices) {
  EdgeList list(3, {});
  list.add(0, 1, 1.0);
  list.add(1, 2, 1.0);
  list.add(2, 0, 1.0);
  const Csr csr = Csr::from_edge_list(list);
  const auto partition = Partition1D::balanced_edges(csr, 8);
  EXPECT_EQ(partition.num_parts(), 8u);
  EXPECT_EQ(partition.num_vertices(), 3u);
  // The trailing parts are empty (pinned at |V|) but ranges stay
  // monotone and contiguous, and every vertex has exactly one owner.
  VertexId covered = 0;
  for (std::uint32_t p = 0; p < 8; ++p) {
    EXPECT_EQ(partition.begin(p), covered);
    covered = partition.end(p);
  }
  EXPECT_EQ(covered, 3u);
  expect_owner_matches_starts(partition);
}

TEST(Partition2D, GroupOwnerBijection) {
  GenParams params;
  params.num_vertices = 256;
  params.num_edges = 1024;
  const Csr csr = Csr::from_edge_list(generate_uniform_random(params));
  const Partition2D partition(csr, 3, 4);
  EXPECT_EQ(partition.num_groups(), 12u);
  std::set<std::uint32_t> owners;
  for (std::uint32_t g = 0; g < partition.num_groups(); ++g) {
    owners.insert(partition.state_owner(g));
    EXPECT_EQ(partition.group_owned_by(partition.state_owner(g)), g);
  }
  EXPECT_EQ(owners.size(), 12u);  // each cell owns exactly one group
}

TEST(Partition2D, EveryEdgeStoredExactlyOnceInRightCell) {
  GenParams params;
  params.num_vertices = 200;
  params.num_edges = 2000;
  const Csr csr = Csr::from_edge_list(generate_uniform_random(params));
  const Partition2D partition(csr, 2, 3);
  std::size_t total = 0;
  for (std::uint32_t pe = 0; pe < partition.num_cells(); ++pe) {
    for (const Edge& e : partition.cell_edges(pe)) {
      EXPECT_EQ(partition.col_of(
                    partition.state_owner(partition.group_of(e.src))),
                partition.col_of(pe));
      EXPECT_EQ(partition.row_of(
                    partition.state_owner(partition.group_of(e.dst))),
                partition.row_of(pe));
      ++total;
    }
  }
  EXPECT_EQ(total, csr.num_edges());
}

TEST(Partition2D, CellOutEdgesFindsAllEdgesOfVertex) {
  EdgeList list(16, {});
  list.add(3, 1, 1.0);
  list.add(3, 9, 1.0);
  list.add(3, 14, 1.0);
  list.add(4, 1, 1.0);
  const Csr csr = Csr::from_edge_list(list);
  const Partition2D partition(csr, 2, 2);
  std::size_t found = 0;
  for (std::uint32_t pe = 0; pe < partition.num_cells(); ++pe) {
    found += partition.cell_out_edges(pe, 3).size();
  }
  EXPECT_EQ(found, 3u);
}

TEST(Partition2D, SquarestPicksBalancedGrid) {
  GenParams params;
  params.num_vertices = 64;
  params.num_edges = 256;
  const Csr csr = Csr::from_edge_list(generate_uniform_random(params));
  const auto p12 = Partition2D::squarest(csr, 12);
  EXPECT_EQ(p12.rows() * p12.cols(), 12u);
  EXPECT_EQ(p12.rows(), 3u);
  const auto p16 = Partition2D::squarest(csr, 16);
  EXPECT_EQ(p16.rows(), 4u);
  const auto p7 = Partition2D::squarest(csr, 7);
  EXPECT_EQ(p7.rows(), 1u);
  EXPECT_EQ(p7.cols(), 7u);
}

TEST(Partition2D, StarGraphSpreadsBetterThan1D) {
  // The load-balance claim from the paper: a hub's out-edges concentrate
  // on one part under 1-D but spread over a column under 2-D.
  EdgeList list(64, {});
  for (VertexId v = 1; v < 64; ++v) list.add(0, v, 1.0);
  const Csr csr = Csr::from_edge_list(list);

  const auto p1d = Partition1D::block(64, 4);
  std::size_t max_1d = 0;
  for (std::uint32_t p = 0; p < 4; ++p) {
    max_1d = std::max(max_1d,
                      csr.edges_in_range(p1d.begin(p), p1d.end(p)));
  }
  const Partition2D p2d(csr, 2, 2);
  std::size_t max_2d = 0;
  for (const std::size_t c : p2d.edges_per_cell()) {
    max_2d = std::max(max_2d, c);
  }
  EXPECT_LT(max_2d, max_1d);
}

}  // namespace
