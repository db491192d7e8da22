// Tests for the locality layer (src/graph/reorder.hpp): permutation
// construction and round-trips, Csr::permuted correctness and
// thread-invariance, the Remap helper, and — the property the whole
// layer rests on — reordered-vs-identity distance equality for every
// registered solver on RMAT and uniform graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "src/graph/csr.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/reorder.hpp"
#include "src/runtime/machine.hpp"
#include "src/sssp/solver.hpp"
#include "src/stats/experiment.hpp"

namespace {

using namespace acic;
using graph::Csr;
using graph::ReorderMode;
using graph::VertexId;

Csr make_rmat(std::uint32_t scale, std::uint64_t seed = 1) {
  graph::GenParams params;
  params.num_vertices = 1u << scale;
  params.num_edges = static_cast<std::size_t>(params.num_vertices) * 8;
  params.seed = seed;
  return Csr::from_edge_list(graph::generate_rmat(params));
}

Csr make_uniform(std::uint32_t scale, std::uint64_t seed = 1) {
  graph::GenParams params;
  params.num_vertices = 1u << scale;
  params.num_edges = static_cast<std::size_t>(params.num_vertices) * 8;
  params.seed = seed;
  return Csr::from_edge_list(graph::generate_uniform_random(params));
}

TEST(Reorder, ModeNamesRoundTrip) {
  for (const ReorderMode mode :
       {ReorderMode::kIdentity, ReorderMode::kDegreeDesc,
        ReorderMode::kBfs}) {
    EXPECT_EQ(graph::reorder_mode_from_string(
                  graph::reorder_mode_name(mode)),
              mode);
  }
}

TEST(Reorder, PermutationRoundTrip) {
  const Csr csr = make_rmat(8);
  for (const ReorderMode mode :
       {ReorderMode::kIdentity, ReorderMode::kDegreeDesc,
        ReorderMode::kBfs}) {
    const auto perm = graph::make_permutation(csr, mode);
    ASSERT_EQ(perm.size(), csr.num_vertices());
    EXPECT_TRUE(graph::is_permutation(perm));
    const auto inv = graph::invert_permutation(perm);
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      EXPECT_EQ(inv[perm[v]], v);
      EXPECT_EQ(perm[inv[v]], v);
    }
  }
}

TEST(Reorder, IdentityPermutationIsIdentity) {
  const Csr csr = make_uniform(7);
  const auto perm =
      graph::make_permutation(csr, ReorderMode::kIdentity);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_EQ(perm[v], v);
  }
  // Permuting by identity reproduces the CSR byte for byte.
  const Csr same = csr.permuted(perm);
  EXPECT_TRUE(std::ranges::equal(same.offsets(), csr.offsets()));
  ASSERT_EQ(same.num_edges(), csr.num_edges());
  for (std::size_t i = 0; i < csr.num_edges(); ++i) {
    EXPECT_EQ(same.neighbors()[i].dst, csr.neighbors()[i].dst);
    EXPECT_EQ(same.neighbors()[i].weight, csr.neighbors()[i].weight);
  }
}

TEST(Reorder, DegreeDescSortsByDegree) {
  const Csr csr = make_rmat(9);
  const auto perm =
      graph::make_permutation(csr, ReorderMode::kDegreeDesc);
  const auto inv = graph::invert_permutation(perm);
  const Csr permuted = csr.permuted(perm);
  // New labels are in non-increasing degree order, ties by original id.
  for (VertexId nv = 1; nv < permuted.num_vertices(); ++nv) {
    const std::size_t prev = permuted.out_degree(nv - 1);
    const std::size_t cur = permuted.out_degree(nv);
    EXPECT_GE(prev, cur);
    if (prev == cur) {
      EXPECT_LT(inv[nv - 1], inv[nv]);
    }
  }
}

TEST(Reorder, BfsAssignsDiscoveryOrder) {
  // 0 -> 2 -> 4, 0 -> 3; vertex 1 unreachable.  BFS from 0 visits
  // 0,2,3,4 (rows are (dst, weight)-sorted), then appends 1.
  graph::EdgeList list(5, {});
  list.add(0, 2, 1.0);
  list.add(0, 3, 1.0);
  list.add(2, 4, 1.0);
  const Csr csr = Csr::from_edge_list(list);
  const auto perm = graph::make_permutation(csr, ReorderMode::kBfs);
  EXPECT_EQ(perm[0], 0u);
  EXPECT_EQ(perm[2], 1u);
  EXPECT_EQ(perm[3], 2u);
  EXPECT_EQ(perm[4], 3u);
  EXPECT_EQ(perm[1], 4u);  // unreachable: appended after the BFS order
}

TEST(Reorder, PermutedPreservesEdgeStructure) {
  const Csr csr = make_rmat(8);
  const auto perm =
      graph::make_permutation(csr, ReorderMode::kDegreeDesc);
  const Csr permuted = csr.permuted(perm);
  ASSERT_EQ(permuted.num_vertices(), csr.num_vertices());
  ASSERT_EQ(permuted.num_edges(), csr.num_edges());
  // Every old edge (v, w, weight) appears as (perm[v], perm[w], weight).
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    const auto old_row = csr.out_neighbors(v);
    const auto new_row = permuted.out_neighbors(perm[v]);
    ASSERT_EQ(old_row.size(), new_row.size());
    std::vector<std::pair<VertexId, double>> expect;
    for (const graph::Neighbor& nb : old_row) {
      expect.emplace_back(perm[nb.dst], nb.weight);
    }
    std::sort(expect.begin(), expect.end());
    for (std::size_t i = 0; i < new_row.size(); ++i) {
      EXPECT_EQ(new_row[i].dst, expect[i].first);
      EXPECT_EQ(new_row[i].weight, expect[i].second);
    }
  }
}

TEST(Reorder, PermutedThreadInvariance) {
  for (const ReorderMode mode :
       {ReorderMode::kDegreeDesc, ReorderMode::kBfs}) {
    const Csr csr = make_rmat(10);
    const auto perm = graph::make_permutation(csr, mode);
    const Csr serial = csr.permuted(perm, 1);
    const Csr parallel = csr.permuted(perm, 4);
    EXPECT_TRUE(std::ranges::equal(serial.offsets(), parallel.offsets()));
    ASSERT_EQ(serial.num_edges(), parallel.num_edges());
    for (std::size_t i = 0; i < serial.num_edges(); ++i) {
      ASSERT_EQ(serial.neighbors()[i].dst, parallel.neighbors()[i].dst);
      ASSERT_EQ(serial.neighbors()[i].weight,
                parallel.neighbors()[i].weight);
    }
  }
}

TEST(Reorder, RemapMapsSourceAndDistances) {
  const Csr csr = make_uniform(8);
  const graph::Remap remap(csr, ReorderMode::kDegreeDesc);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_EQ(remap.unmap_vertex(remap.map_vertex(v)), v);
  }
  // unmap_distances inverts the relabeling: value stored at perm[v]
  // comes back at v.
  std::vector<graph::Dist> relabeled(csr.num_vertices());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    relabeled[remap.map_vertex(v)] = static_cast<graph::Dist>(v);
  }
  const auto unmapped = remap.unmap_distances(relabeled);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_EQ(unmapped[v], static_cast<graph::Dist>(v));
  }
}

/// The acceptance property: for every registered solver, running on the
/// relabeled graph (with the source mapped in, as bench/wallclock does)
/// and inverse-permuting the distances reproduces the identity run's
/// distances *exactly*.  Converged shortest-path
/// distances are per-path floating-point sums, so relabeling (which only
/// changes relaxation order and message schedule) cannot perturb them.
class ReorderSolverEquality
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ReorderSolverEquality, DistancesMatchIdentityRun) {
  const std::string solver = GetParam();
  struct GraphCase {
    const char* name;
    Csr csr;
  };
  const GraphCase cases[] = {
      {"rmat", make_rmat(9, 3)},
      {"uniform", make_uniform(9, 4)},
  };
  const runtime::Topology topo{2, 2, 4};
  const VertexId source = 0;
  for (const GraphCase& gc : cases) {
    runtime::Machine machine(topo);
    sssp::SolverOptions opts;
    const sssp::SolverRun identity =
        sssp::run_solver(solver, machine, gc.csr, source, opts);
    for (const ReorderMode mode :
         {ReorderMode::kDegreeDesc, ReorderMode::kBfs}) {
      const graph::Remap remap(gc.csr, mode);
      runtime::Machine fresh(topo);
      const sssp::SolverRun run = sssp::run_solver(
          solver, fresh, remap.csr(), remap.map_vertex(source), opts);
      const std::vector<graph::Dist> dist =
          remap.unmap_distances(run.sssp.dist);
      ASSERT_EQ(dist.size(), identity.sssp.dist.size());
      for (VertexId v = 0; v < gc.csr.num_vertices(); ++v) {
        ASSERT_EQ(dist[v], identity.sssp.dist[v])
            << solver << " on " << gc.name << " mode "
            << graph::reorder_mode_name(mode) << " vertex " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, ReorderSolverEquality,
    ::testing::ValuesIn(sssp::solver_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
