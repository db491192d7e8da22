// Degenerate-graph suite: every registered solver, at one and four host
// threads, on an in-memory Csr and on a MappedCsr view of the same file,
// must return exactly Dijkstra's distances on graphs at the edges of the
// input space — a lone vertex, zero and extreme weights, self-loops and
// parallel edges, an unreachable half, stars, ties, and path sums that
// overflow to +inf.  Every run has a simulated time limit, so a solver
// that never terminates fails instead of blocking the suite.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "src/baselines/sequential.hpp"
#include "src/graph/csr.hpp"
#include "src/graph/csr_file.hpp"
#include "src/graph/edge_list.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/mapped_csr.hpp"
#include "src/runtime/machine.hpp"
#include "src/runtime/topology.hpp"
#include "src/sssp/solver.hpp"

namespace {

using acic::graph::Csr;
using acic::graph::Dist;
using acic::graph::Edge;
using acic::graph::EdgeList;
using acic::graph::VertexId;

EdgeList random_list(VertexId n, std::uint64_t m, std::uint64_t seed,
                     bool self_loops = false) {
  acic::graph::GenParams params;
  params.num_vertices = n;
  params.num_edges = m;
  params.seed = seed;
  params.remove_self_loops = !self_loops;
  return acic::graph::generate_uniform_random(params);
}

EdgeList with_weights(EdgeList list, Dist (*weight)(std::size_t, Dist)) {
  std::vector<Edge>& edges = list.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    edges[i].weight = weight(i, edges[i].weight);
  }
  return list;
}

EdgeList single_vertex() { return EdgeList(1, {}); }

EdgeList single_vertex_self_loop() { return EdgeList(1, {{0, 0, 3.0}}); }

EdgeList zero_weights() {
  return with_weights(random_list(256, 2048, 1),
                      [](std::size_t, Dist) { return 0.0; });
}

EdgeList half_zero_weights() {
  return with_weights(random_list(256, 2048, 2), [](std::size_t i, Dist w) {
    return i % 2 == 0 ? 0.0 : w;
  });
}

EdgeList self_loops_parallel_edges() {
  EdgeList list = random_list(128, 512, 3, /*self_loops=*/true);
  const std::size_t m = list.num_edges();
  for (std::size_t i = 0; i < m; ++i) {
    const Edge e = list.edges()[i];
    list.add(e.src, e.dst, e.weight + 1.0);
    list.add(e.src, e.dst, e.weight * 0.5);
    list.add(e.src, e.src, e.weight);
  }
  return list;
}

EdgeList half_unreachable() {
  // The upper half has edges of its own and into the lower half, but
  // nothing points into it.
  EdgeList list = random_list(128, 1024, 4);
  list.set_num_vertices(256);
  for (VertexId v = 128; v < 256; ++v) {
    list.add(v, v - 128, 1.0);
    list.add(v, 128 + (v + 1) % 128, 2.0);
  }
  return list;
}

EdgeList out_star() {
  EdgeList list(1024, {});
  for (VertexId v = 1; v < 1024; ++v) list.add(0, v, 1.0 + v % 7);
  return list;
}

EdgeList in_out_star() {
  EdgeList list(1024, {});
  for (VertexId v = 1; v < 1024; ++v) {
    list.add(0, v, 1.0 + v % 7);
    list.add(v, 0, 1.0 + v % 5);
  }
  return list;
}

EdgeList unit_weights() {
  return with_weights(random_list(256, 4096, 5),
                      [](std::size_t, Dist) { return 1.0; });
}

EdgeList huge_weights() {
  return with_weights(random_list(256, 2048, 6),
                      [](std::size_t, Dist w) { return w * 1e300; });
}

EdgeList tiny_weights() {
  return with_weights(random_list(256, 2048, 7),
                      [](std::size_t, Dist w) { return w * 1e-300; });
}

EdgeList overflowing_path() {
  // 18 hops of 1e307 exceed the largest double, so every vertex from
  // the 18th on has distance +inf, the same as an unreachable one.
  EdgeList list(64, {});
  for (VertexId v = 0; v + 1 < 64; ++v) list.add(v, v + 1, 1e307);
  return list;
}

struct Case {
  const char* name;
  EdgeList (*build)();
  VertexId source;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.name << " source=" << c.source;
}

class DegenerateGraph : public ::testing::TestWithParam<Case> {};

TEST_P(DegenerateGraph, EverySolverMatchesDijkstra) {
  const Case& c = GetParam();
  const Csr csr = Csr::from_edge_list(c.build());
  const std::string path =
      ::testing::TempDir() + "/degenerate_" + c.name + ".oocsr";
  ASSERT_TRUE(acic::graph::write_csr_file(csr, path));
  const acic::graph::MappedCsr mapped(path);
  const std::vector<Dist> truth = acic::baselines::dijkstra(csr, c.source);

  acic::sssp::SolverOptions opts;
  opts.time_limit_us = 1e7;
  for (const std::string& solver : acic::sssp::solver_names()) {
    for (const unsigned threads : {1u, 4u}) {
      for (const bool on_mmap : {false, true}) {
        SCOPED_TRACE(solver + " threads=" + std::to_string(threads) +
                     (on_mmap ? " mmap" : " mem"));
        acic::runtime::Machine machine(acic::runtime::Topology{2, 2, 2});
        machine.set_threads(threads);
        const acic::sssp::SolverRun run = acic::sssp::run_solver(
            solver, machine, on_mmap ? mapped.csr() : csr, c.source, opts);
        EXPECT_FALSE(run.telemetry.hit_time_limit);
        ASSERT_EQ(run.sssp.dist.size(), truth.size());
        for (std::size_t v = 0; v < truth.size(); ++v) {
          ASSERT_EQ(run.sssp.dist[v], truth[v]) << "vertex " << v;
        }
      }
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, DegenerateGraph,
    ::testing::Values(
        Case{"single_vertex", single_vertex, 0},
        Case{"single_vertex_self_loop", single_vertex_self_loop, 0},
        Case{"zero_weights", zero_weights, 0},
        Case{"half_zero_weights", half_zero_weights, 0},
        Case{"self_loops_parallel_edges", self_loops_parallel_edges, 0},
        Case{"half_unreachable", half_unreachable, 0},
        Case{"out_star", out_star, 0},
        Case{"in_out_star_leaf_source", in_out_star, 700},
        Case{"unit_weights", unit_weights, 0},
        Case{"huge_weights", huge_weights, 0},
        Case{"tiny_weights", tiny_weights, 0},
        Case{"overflowing_path", overflowing_path, 0}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

}  // namespace
