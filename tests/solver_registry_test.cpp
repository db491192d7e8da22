// Tests for the string-keyed solver registry (src/sssp/solver.hpp):
// the built-in name set, registry-vs-free-function equivalence (the
// adapters call the original entry points, so both paths must produce
// bit-identical distances and simulated times), observability neutrality
// (attaching a registry never perturbs a run), cross-solver distance
// agreement, register_solver/unregister_solver, and the unknown-name
// contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/baselines/delta_stepping_dist.hpp"
#include "src/baselines/kla.hpp"
#include "src/baselines/sequential.hpp"
#include "src/core/acic.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/partition.hpp"
#include "src/graph/validate.hpp"
#include "src/obs/registry.hpp"
#include "src/sssp/solver.hpp"

namespace {

using acic::graph::Csr;
using acic::graph::Dist;
using acic::graph::Partition1D;
using acic::obs::Registry;
using acic::runtime::Machine;
using acic::runtime::Topology;
using acic::sssp::SolverOptions;
using acic::sssp::SolverRun;

Csr test_graph(std::uint32_t scale = 9, std::uint64_t seed = 7) {
  acic::graph::GenParams params;
  params.num_vertices = acic::graph::VertexId{1} << scale;
  params.num_edges = params.num_vertices * 8ull;
  params.seed = seed;
  return Csr::from_edge_list(acic::graph::generate_uniform_random(params));
}

TEST(SolverRegistry, BuiltInNames) {
  const std::vector<std::string> names = acic::sssp::solver_names();
  const std::vector<std::string> expected = {
      "acic",        "delta_stepping_dist", "delta_stepping_2d",
      "kla",         "distributed_control", "async_baseline",
      "sequential"};
  for (const std::string& name : expected) {
    EXPECT_TRUE(acic::sssp::has_solver(name)) << name;
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
  EXPECT_FALSE(acic::sssp::has_solver("nope"));
}

// ---- registry-vs-free-function equivalence -----------------------------

TEST(SolverRegistry, AcicMatchesFreeFunction) {
  const Csr csr = test_graph();
  const Topology topo{2, 2, 2};

  Machine direct_machine(topo);
  const Partition1D partition =
      Partition1D::block(csr.num_vertices(), direct_machine.num_pes());
  const auto direct = acic::core::acic_sssp(direct_machine, csr, partition,
                                            0, acic::core::AcicConfig{});

  Machine registry_machine(topo);
  const SolverRun run =
      acic::sssp::run_solver("acic", registry_machine, csr, 0);

  EXPECT_EQ(run.telemetry.solver, "acic");
  ASSERT_EQ(run.sssp.dist.size(), direct.sssp.dist.size());
  for (std::size_t v = 0; v < run.sssp.dist.size(); ++v) {
    EXPECT_DOUBLE_EQ(run.sssp.dist[v], direct.sssp.dist[v]);
  }
  EXPECT_DOUBLE_EQ(run.sssp.metrics.sim_time_us,
                   direct.sssp.metrics.sim_time_us);
  EXPECT_EQ(run.sssp.metrics.updates_created,
            direct.sssp.metrics.updates_created);
  EXPECT_EQ(run.sssp.metrics.network_messages,
            direct.sssp.metrics.network_messages);
  EXPECT_EQ(run.telemetry.cycles, direct.reduction_cycles);
  EXPECT_EQ(run.telemetry.extra("expanded"),
            static_cast<double>(direct.lifecycle.expanded));
}

TEST(SolverRegistry, DeltaSteppingMatchesFreeFunction) {
  const Csr csr = test_graph();
  const Topology topo{2, 2, 2};

  Machine direct_machine(topo);
  const Partition1D partition =
      Partition1D::block(csr.num_vertices(), direct_machine.num_pes());
  const auto direct = acic::baselines::delta_stepping_dist(
      direct_machine, csr, partition, 0, acic::baselines::DeltaConfig{});

  Machine registry_machine(topo);
  const SolverRun run = acic::sssp::run_solver("delta_stepping_dist",
                                               registry_machine, csr, 0);

  ASSERT_EQ(run.sssp.dist.size(), direct.sssp.dist.size());
  for (std::size_t v = 0; v < run.sssp.dist.size(); ++v) {
    EXPECT_DOUBLE_EQ(run.sssp.dist[v], direct.sssp.dist[v]);
  }
  EXPECT_DOUBLE_EQ(run.sssp.metrics.sim_time_us,
                   direct.sssp.metrics.sim_time_us);
  EXPECT_EQ(run.telemetry.cycles, direct.barrier_rounds);
}

TEST(SolverRegistry, KlaMatchesFreeFunction) {
  const Csr csr = test_graph();
  const Topology topo{2, 2, 2};

  Machine direct_machine(topo);
  const Partition1D partition =
      Partition1D::block(csr.num_vertices(), direct_machine.num_pes());
  const auto direct = acic::baselines::kla_sssp(
      direct_machine, csr, partition, 0, acic::baselines::KlaConfig{});

  Machine registry_machine(topo);
  const SolverRun run =
      acic::sssp::run_solver("kla", registry_machine, csr, 0);

  ASSERT_EQ(run.sssp.dist.size(), direct.sssp.dist.size());
  for (std::size_t v = 0; v < run.sssp.dist.size(); ++v) {
    EXPECT_DOUBLE_EQ(run.sssp.dist[v], direct.sssp.dist[v]);
  }
  EXPECT_DOUBLE_EQ(run.sssp.metrics.sim_time_us,
                   direct.sssp.metrics.sim_time_us);
  EXPECT_EQ(run.telemetry.cycles, direct.supersteps);
}

// ---- observability neutrality ------------------------------------------

TEST(SolverRegistry, AttachingRegistryDoesNotPerturbRuns) {
  const Csr csr = test_graph(8);
  const Topology topo{2, 2, 2};
  for (const std::string& name : acic::sssp::solver_names()) {
    if (name == "sequential") continue;

    Machine plain_machine(topo);
    const SolverRun plain =
        acic::sssp::run_solver(name, plain_machine, csr, 0);

    Registry registry(topo);
    Machine observed_machine(topo);
    SolverOptions opts;
    opts.registry = &registry;
    const SolverRun observed =
        acic::sssp::run_solver(name, observed_machine, csr, 0, opts);

    // Neutrality holds across thread counts too: a parallel run
    // (registry-less — an attached registry forces the serial loop)
    // computes the same schedule the observed run saw.
    Machine parallel_machine(topo);
    parallel_machine.set_threads(2);
    const SolverRun parallel =
        acic::sssp::run_solver(name, parallel_machine, csr, 0);
    ASSERT_EQ(parallel.sssp.dist, plain.sssp.dist) << name;
    EXPECT_DOUBLE_EQ(parallel.sssp.metrics.sim_time_us,
                     plain.sssp.metrics.sim_time_us)
        << name;
    EXPECT_EQ(parallel.telemetry.cycles, plain.telemetry.cycles) << name;

    ASSERT_EQ(observed.sssp.dist.size(), plain.sssp.dist.size()) << name;
    for (std::size_t v = 0; v < plain.sssp.dist.size(); ++v) {
      ASSERT_DOUBLE_EQ(observed.sssp.dist[v], plain.sssp.dist[v])
          << name << " vertex " << v;
    }
    EXPECT_DOUBLE_EQ(observed.sssp.metrics.sim_time_us,
                     plain.sssp.metrics.sim_time_us)
        << name;
    EXPECT_EQ(observed.sssp.metrics.updates_created,
              plain.sssp.metrics.updates_created)
        << name;
    EXPECT_EQ(observed.telemetry.cycles, plain.telemetry.cycles) << name;

    // And the observed run actually published something.
    EXPECT_GT(registry.total("runtime/tasks_executed"), 0u) << name;
    if (name != "delta_stepping_2d") {
      // All tram-based solvers feed the shared tram counters (the 2-D
      // grid solver messages its rows/columns directly, without tram).
      EXPECT_GT(registry.total("tram/items_inserted"), 0u) << name;
    }
  }
}

// ---- cross-solver agreement --------------------------------------------

TEST(SolverRegistry, AllSolversAgreeWithDijkstra) {
  const Csr csr = test_graph(8, 11);
  const Topology topo{2, 2, 2};
  const std::vector<Dist> expected = acic::baselines::dijkstra(csr, 3);

  for (const std::string& name : acic::sssp::solver_names()) {
    Machine machine(topo);
    const SolverRun run = acic::sssp::run_solver(name, machine, csr, 3);
    const auto cmp = acic::graph::compare_distances(run.sssp.dist, expected);
    EXPECT_TRUE(cmp.ok) << name << ": " << cmp.error;
    EXPECT_EQ(run.telemetry.solver, name);
    EXPECT_FALSE(run.telemetry.hit_time_limit) << name;
    if (name != "sequential") {
      EXPECT_GT(run.telemetry.cycles, 0u) << name;
      EXPECT_GE(run.telemetry.busy_imbalance, 1.0) << name;
      EXPECT_EQ(run.telemetry.pe_busy_us.size(), topo.num_pes()) << name;
    }
  }
}

TEST(SolverRegistry, SequentialMethods) {
  const Csr csr = test_graph(8, 13);
  const std::vector<Dist> expected = acic::baselines::dijkstra(csr, 0);
  Machine machine(Topology::tiny(1));
  for (const char* method : {"dijkstra", "bellman_ford", "delta_stepping"}) {
    SolverOptions opts;
    opts.sequential_method = method;
    const SolverRun run =
        acic::sssp::run_solver("sequential", machine, csr, 0, opts);
    const auto cmp = acic::graph::compare_distances(run.sssp.dist, expected);
    EXPECT_TRUE(cmp.ok) << method << ": " << cmp.error;
    EXPECT_GT(run.telemetry.extra("relaxations"), 0.0) << method;
  }
}

// ---- registration and error contracts ----------------------------------

TEST(SolverRegistry, RegisterSolverAddsAndReplaces) {
  const Csr csr = test_graph(6);
  Machine machine(Topology::tiny(2));
  // The registry is process-wide: remove the stub however the test
  // exits, so suites that enumerate solver_names() later in the same
  // process never see it.
  struct Unregister {
    ~Unregister() { acic::sssp::unregister_solver("test_stub"); }
  } unregister;

  acic::sssp::register_solver(
      "test_stub", [](Machine&, const Csr& g, acic::graph::VertexId,
                      const SolverOptions&) {
        SolverRun out;
        out.sssp.dist.assign(g.num_vertices(), 42.0);
        return out;
      });
  EXPECT_TRUE(acic::sssp::has_solver("test_stub"));
  const SolverRun run =
      acic::sssp::run_solver("test_stub", machine, csr, 0);
  EXPECT_DOUBLE_EQ(run.sssp.dist[0], 42.0);
  EXPECT_EQ(run.telemetry.solver, "test_stub");

  // Re-registering under the same name replaces the entry in place:
  // the name list gains no duplicate.
  acic::sssp::register_solver(
      "test_stub", [](Machine&, const Csr& g, acic::graph::VertexId,
                      const SolverOptions&) {
        SolverRun out;
        out.sssp.dist.assign(g.num_vertices(), 7.0);
        return out;
      });
  const auto names = acic::sssp::solver_names();
  EXPECT_EQ(std::count(names.begin(), names.end(), "test_stub"), 1);
  EXPECT_DOUBLE_EQ(
      acic::sssp::run_solver("test_stub", machine, csr, 0).sssp.dist[0],
      7.0);

  EXPECT_TRUE(acic::sssp::unregister_solver("test_stub"));
  EXPECT_FALSE(acic::sssp::has_solver("test_stub"));
  EXPECT_FALSE(acic::sssp::unregister_solver("test_stub"));
}

TEST(SolverRegistryDeathTest, BuiltInSolversCannotBeUnregistered) {
  EXPECT_DEATH(acic::sssp::unregister_solver("acic"),
               "built-in solvers cannot be unregistered");
}

TEST(SolverRegistryDeathTest, UnknownNameAsserts) {
  const Csr csr = test_graph(6);
  Machine machine(Topology::tiny(2));
  EXPECT_DEATH(acic::sssp::run_solver("no_such_solver", machine, csr, 0),
               "unknown solver name");
}

}  // namespace
