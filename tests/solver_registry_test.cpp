// Tests for the string-keyed solver registry (src/sssp/solver.hpp):
// the name set, registry-vs-free-function equivalence (the adapters call
// the original entry points, so both paths must produce bit-identical
// distances and simulated times), observability neutrality (attaching a
// registry never perturbs a run), cross-solver distance agreement, and
// the unknown-name contract.

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

    // An observed machine runs one shard whatever its thread count.
    Registry registry(topo);
    Machine observed_machine(topo);
    observed_machine.set_threads(4);
    SolverOptions opts;
    opts.registry = &registry;
    const SolverRun observed =
        acic::sssp::run_solver(name, observed_machine, csr, 0, opts);
    EXPECT_EQ(observed_machine.last_threads_used(), 1u) << name;

    // Neutrality holds across thread counts too: the unobserved
    // 4-thread run computes the same schedule the observed run saw.
    Machine parallel_machine(topo);
    parallel_machine.set_threads(4);
    const SolverRun parallel =
        acic::sssp::run_solver(name, parallel_machine, csr, 0);
    ASSERT_EQ(parallel.sssp.dist, plain.sssp.dist) << name;
    EXPECT_DOUBLE_EQ(parallel.sssp.metrics.sim_time_us,
                     plain.sssp.metrics.sim_time_us)
        << name;
    EXPECT_EQ(parallel.telemetry.cycles, plain.telemetry.cycles) << name;
    ASSERT_EQ(observed.sssp.dist, parallel.sssp.dist) << name;
    EXPECT_EQ(observed.sssp.metrics.sim_time_us,
              parallel.sssp.metrics.sim_time_us)
        << name;
    EXPECT_EQ(observed.sssp.metrics.updates_created,
              parallel.sssp.metrics.updates_created)
        << name;
    EXPECT_EQ(observed.telemetry.cycles, parallel.telemetry.cycles) << name;

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
  // "sequential" is the Dijkstra oracle: same distances, same counters.
  const Csr csr = test_graph(8, 13);
  acic::baselines::SeqStats stats;
  const std::vector<Dist> expected =
      acic::baselines::dijkstra(csr, 0, &stats);
  Machine machine(Topology::tiny(1));
  const SolverRun run =
      acic::sssp::run_solver("sequential", machine, csr, 0);
  EXPECT_EQ(run.sssp.dist, expected);
  EXPECT_EQ(run.telemetry.extra("relaxations"),
            static_cast<double>(stats.relaxations));
  EXPECT_EQ(run.telemetry.extra("improvements"),
            static_cast<double>(stats.improvements));
  EXPECT_EQ(run.telemetry.cycles, stats.phases);
}

// ---- error contract -----------------------------------------------------

TEST(SolverRegistryDeathTest, UnknownNameAsserts) {
  const Csr csr = test_graph(6);
  Machine machine(Topology::tiny(2));
  EXPECT_DEATH(acic::sssp::run_solver("no_such_solver", machine, csr, 0),
               "unknown solver name");
}

}  // namespace
