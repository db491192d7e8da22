// Social-network scenario: shortest "influence paths" on a scale-free
// graph.
//
// RMAT graphs model social networks (the paper's intro motivates SSSP
// with them): a few celebrity accounts have enormous degree, most users
// have a handful of connections.  Edge weights model interaction cost.
// The example shows why this workload is *hard* for a 1-D partitioned
// asynchronous algorithm — the PE owning a hub becomes a hotspot — and
// reproduces the paper's RMAT finding in miniature by comparing ACIC
// against the 2-D hybrid Δ-stepping baseline.
//
//   ./examples/social_network [--scale N] [--nodes M] [--seed S]

#include <algorithm>
#include <cstdio>

#include "src/graph/degree_stats.hpp"
#include "src/sssp/solver.hpp"
#include "src/stats/experiment.hpp"
#include "src/util/options.hpp"
#include "src/util/table.hpp"

int main(int argc, char** argv) {
  using namespace acic;
  const util::Options opts(argc, argv);

  stats::ExperimentSpec spec;
  spec.graph = stats::GraphKind::kRmat;
  spec.scale = static_cast<std::uint32_t>(opts.get_int("scale", 13));
  spec.nodes = static_cast<std::uint32_t>(opts.get_int("nodes", 4));
  spec.seed = static_cast<std::uint64_t>(opts.get_int("seed", 7));

  const graph::Csr csr = stats::build_graph(spec);
  std::printf("social graph (RMAT): %u accounts, %zu follow edges\n",
              csr.num_vertices(), csr.num_edges());

  // The hub structure is what distinguishes this workload.
  const graph::DegreeStats degrees = graph::compute_degree_stats(csr);
  std::printf("degree stats: mean %.1f, max %zu (%.0fx the mean), "
              "gini %.2f, %zu accounts with no followees\n",
              degrees.mean_degree, degrees.max_degree,
              static_cast<double>(degrees.max_degree) /
                  std::max(degrees.mean_degree, 1e-9),
              degrees.gini, degrees.isolated);

  std::printf("\ndistance distribution of influence from account 0:\n");
  runtime::Machine acic_machine(spec.topology());
  const auto acic_run =
      sssp::run_solver("acic", acic_machine, csr, spec.source);
  std::size_t reachable = 0;
  double max_dist = 0.0;
  for (const graph::Dist d : acic_run.sssp.dist) {
    if (d != graph::kInfDist) {
      ++reachable;
      max_dist = std::max(max_dist, d);
    }
  }
  std::printf("  %zu of %u accounts reachable; eccentricity %.1f\n",
              reachable, csr.num_vertices(), max_dist);

  runtime::Machine riken_machine(spec.topology());
  const auto riken_run =
      sssp::run_solver("delta_stepping_2d", riken_machine, csr, spec.source);

  util::Table table({"algorithm", "time_ms", "updates", "pe_imbalance"});
  for (const auto* run : {&acic_run, &riken_run}) {
    table.add_row(
        {run->telemetry.solver,
         util::strformat("%.3f", run->sssp.metrics.sim_time_us / 1000.0),
         util::strformat("%llu", static_cast<unsigned long long>(
                                     run->sssp.metrics.updates_created)),
         util::strformat("%.2f", run->telemetry.busy_imbalance)});
  }
  std::printf("\n");
  table.print();
  std::printf("\nnote the pe_imbalance column: ACIC's 1-D partition puts "
              "every hub's out-edges on one PE, while the 2-D baseline "
              "spreads them over a processor column — this is the paper's "
              "explanation for delta-stepping's RMAT advantage (§IV.F).\n");
  return 0;
}
