// Graph500-SSSP-style harness: the benchmark protocol the paper's RIKEN
// baseline was built for.  Runs SSSP from several random roots on one
// graph instance, validates each run, and reports harmonic-mean TEPS and
// per-root statistics for ACIC and the RIKEN-style baseline.

#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/baselines/sequential.hpp"
#include "src/graph/validate.hpp"
#include "src/sssp/solver.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"

int main(int argc, char** argv) {
  using namespace acic;
  const util::Options opts(argc, argv);
  const auto scale =
      static_cast<std::uint32_t>(opts.get_int("scale", 13));
  const auto nodes =
      static_cast<std::uint32_t>(opts.get_int("nodes", 4));
  const auto num_roots =
      static_cast<std::uint32_t>(opts.get_int("roots", 8));  // spec: 64
  const auto kind =
      stats::graph_kind_from_string(opts.get("graph", "rmat"));

  std::printf("Graph500-style SSSP: %s scale=%u, %u mini-nodes, %u "
              "random roots (spec uses 64)\n",
              stats::graph_kind_name(kind), scale, nodes, num_roots);

  stats::ExperimentSpec spec;
  spec.graph = kind;
  spec.scale = scale;
  spec.nodes = nodes;
  spec.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const graph::Csr csr = stats::build_graph(spec);

  util::Xoshiro256 root_rng(util::derive_seed(spec.seed, 99));
  std::vector<double> acic_teps;
  std::vector<double> riken_teps;
  std::uint32_t validated = 0;
  for (std::uint32_t r = 0; r < num_roots; ++r) {
    // Graph500 requires roots with at least one edge.
    graph::VertexId root = 0;
    do {
      root = static_cast<graph::VertexId>(
          root_rng.next_below(csr.num_vertices()));
    } while (csr.out_degree(root) == 0);
    spec.source = root;

    runtime::Machine acic_machine(spec.topology());
    const auto acic_run =
        sssp::run_solver("acic", acic_machine, csr, spec.source);
    runtime::Machine riken_machine(spec.topology());
    const auto riken_run = sssp::run_solver(
        "delta_stepping_2d", riken_machine, csr, spec.source);
    acic_teps.push_back(acic_run.sssp.metrics.teps());
    riken_teps.push_back(riken_run.sssp.metrics.teps());

    const auto expected = baselines::dijkstra(csr, root);
    const bool ok =
        graph::compare_distances(acic_run.sssp.dist, expected).ok &&
        graph::compare_distances(riken_run.sssp.dist, expected).ok;
    if (ok) {
      ++validated;
    } else {
      std::printf("  root %u FAILED validation\n", root);
    }
  }

  util::Table table(
      {"algorithm", "geomean_teps", "min_teps", "max_teps", "stddev"});
  table.add_row({"acic",
                 util::strformat("%.3g", util::geomean(acic_teps)),
                 util::strformat("%.3g", util::min_of(acic_teps)),
                 util::strformat("%.3g", util::max_of(acic_teps)),
                 util::strformat("%.3g", util::stddev(acic_teps))});
  table.add_row({"riken-delta",
                 util::strformat("%.3g", util::geomean(riken_teps)),
                 util::strformat("%.3g", util::min_of(riken_teps)),
                 util::strformat("%.3g", util::max_of(riken_teps)),
                 util::strformat("%.3g", util::stddev(riken_teps))});
  table.print();
  std::printf("%u/%u roots validated against Dijkstra\n", validated,
              num_roots);
  bench::write_csv(table, opts, "graph500_style.csv");
  return validated == num_roots ? 0 : 1;
}
