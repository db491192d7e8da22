// Figure 4: effect of the tram percentile p_tram on ACIC runtime
// (random graph, one node).
//
// Paper shape to reproduce: runtime is minimized at p_tram = 0.999 —
// holding updates back on the *sender* side only slows the pipeline
// down, because the receiver-side pq already suppresses the expansion of
// sub-optimal updates.

#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/sssp/solver.hpp"
#include "src/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace acic;
  const util::Options opts(argc, argv);

  stats::ExperimentSpec spec;
  spec.graph = stats::GraphKind::kRandom;
  spec.scale = static_cast<std::uint32_t>(opts.get_int("scale", 13));
  spec.nodes = static_cast<std::uint32_t>(
      opts.get_int("nodes", 6));  // 6 mini-nodes = 48 PEs, the paper's node
  const auto trials =
      static_cast<std::uint32_t>(opts.get_int("trials", 3));

  std::printf("Figure 4: p_tram sweep on a random graph (scale=%u, %u "
              "node(s), %u trials)  [paper: 0.05..0.999, optimum 0.999]\n",
              spec.scale, spec.nodes, trials);

  util::Table table({"p_tram", "time_s", "updates_created"});
  double best_time = 1e300;
  double best_p = 0.0;
  for (const double p :
       {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.999}) {
    double time_s = 0.0;
    double created = 0.0;
    for (std::uint32_t trial = 0; trial < trials; ++trial) {
      spec.seed = util::derive_seed(11, trial);
      sssp::SolverOptions solver_opts;
      solver_opts.acic.p_tram = p;
      const graph::Csr csr = stats::build_graph(spec);
      runtime::Machine machine(spec.topology());
      const auto run =
          sssp::run_solver("acic", machine, csr, spec.source, solver_opts);
      time_s += run.sssp.metrics.sim_time_s();
      created += static_cast<double>(run.sssp.metrics.updates_created);
    }
    time_s /= trials;
    created /= trials;
    if (time_s < best_time) {
      best_time = time_s;
      best_p = p;
    }
    table.add_row({util::strformat("%.3f", p),
                   util::strformat("%.5f", time_s),
                   util::strformat("%.0f", created)});
  }
  table.print();
  std::printf("optimal p_tram here: %.3f (paper: 0.999)\n", best_p);
  bench::write_csv(table, opts, "fig4_ptram_sweep.csv");
  return 0;
}
