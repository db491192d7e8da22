// Ablation: tramlib aggregation modes (paper §II.D).  The paper finds WP
// (per-worker buffer sets, per-destination-process buffers) best for
// SSSP; PP pays atomic contention on shared sets and WW's many buffers
// fill too slowly.

#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/sssp/solver.hpp"
#include "src/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace acic;
  const util::Options opts(argc, argv);
  const auto scale =
      static_cast<std::uint32_t>(opts.get_int("scale", 13));
  const auto nodes =
      static_cast<std::uint32_t>(opts.get_int("nodes", 4));
  const auto trials =
      static_cast<std::uint32_t>(opts.get_int("trials", 3));

  std::printf("Ablation: tramlib aggregation modes (scale=%u, %u "
              "mini-nodes, %u trials)  [paper: WP best]\n",
              scale, nodes, trials);

  util::Table table({"graph", "mode", "time_s", "aggregate_msgs_proxy"});
  for (const stats::GraphKind kind :
       {stats::GraphKind::kRandom, stats::GraphKind::kRmat}) {
    for (const tram::Aggregation mode :
         {tram::Aggregation::kWP, tram::Aggregation::kWW,
          tram::Aggregation::kPP, tram::Aggregation::kPW}) {
      double time_s = 0.0;
      double messages = 0.0;
      for (std::uint32_t trial = 0; trial < trials; ++trial) {
        stats::ExperimentSpec spec;
        spec.graph = kind;
        spec.scale = scale;
        spec.nodes = nodes;
        spec.seed = util::derive_seed(29, trial);
        sssp::SolverOptions solver_opts;
        solver_opts.acic.tram.mode = mode;
        const graph::Csr csr = stats::build_graph(spec);
        runtime::Machine machine(spec.topology());
        const auto run =
            sssp::run_solver("acic", machine, csr, spec.source, solver_opts);
        time_s += run.sssp.metrics.sim_time_s();
        messages += static_cast<double>(run.sssp.metrics.network_messages);
      }
      table.add_row({stats::graph_kind_name(kind),
                     tram::aggregation_name(mode),
                     util::strformat("%.5f", time_s / trials),
                     util::strformat("%.0f", messages / trials)});
    }
  }
  table.print();
  bench::write_csv(table, opts, "ablation_aggregation.csv");
  return 0;
}
