// Ablation: the paper's two-tier threshold rule (Algorithm 1) vs the
// future-work shape-aware work-window function (§V: "an ideal approach
// would be to create a function with a whole histogram as input and
// thresholds as output, taking into account both the number of updates
// and the shape of the histogram").

#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/sssp/solver.hpp"
#include "src/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace acic;
  const util::Options opts(argc, argv);
  const auto scale =
      static_cast<std::uint32_t>(opts.get_int("scale", 13));
  const auto trials =
      static_cast<std::uint32_t>(opts.get_int("trials", 3));

  std::printf("Ablation: threshold function, Algorithm 1 vs work-window "
              "(scale=%u, %u trials)\n", scale, trials);

  util::Table table({"graph", "nodes", "two_tier_time_s",
                     "work_window_time_s", "two_tier_updates",
                     "work_window_updates"});
  for (const stats::GraphKind kind :
       {stats::GraphKind::kRandom, stats::GraphKind::kRmat}) {
    for (const std::uint32_t nodes : {1u, 4u, 16u}) {
      double tt_time = 0.0;
      double ww_time = 0.0;
      double tt_updates = 0.0;
      double ww_updates = 0.0;
      for (std::uint32_t trial = 0; trial < trials; ++trial) {
        stats::ExperimentSpec spec;
        spec.graph = kind;
        spec.scale = scale;
        spec.nodes = nodes;
        spec.seed = util::derive_seed(53, trial);
        const graph::Csr csr = stats::build_graph(spec);

        runtime::Machine tt_machine(spec.topology());
        const auto tt = sssp::run_solver("acic", tt_machine, csr,
                                         spec.source);  // paper default
        tt_time += tt.sssp.metrics.sim_time_s();
        tt_updates +=
            static_cast<double>(tt.sssp.metrics.updates_created);

        sssp::SolverOptions work_window;
        work_window.acic.threshold_policy =
            core::ThresholdPolicyKind::kWorkWindow;
        runtime::Machine ww_machine(spec.topology());
        const auto ww = sssp::run_solver("acic", ww_machine, csr,
                                         spec.source, work_window);
        ww_time += ww.sssp.metrics.sim_time_s();
        ww_updates +=
            static_cast<double>(ww.sssp.metrics.updates_created);
      }
      table.add_row({stats::graph_kind_name(kind),
                     util::strformat("%u", nodes),
                     util::strformat("%.5f", tt_time / trials),
                     util::strformat("%.5f", ww_time / trials),
                     util::strformat("%.0f", tt_updates / trials),
                     util::strformat("%.0f", ww_updates / trials)});
    }
  }
  table.print();
  bench::write_csv(table, opts, "ablation_thresholds.csv");
  return 0;
}
