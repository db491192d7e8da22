// Ablation: straggler sensitivity — one worker PE is slowed to a
// fraction of full speed (not PE 0, which is every algorithm's reduction
// root).
//
// Measured finding (worth stating honestly): a *persistent* straggler
// binds ACIC harder than the bulk-synchronous baseline.  ACIC is
// compute-bound, so its makespan tracks the slow PE's work share almost
// exactly (1/factor), while Δ-stepping's runtime contains a large
// barrier-latency component that does not scale with the slow PE's
// compute, diluting its slowdown.  This is precisely the load-imbalance
// weakness the paper concedes for ACIC's static 1-D partition and the
// motivation for its future-work proposals (in-process work stealing and
// over-decomposition with migration, §V); the work-stealing column shows
// how much of it the in-process stealing recovers.

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

  std::printf("Ablation: straggler sensitivity (random graph scale=%u, "
              "%u mini-nodes, one slow PE, %u trials)\n",
              scale, nodes, trials);

  util::Table table({"slow_pe_speed", "acic_time_s", "acic_ws_time_s",
                     "riken_time_s", "acic_slowdown", "acic_ws_slowdown",
                     "riken_slowdown"});
  double acic_base = 0.0;
  double ws_base = 0.0;
  double riken_base = 0.0;
  for (const double factor : {1.0, 0.5, 0.25, 0.125}) {
    double acic_time = 0.0;
    double ws_time = 0.0;
    double riken_time = 0.0;
    for (std::uint32_t trial = 0; trial < trials; ++trial) {
      stats::ExperimentSpec spec;
      spec.graph = stats::GraphKind::kRandom;
      spec.scale = scale;
      spec.nodes = nodes;
      spec.seed = util::derive_seed(41, trial);
      const graph::Csr csr = stats::build_graph(spec);
      const auto solve = [&](const char* solver,
                             const sssp::SolverOptions& solver_opts) {
        runtime::Machine machine(spec.topology());
        // Slow the last worker, not PE 0: PE 0 is the reduction root for
        // every algorithm, and slowing it would measure root-bottleneck
        // effects instead of compute imbalance.
        if (factor != 1.0) {
          machine.set_speed_factor(machine.num_pes() - 1, factor);
        }
        return sssp::run_solver(solver, machine, csr, spec.source,
                                solver_opts)
            .sssp.metrics.sim_time_s();
      };
      acic_time += solve("acic", {});
      sssp::SolverOptions stealing;
      stealing.acic.steal_threshold_degree = 1;  // steal everything
      ws_time += solve("acic", stealing);
      riken_time += solve("delta_stepping_2d", {});
    }
    acic_time /= trials;
    ws_time /= trials;
    riken_time /= trials;
    if (factor == 1.0) {
      acic_base = acic_time;
      ws_base = ws_time;
      riken_base = riken_time;
    }
    table.add_row({util::strformat("%.3f", factor),
                   util::strformat("%.5f", acic_time),
                   util::strformat("%.5f", ws_time),
                   util::strformat("%.5f", riken_time),
                   util::strformat("%.2fx", acic_time / acic_base),
                   util::strformat("%.2fx", ws_time / ws_base),
                   util::strformat("%.2fx", riken_time / riken_base)});
  }
  table.print();
  std::printf("expected: in-process work stealing (acic_ws) recovers part "
              "of the straggler loss by offloading the slow PE's edge "
              "relaxations to its process siblings\n");
  bench::write_csv(table, opts, "ablation_straggler.csv");
  return 0;
}
