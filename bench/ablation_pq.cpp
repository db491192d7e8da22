// Ablation: which of ACIC's mechanisms actually reduce wasted work?
// Switches off, one at a time: the min-priority queue (expand on arrival,
// i.e. the paper's §II.A baseline behaviour), the receiver-side pq_hold,
// and the sender-side tram_hold.  DESIGN.md calls these out as the
// design choices to ablate.

#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/sssp/solver.hpp"
#include "src/util/rng.hpp"

namespace {

struct Variant {
  const char* name;
  bool use_pq;
  bool use_pq_hold;
  bool use_tram_hold;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace acic;
  const util::Options opts(argc, argv);
  const auto scale =
      static_cast<std::uint32_t>(opts.get_int("scale", 13));
  const auto nodes =
      static_cast<std::uint32_t>(opts.get_int("nodes", 6));
  const auto trials =
      static_cast<std::uint32_t>(opts.get_int("trials", 3));

  std::printf("Ablation: ACIC mechanism knockout (scale=%u, %u mini-nodes,"
              " %u trials)\n", scale, nodes, trials);

  const Variant variants[] = {
      {"full ACIC", true, true, true},
      {"no pq_hold (p_pq=1)", true, false, true},
      {"no tram_hold (p_tram=1)", true, true, false},
      {"no pq (expand on arrival)", false, false, false},
  };

  util::Table table({"graph", "variant", "time_s", "updates_created",
                     "wasted_pct"});
  for (const stats::GraphKind kind :
       {stats::GraphKind::kRandom, stats::GraphKind::kRmat}) {
    for (const Variant& variant : variants) {
      double time_s = 0.0;
      double created = 0.0;
      double wasted = 0.0;
      for (std::uint32_t trial = 0; trial < trials; ++trial) {
        stats::ExperimentSpec spec;
        spec.graph = kind;
        spec.scale = scale;
        spec.nodes = nodes;
        spec.seed = util::derive_seed(23, trial);
        sssp::SolverOptions solver_opts;
        solver_opts.acic.use_pq = variant.use_pq;
        solver_opts.acic.use_pq_hold = variant.use_pq_hold;
        solver_opts.acic.use_tram_hold = variant.use_tram_hold;
        const graph::Csr csr = stats::build_graph(spec);
        runtime::Machine machine(spec.topology());
        const auto run =
            sssp::run_solver("acic", machine, csr, spec.source, solver_opts);
        time_s += run.sssp.metrics.sim_time_s();
        created += static_cast<double>(run.sssp.metrics.updates_created);
        wasted += run.sssp.metrics.wasted_fraction();
      }
      table.add_row({stats::graph_kind_name(kind), variant.name,
                     util::strformat("%.5f", time_s / trials),
                     util::strformat("%.0f", created / trials),
                     util::strformat("%.1f%%", 100.0 * wasted / trials)});
    }
  }
  table.print();
  std::printf("expected: knocking out pq (the paper's key asynchrony-"
              "focused optimization) inflates updates_created the most\n");
  bench::write_csv(table, opts, "ablation_pq.csv");
  return 0;
}
