// Ablation: 1-D vs 2-D partitioning and the hybrid Bellman-Ford switch
// in distributed Δ-stepping.  The paper attributes Δ-stepping's RMAT win
// partly to the RIKEN code's 2-D decomposition (hub edges spread over a
// processor column) and partly to the hybrid tail heuristic; this bench
// separates the two effects.

#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/baselines/delta_stepping.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace acic;

struct Variant {
  const char* name;
  bool two_d;
  bool hybrid;
};

double run_variant(const Variant& variant, const graph::Csr& csr,
                   const stats::ExperimentSpec& spec) {
  runtime::Machine machine(spec.topology());
  baselines::DeltaConfig config;
  config.hybrid_bellman_ford = variant.hybrid;
  if (variant.two_d) {
    const auto partition =
        graph::Partition2D::squarest(csr, machine.num_pes());
    return baselines::delta_stepping_2d(machine, csr, partition,
                                        spec.source, config)
        .sssp.metrics.sim_time_s();
  }
  const auto partition =
      graph::Partition1D::block(csr.num_vertices(), machine.num_pes());
  return baselines::delta_stepping_dist(machine, csr, partition,
                                        spec.source, config)
      .sssp.metrics.sim_time_s();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options opts(argc, argv);
  const auto scale =
      static_cast<std::uint32_t>(opts.get_int("scale", 13));
  const auto nodes =
      static_cast<std::uint32_t>(opts.get_int("nodes", 4));
  const auto trials =
      static_cast<std::uint32_t>(opts.get_int("trials", 3));

  std::printf("Ablation: delta-stepping partitioning x hybrid switch "
              "(scale=%u, %u mini-nodes, %u trials)\n",
              scale, nodes, trials);

  const Variant variants[] = {
      {"1D, plain", false, false},
      {"1D, hybrid BF", false, true},
      {"2D, plain", true, false},
      {"2D, hybrid BF (RIKEN)", true, true},
  };

  util::Table table({"graph", "variant", "time_s"});
  for (const stats::GraphKind kind :
       {stats::GraphKind::kRandom, stats::GraphKind::kRmat}) {
    for (const Variant& variant : variants) {
      double time_s = 0.0;
      for (std::uint32_t trial = 0; trial < trials; ++trial) {
        stats::ExperimentSpec spec;
        spec.graph = kind;
        spec.scale = scale;
        spec.nodes = nodes;
        spec.seed = util::derive_seed(31, trial);
        const graph::Csr csr = stats::build_graph(spec);
        time_s += run_variant(variant, csr, spec);
      }
      table.add_row({stats::graph_kind_name(kind), variant.name,
                     util::strformat("%.5f", time_s / trials)});
    }
  }
  table.print();
  std::printf("expected: 2D helps most on rmat (hub balance); the hybrid "
              "switch helps the high-diameter tail\n");
  bench::write_csv(table, opts, "ablation_partition.csv");
  return 0;
}
