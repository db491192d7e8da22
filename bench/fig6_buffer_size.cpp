// Figure 6: effect of the tramlib buffer size (auto-flush threshold) at
// various node counts, on a random graph.
//
// Paper shape to reproduce: the optimal buffer size *decreases* as the
// node count grows — with more PEs there are more (and thus
// slower-filling) buffers, so large buffers strand updates and increase
// latency, while at small node counts large buffers amortize best.
// The paper sweeps {512, 1024, 2048} at scale 26; the simulation's graph
// is far smaller, so the sweep includes smaller sizes and the crossover
// appears at proportionally smaller buffer values.

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
  const std::vector<std::uint32_t> nodes_list =
      opts.has("nodes") ? bench::parse_list(opts.get("nodes", ""))
                        : std::vector<std::uint32_t>{1, 2, 4, 8, 16};
  const std::vector<std::uint32_t> buffers =
      opts.has("buffers") ? bench::parse_list(opts.get("buffers", ""))
                          : std::vector<std::uint32_t>{64,  128, 256,
                                                       512, 1024, 2048};

  std::printf("Figure 6: tramlib buffer size sweep, random graph scale=%u "
              "(%u trials)  [paper: 512/1024/2048 across 1-16 nodes]\n",
              scale, trials);

  std::vector<std::string> headers{"nodes"};
  for (const auto b : buffers) {
    headers.push_back(util::strformat("buf%u_time_s", b));
  }
  headers.push_back("optimal_buffer");
  util::Table table(headers);

  for (const std::uint32_t nodes : nodes_list) {
    std::vector<std::string> row{util::strformat("%u", nodes)};
    double best_time = 1e300;
    std::uint32_t best_buffer = 0;
    for (const std::uint32_t buffer : buffers) {
      double time_s = 0.0;
      for (std::uint32_t trial = 0; trial < trials; ++trial) {
        stats::ExperimentSpec spec;
        spec.graph = stats::GraphKind::kRandom;
        spec.scale = scale;
        spec.nodes = nodes;
        spec.seed = util::derive_seed(17, trial);
        sssp::SolverOptions solver_opts;
        solver_opts.acic.tram.buffer_items = buffer;
        const graph::Csr csr = stats::build_graph(spec);
        runtime::Machine machine(spec.topology());
        time_s += sssp::run_solver("acic", machine, csr, spec.source,
                                   solver_opts)
                      .sssp.metrics.sim_time_s();
      }
      time_s /= trials;
      row.push_back(util::strformat("%.5f", time_s));
      if (time_s < best_time) {
        best_time = time_s;
        best_buffer = buffer;
      }
    }
    row.push_back(util::strformat("%u", best_buffer));
    table.add_row(row);
  }
  table.print();
  std::printf("paper shape: the optimal buffer size shifts smaller as "
              "node count grows\n");
  bench::write_csv(table, opts, "fig6_buffer_size.csv");
  return 0;
}
