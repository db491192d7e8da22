// Figure 2 companion: the paper's fig. 2 is the update-lifecycle diagram
// (create → tram/tram_hold → arrival → reject or pq/pq_hold → expand).
// This bench makes the diagram quantitative: it runs ACIC on both paper
// workloads and prints how many updates flowed through every stage.

#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/core/acic.hpp"
#include "src/graph/partition.hpp"
#include "src/runtime/machine.hpp"

int main(int argc, char** argv) {
  using namespace acic;
  const util::Options opts(argc, argv);

  const auto scale =
      static_cast<std::uint32_t>(opts.get_int("scale", 13));
  const auto nodes =
      static_cast<std::uint32_t>(opts.get_int("nodes", 1));

  std::printf("Figure 2: update lifecycle stage counts (scale=%u, %u "
              "node(s))\n", scale, nodes);

  util::Table table({"graph", "created", "sent_direct", "tram_held",
                     "rejected", "pq_direct", "pq_held", "superseded",
                     "expanded"});
  for (const stats::GraphKind kind :
       {stats::GraphKind::kRandom, stats::GraphKind::kRmat}) {
    stats::ExperimentSpec spec;
    spec.graph = kind;
    spec.scale = scale;
    spec.nodes = nodes;
    spec.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));

    const graph::Csr csr = stats::build_graph(spec);
    runtime::Machine machine(spec.topology());
    const auto partition =
        graph::Partition1D::block(csr.num_vertices(), machine.num_pes());
    const core::AcicRunResult run =
        core::acic_sssp(machine, csr, partition, spec.source, {});

    const core::LifecycleCounts& lc = run.lifecycle;
    table.add_row({stats::graph_kind_name(kind),
                   util::strformat("%llu", (unsigned long long)lc.created),
                   util::strformat("%llu",
                                   (unsigned long long)lc.sent_directly),
                   util::strformat("%llu",
                                   (unsigned long long)lc.held_in_tram),
                   util::strformat(
                       "%llu", (unsigned long long)lc.rejected_on_arrival),
                   util::strformat(
                       "%llu", (unsigned long long)lc.entered_pq_directly),
                   util::strformat("%llu",
                                   (unsigned long long)lc.held_in_pq_hold),
                   util::strformat("%llu",
                                   (unsigned long long)lc.superseded_in_pq),
                   util::strformat("%llu",
                                   (unsigned long long)lc.expanded)});
  }
  table.print();
  std::printf("invariant: created = rejected + superseded + expanded "
              "(every update is processed exactly once)\n");
  std::printf("invariant: created = sent_direct + tram_held "
              "(every update passes the t_tram gate once)\n");
  bench::write_csv(table, opts, "fig2_lifecycle.csv");
  return 0;
}
