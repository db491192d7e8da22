// Network-components scenario: the paper's future-work problem (§V) on
// a fragmented network.
//
// A sparse communication network (uniform random graph at low edge
// factor) splinters into many islands.  The example finds them with the
// asynchronous introspective connected-components algorithm, verifies
// against union-find, compares with the bulk-synchronous baseline, and
// prints the component-size distribution — the quantity an operator of
// a fragmented network actually wants.
//
//   ./examples/network_components [--scale N] [--edge-factor F]

#include <algorithm>
#include <cstdio>
#include <map>

#include "src/cc/async_cc.hpp"
#include "src/cc/bsp_cc.hpp"
#include "src/cc/union_find.hpp"
#include "src/graph/generators.hpp"
#include "src/util/options.hpp"
#include "src/util/table.hpp"

int main(int argc, char** argv) {
  using namespace acic;
  const util::Options opts(argc, argv);

  graph::GenParams params;
  params.num_vertices =
      graph::VertexId{1} << static_cast<unsigned>(opts.get_int("scale", 13));
  params.num_edges =
      static_cast<std::uint64_t>(opts.get_int("edge-factor", 1)) *
      params.num_vertices;
  params.seed = static_cast<std::uint64_t>(opts.get_int("seed", 2));
  const graph::Csr csr = graph::Csr::from_edge_list(
      graph::generate_uniform_random(params).symmetrized());
  std::printf("network: %u hosts, %zu (bidirectional) links\n",
              csr.num_vertices(), csr.num_edges());

  const runtime::Topology topo{
      static_cast<std::uint32_t>(opts.get_int("nodes", 4)), 2, 4};
  const auto partition =
      graph::Partition1D::block(csr.num_vertices(), topo.num_pes());

  runtime::Machine m_async(topo);
  const auto async_result = cc::async_cc(m_async, csr, partition);
  runtime::Machine m_bsp(topo);
  const auto bsp_result = cc::bsp_cc(m_bsp, csr, partition);

  const auto expected = cc::connected_components(csr);
  if (async_result.labels != expected || bsp_result.labels != expected) {
    std::printf("VERIFICATION FAILED against union-find\n");
    return 1;
  }

  // Component size distribution.
  std::map<graph::VertexId, std::size_t> sizes;
  for (const graph::VertexId label : async_result.labels) ++sizes[label];
  std::map<std::size_t, std::size_t> size_histogram;
  std::size_t largest = 0;
  for (const auto& [label, size] : sizes) {
    ++size_histogram[size];
    largest = std::max(largest, size);
  }
  std::printf("%zu components; largest spans %zu hosts (%.1f%% of the "
              "network)\n", sizes.size(), largest,
              100.0 * static_cast<double>(largest) / csr.num_vertices());
  std::printf("component sizes (size x count): ");
  int shown = 0;
  for (const auto& [size, count] : size_histogram) {
    if (shown++ >= 8) {
      std::printf("...");
      break;
    }
    std::printf("%zux%zu ", size, count);
  }
  std::printf("\n\n");

  util::Table table({"algorithm", "time_ms", "label_updates",
                     "sync_rounds"});
  table.add_row({"async-cc (introspective)",
                 util::strformat("%.3f", async_result.sim_time_us / 1000.0),
                 util::strformat("%llu", (unsigned long long)
                                             async_result.updates_created),
                 util::strformat("%llu", (unsigned long long)
                                             async_result.reduction_cycles)});
  table.add_row({"bsp-cc (label propagation)",
                 util::strformat("%.3f", bsp_result.sim_time_us / 1000.0),
                 util::strformat("%llu", (unsigned long long)
                                             bsp_result.updates_created),
                 util::strformat("%llu", (unsigned long long)
                                             bsp_result.barrier_rounds)});
  table.print();
  std::printf("\nboth verified against union-find; the asynchronous "
              "variant needs no barriers and suppresses doomed label "
              "propagation through its pq threshold (paper §V)\n");
  return 0;
}
