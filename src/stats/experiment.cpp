#include "src/stats/experiment.hpp"

#include <cmath>

#include "src/graph/generators.hpp"
#include "src/util/assert.hpp"

namespace acic::stats {

const char* graph_kind_name(GraphKind kind) {
  switch (kind) {
    case GraphKind::kRandom:
      return "random";
    case GraphKind::kRmat:
      return "rmat";
    case GraphKind::kRoad:
      return "road";
    case GraphKind::kErdosRenyi:
      return "erdos-renyi";
  }
  return "?";
}

GraphKind graph_kind_from_string(const std::string& name) {
  if (name == "random") return GraphKind::kRandom;
  if (name == "rmat") return GraphKind::kRmat;
  if (name == "road") return GraphKind::kRoad;
  if (name == "erdos-renyi") return GraphKind::kErdosRenyi;
  ACIC_ASSERT_MSG(false, "unknown graph kind");
  return GraphKind::kRandom;
}

runtime::Topology ExperimentSpec::topology() const {
  if (pes_override != 0) {
    return runtime::Topology::tiny(pes_override);
  }
  if (full_scale_nodes) {
    return runtime::Topology::paper_node(nodes);
  }
  return runtime::Topology{nodes, 2, 4};  // mini node: 8 workers
}

graph::Csr build_graph(const ExperimentSpec& spec) {
  graph::GenParams params;
  params.num_vertices = graph::VertexId{1} << spec.scale;
  params.num_edges =
      static_cast<std::uint64_t>(spec.edge_factor) * params.num_vertices;
  params.seed = spec.seed;
  params.threads = spec.threads;

  switch (spec.graph) {
    case GraphKind::kRandom:
      return graph::Csr::from_edge_list(
          graph::generate_uniform_random(params), spec.threads);
    case GraphKind::kRmat:
      return graph::Csr::from_edge_list(graph::generate_rmat(params),
                                        spec.threads);
    case GraphKind::kErdosRenyi:
      return graph::Csr::from_edge_list(
          graph::generate_erdos_renyi(params), spec.threads);
    case GraphKind::kRoad: {
      // Square grid with the requested vertex count; edge_factor is
      // ignored (grids are ~4-regular, like road networks).
      const auto side = static_cast<graph::VertexId>(
          std::round(std::sqrt(static_cast<double>(params.num_vertices))));
      graph::GridParams grid;
      grid.width = side;
      grid.height = side;
      return graph::Csr::from_edge_list(
          graph::generate_grid_road(grid, spec.seed), spec.threads);
    }
  }
  ACIC_ASSERT(false);
  return {};
}

}  // namespace acic::stats
