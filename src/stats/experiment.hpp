#pragma once
// Workload builders shared by the bench/ and examples/ harnesses: the
// paper's graph kinds, the simulated machine shape and the seeded graph
// generator, so that workloads, topologies and cost models are identical
// across comparisons.  Solvers are dispatched by registry name through
// sssp::run_solver (src/sssp/solver.hpp).

#include <cstdint>
#include <string>

#include "src/graph/csr.hpp"
#include "src/runtime/topology.hpp"

namespace acic::stats {

enum class GraphKind {
  kRandom,      // the paper's uniformly random endpoint graph
  kRmat,        // the paper's scale-free RMAT graph
  kRoad,        // high-diameter grid "road" graph (future-work workload)
  kErdosRenyi,  // distinct-edge random graph
};

const char* graph_kind_name(GraphKind kind);
GraphKind graph_kind_from_string(const std::string& name);

struct ExperimentSpec {
  GraphKind graph = GraphKind::kRandom;
  /// |V| = 2^scale (the paper runs scale 26; defaults here are sized for
  /// a single-core simulation and can be raised with --scale).
  std::uint32_t scale = 13;
  /// |E| = edge_factor * |V| (paper: 2^30 / 2^26 = 16).
  std::uint32_t edge_factor = 16;
  std::uint64_t seed = 1;
  graph::VertexId source = 0;

  /// Simulated machine size in nodes.  The paper's node is 8 processes ×
  /// 6 workers = 48 PEs; at simulation scale that many PEs per node
  /// would starve each PE of work (the paper runs 2^26 vertices, ~4000×
  /// our default), so the default "mini node" keeps the node-count axis
  /// of every figure while scaling the PE count with the graph:
  /// 2 processes × 4 workers = 8 PEs per node.  Set
  /// `full_scale_nodes = true` to use the paper's 48-PE nodes.
  std::uint32_t nodes = 1;
  bool full_scale_nodes = false;
  /// Nonzero replaces the topology with a single-process machine of that
  /// many workers (unit tests / micro benches).
  std::uint32_t pes_override = 0;

  /// Host worker threads for graph construction (build_graph).  The
  /// graph is identical at any value; this is purely a wall-clock knob.
  unsigned threads = 1;

  runtime::Topology topology() const;
};

/// Generates the workload graph for `spec` (structure + weights fully
/// determined by spec.seed).
graph::Csr build_graph(const ExperimentSpec& spec);

}  // namespace acic::stats
