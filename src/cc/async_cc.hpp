#pragma once
// Asynchronous connected components with ACIC-style continuous
// introspection — the paper's future-work proposal made concrete
// ("One candidate is the connected components problem for random graphs,
// where asynchronous reductions may be used to communicate information
// about vertices and components concurrently with computation", §V).
//
// The algorithm is min-label propagation: every vertex starts labeled
// with its own id; an update (v, label) lowers v's label and propagates
// the new minimum to its neighbors.  The machinery transfers from SSSP
// directly: labels play the role of distances (lower labels win and are
// more likely final), a per-PE histogram over label values feeds the
// continuous reduction, the pq threshold admits the lowest labels first
// and parks the rest in a hold, and the created/processed counters give
// quiescence-based termination.  The input graph must be symmetrized
// (EdgeList::symmetrized) so components are *weakly* connected.

#include <cstdint>
#include <vector>

#include "src/graph/csr.hpp"
#include "src/graph/partition.hpp"
#include "src/runtime/machine.hpp"
#include "src/tram/tram.hpp"

namespace acic::cc {

struct AsyncCcConfig {
  tram::TramConfig tram;
  /// Disable the priority queue (propagate on arrival) — the naive
  /// asynchronous baseline for the ablation.
  bool use_pq = true;
};

struct AsyncCcResult {
  std::vector<graph::VertexId> labels;
  std::uint64_t updates_created = 0;
  std::uint64_t updates_processed = 0;
  std::uint64_t updates_rejected = 0;
  std::uint64_t reduction_cycles = 0;
  std::uint64_t network_messages = 0;
  runtime::SimTime sim_time_us = 0.0;
  bool hit_time_limit = false;
};

/// Runs asynchronous CC on a symmetrized graph.  The result labels each
/// vertex with the minimum vertex id of its component.
AsyncCcResult async_cc(runtime::Machine& machine, const graph::Csr& csr,
                       const graph::Partition1D& partition,
                       const AsyncCcConfig& config = {},
                       runtime::SimTime time_limit_us =
                           runtime::kNoTimeLimit);

}  // namespace acic::cc
