#pragma once
// Incremental SSSP repair planning (SSSP-Del style).
//
// Given a correct SSSP state (distances + witness parent pointers) for
// some past epoch and the applied-mutation span separating it from the
// current graph, plan_repair computes the cheapest sound warm start for
// the ACIC engine:
//
//   * deletions / weight increases of *tree* edges (parent[dst] == src)
//     invalidate the entire shortest-path subtree hanging off dst —
//     every descendant's distance depended on that edge.  The affected
//     set is the union of those subtrees (closed under the parent
//     relation), reset to +infinity;
//   * the *boundary* re-seeds the affected region: for every affected
//     vertex, the best candidate over in-edges from unaffected finite
//     vertices (this needs the reverse CSR the snapshots carry);
//   * insertions / weight decreases seed their head vertex directly
//     when they improve it — relaxations start from endpoint frontiers,
//     never from the source.
//
// Soundness of the warm start (asserted elementwise by the tests and
// the bench harness): after invalidation every remaining finite
// distance is an achievable path length in the *new* graph — an
// unaffected vertex's tree path survives intact, because an affected
// ancestor would have put the vertex in the affected set.  Seeds cover
// every edge crossing from the unaffected region into the affected one
// and every improving new edge, so the engine's label-correcting fixed
// point from (warm distances, seeds) equals the from-scratch distances.
//
// Non-tree deletions and increases are free: a removed edge that was
// not a witness lies on no shortest path, so distances are untouched.
// This asymmetry — most mutations touch nothing, a few invalidate a
// small subtree — is exactly why incremental repair beats recompute at
// realistic mutation rates (bench/dynamic_mutation quantifies the
// crossover).

#include <cstdint>
#include <vector>

#include "src/dynamic/dynamic_graph.hpp"
#include "src/dynamic/mutation.hpp"
#include "src/graph/types.hpp"
#include "src/sssp/update.hpp"

namespace acic::dynamic {

/// A consistent SSSP state for one (source, epoch) pair.  `parent[v]`
/// is a witness in-neighbor (dist[parent[v]] + w == dist[v]);
/// kInvalidVertex for the source and unreachable vertices.
struct SsspState {
  graph::VertexId source = 0;
  std::uint64_t epoch = 0;
  std::vector<graph::Dist> dist;
  std::vector<graph::VertexId> parent;
};

/// The warm start for one repair: distances after subtree invalidation,
/// plus the seed updates to inject.
struct RepairPlan {
  /// Vertices whose distance was invalidated (the union of affected
  /// subtrees), ascending.  Empty when no tree edge was disturbed.
  std::vector<graph::VertexId> affected;
  /// Seed updates (vertex, candidate distance), sorted by (vertex,
  /// dist) — at most one per vertex (the best candidate).
  std::vector<sssp::Update> seeds;
  /// state.dist with the affected set reset to +inf: the engine's
  /// warm_dist.
  std::vector<graph::Dist> warm_dist;

  bool touches_nothing() const {
    return affected.empty() && seeds.empty();
  }
};

/// Plans the repair that brings `state` (valid at the epoch the span
/// starts from) to `target` (the span's end epoch).  `span` must be
/// DynamicGraph::applied_since(state.epoch) for the same graph.
RepairPlan plan_repair(const GraphSnapshot& target, const SsspState& state,
                       std::span<const AppliedMutation> span);

/// Canonical witness parents for `dist` on `snap`: parent[v] is the
/// smallest in-neighbor u (ties broken by smallest weight) with
/// dist[u] + w(u, v) == dist[v]; kInvalidVertex for the source and
/// non-finite vertices.  A pure function of (graph, dist), so replays
/// agree bit for bit.
std::vector<graph::VertexId> compute_parents(
    const GraphSnapshot& snap, graph::VertexId source,
    const std::vector<graph::Dist>& dist);

/// Recomputes parents only where needed after a repair: for every
/// vertex in `affected` and every vertex whose distance differs between
/// `old_dist` and `new_dist`.  Other vertices keep `parents` untouched
/// (their witness edge provably survived the span).  Returns the number
/// of recomputed entries.
std::size_t refresh_parents(const GraphSnapshot& snap,
                            graph::VertexId source,
                            const std::vector<graph::Dist>& old_dist,
                            const std::vector<graph::Dist>& new_dist,
                            const std::vector<graph::VertexId>& affected,
                            std::vector<graph::VertexId>* parents);

/// Checks the SsspState invariants on `snap`: dist is a valid SSSP
/// fixed point witness-wise and every finite non-source vertex's parent
/// edge exists with dist[parent] + w == dist[v].  bench/dynamic_mutation
/// runs it after every epoch.
bool state_is_consistent(const GraphSnapshot& snap, const SsspState& state,
                         std::string* error = nullptr);

}  // namespace acic::dynamic
