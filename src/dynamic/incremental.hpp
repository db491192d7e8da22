#pragma once
// IncrementalSssp — keeps one (source, distances, parents) state exact
// across mutation epochs of a DynamicGraph.
//
// Each refresh() call advances the state to the graph's current epoch.
// The repair planner (src/dynamic/repair.hpp) turns the applied-mutation
// span into a warm start; the ACIC engine then runs in warm mode
// (AcicEngineOptions::warm_dist + seeds) on a fresh simulated machine,
// relaxing only from the invalidated boundary and the improved edges —
// never from the source.  When the planner's affected set exceeds
// `recompute_fraction` of the graph, refresh() falls back to a cold
// from-scratch solve instead: past that point repair re-relaxes most of
// the graph anyway and the planning overhead is pure loss.  The
// crossover is measured, not assumed — bench/dynamic_mutation sweeps it.
//
// Every refresh leaves the state exact for its epoch: distances are the
// label-correcting fixed point on that epoch's graph (the property test
// in tests/dynamic_test.cpp asserts elementwise equality against
// sequential Dijkstra after every batch), and parents are canonical
// witnesses (compute_parents / refresh_parents), so the next repair can
// trust them.
//
// Observability (when config.registry is set): counters
// "dynamic/mutations_consumed", "dynamic/repairs",
// "dynamic/recomputes", "dynamic/refresh_skipped",
// "dynamic/repair_updates", "dynamic/recompute_updates",
// "dynamic/seeds_injected", plus series "dynamic/subtree_size" and
// "dynamic/parents_refreshed" keyed by epoch (the x axis is the epoch
// number, not simulated time — refreshes happen between machine runs).

#include <cstdint>
#include <vector>

#include "src/core/config.hpp"
#include "src/dynamic/dynamic_graph.hpp"
#include "src/dynamic/repair.hpp"
#include "src/graph/types.hpp"
#include "src/obs/registry.hpp"
#include "src/runtime/topology.hpp"

namespace acic::dynamic {

struct IncrementalConfig {
  /// Per-solve engine configuration (thresholds, tram, costs).
  core::AcicConfig engine;
  /// Simulated machine shape for every solve (fresh machine per solve,
  /// so simulated time restarts at zero each epoch).
  runtime::Topology topology = runtime::Topology::tiny(4);
  /// Host threads for Machine::run (Machine::set_threads).
  unsigned threads = 1;
  /// Fall back to a cold from-scratch solve when the affected set
  /// exceeds this fraction of the vertices.  1.0 forces repair always,
  /// 0.0 forces recompute always (the bench's recompute arm).
  double recompute_fraction = 0.25;
  /// Optional registry for the dynamic/* counters, published between
  /// solves (the per-solve machines run unobserved).  Must outlive the
  /// solver.
  obs::Registry* registry = nullptr;
};

/// Outcome of one refresh() call.
struct RefreshStats {
  std::uint64_t from_epoch = 0;
  std::uint64_t to_epoch = 0;
  /// The span touched no tree edge and improved nothing: distances were
  /// already exact for to_epoch, no engine ran.
  bool skipped = false;
  /// Affected set exceeded recompute_fraction: cold solve instead of
  /// repair (stats below then describe the cold solve).
  bool recomputed = false;
  std::size_t mutations_consumed = 0;
  std::size_t affected = 0;        // invalidated vertices
  std::size_t seeds = 0;           // injected warm-start updates
  std::size_t parents_refreshed = 0;
  /// Engine work: updates created during the solve (the paper's primary
  /// work metric; 0 when skipped).
  std::uint64_t updates_created = 0;
  std::uint64_t reduction_cycles = 0;
};

class IncrementalSssp {
 public:
  /// Performs the initial cold solve at the graph's current epoch.
  /// `graph` and `config.registry` must outlive the solver.
  IncrementalSssp(const DynamicGraph& graph, graph::VertexId source,
                  IncrementalConfig config = {});

  IncrementalSssp(const IncrementalSssp&) = delete;
  IncrementalSssp& operator=(const IncrementalSssp&) = delete;

  /// The maintained state; exact for state().epoch.
  const SsspState& state() const { return state_; }
  graph::VertexId source() const { return state_.source; }
  std::uint64_t epoch() const { return state_.epoch; }

  /// Advances the state to the graph's current epoch (no-op stats when
  /// already current).  Call after every DynamicGraph::apply, or less
  /// often — multi-epoch spans collapse correctly.
  RefreshStats refresh();

  /// Lifetime totals across all solves (cold + repairs), for the bench's
  /// repair-vs-recompute comparison.
  std::uint64_t total_updates_created() const { return total_updates_; }
  std::uint64_t repair_count() const { return repairs_; }
  std::uint64_t recompute_count() const { return recomputes_; }

 private:
  /// Runs one engine solve on a fresh machine; warm iff plan != nullptr.
  void solve(const GraphSnapshot& snap, const RepairPlan* plan,
             RefreshStats* stats);

  const DynamicGraph& graph_;
  IncrementalConfig config_;
  SsspState state_;

  std::uint64_t total_updates_ = 0;
  std::uint64_t repairs_ = 0;
  std::uint64_t recomputes_ = 0;

  // Registry handles; valid iff config_.registry != nullptr.
  obs::CounterId obs_mutations_;
  obs::CounterId obs_repairs_;
  obs::CounterId obs_recomputes_;
  obs::CounterId obs_skipped_;
  obs::CounterId obs_repair_updates_;
  obs::CounterId obs_recompute_updates_;
  obs::CounterId obs_seeds_;
  obs::SeriesId obs_subtree_size_;
  obs::SeriesId obs_parents_refreshed_;
};

}  // namespace acic::dynamic
