#pragma once
// ACIC — Asynchronous Continuous Introspection and Control (the paper's
// core contribution).
//
// A fully asynchronous, label-correcting SSSP driven by updates
// u = (v, d), modulated by a continuous cycle of histogram reductions and
// threshold broadcasts:
//
//   creation ──► within t_tram? ──► tramlib ──► arrival at owner PE
//        │             │no                           │
//        │         tram_hold ◄─ released by bcast    ├─ worse? rejected
//        │                                           └─ better: store d,
//        │                                              within t_pq? → pq
//        │                                              else pq_hold
//        └── histogram bucket incremented
//   PE idle ──► pop pq in increasing d ──► still current (dist==d)?
//                                           └─ yes: expand out-edges
//                                              (create onward updates)
//
// Termination: created/processed counters ride the histogram reduction;
// the root terminates after two consecutive cycles with equal, unchanged
// counters (paper §II.D).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/config.hpp"
#include "src/graph/csr.hpp"
#include "src/graph/partition.hpp"
#include "src/runtime/machine.hpp"
#include "src/sssp/result.hpp"
#include "src/sssp/update.hpp"

namespace acic::core {

/// Global histogram observed at the root after one reduction cycle
/// (recorded when AcicConfig::record_histograms is set; fig. 1 material).
struct HistogramSnapshot {
  std::uint64_t cycle = 0;
  runtime::SimTime time_us = 0.0;
  std::vector<double> counts;
  double active_updates = 0.0;
  std::size_t t_tram = 0;
  std::size_t t_pq = 0;
};

/// Counts of updates passing through each stage of the fig. 2 lifecycle
/// diagram (create → tram/tram_hold → arrival → pq/pq_hold → expand or
/// reject).
struct LifecycleCounts {
  std::uint64_t created = 0;
  std::uint64_t sent_directly = 0;    // within t_tram at creation
  std::uint64_t held_in_tram = 0;     // waited in tram_hold
  std::uint64_t rejected_on_arrival = 0;
  std::uint64_t entered_pq_directly = 0;  // within t_pq on acceptance
  std::uint64_t held_in_pq_hold = 0;
  std::uint64_t superseded_in_pq = 0;  // popped stale (wasted)
  std::uint64_t expanded = 0;          // generated onward updates
};

struct AcicRunResult {
  sssp::SsspResult sssp;
  std::uint64_t reduction_cycles = 0;
  bool hit_time_limit = false;
  LifecycleCounts lifecycle;
  std::vector<HistogramSnapshot> histograms;
  /// Per-worker busy time, for load-imbalance analysis.
  std::vector<runtime::SimTime> pe_busy_us;
  /// Batched multi-source runs only (AcicEngineOptions::sources): one
  /// full distance vector per lane, lane_dist[i][v] == d(sources[i], v).
  /// Empty for classic single-source runs (use sssp.dist).
  std::vector<std::vector<graph::Dist>> lane_dist;
};

/// Options controlling how an engine instance attaches to the machine
/// (defaults reproduce the classic standalone acic_sssp run).
struct AcicEngineOptions {
  /// Simulated time at which the source update is injected and the
  /// reduction cycle starts.  0 for a standalone run; the admission time
  /// when a query joins an already-running machine (src/server/).
  runtime::SimTime start_time_us = 0.0;
  /// Invoked exactly once — from inside a machine task on the last PE to
  /// observe the termination broadcast — when the query has fully
  /// quiesced.  The engine must NOT be destroyed from inside the
  /// callback (engine code is still on the stack); schedule a separate
  /// task for retirement, as QueryService does.
  std::function<void(runtime::Pe&)> on_complete;

  /// Warm start — the incremental-repair mode (src/dynamic/).  When
  /// `warm_dist` is set (size |V|), every PE initializes its owned
  /// distance slice from it instead of all-infinity, and the engine
  /// injects `seeds` at start_time_us *instead of* the single
  /// (source, 0) update.  Each seed (v, d) is created on v's owner in
  /// vector order (sort by (vertex, dist) for a canonical schedule), and
  /// is rejected on arrival exactly like any other update if d does not
  /// improve warm_dist[v] — so redundant seeds cost one message, never
  /// correctness.  An empty seed list quiesces after two reduction
  /// cycles (0 created == 0 processed observed twice).  The repair
  /// layer's contract: warm distances must be achievable path lengths in
  /// the *current* graph (invalidated subtrees reset to +inf), and seeds
  /// must cover every boundary edge into an invalidated region plus
  /// every inserted/decreased edge that improves its head — then the
  /// label-correcting fixed point equals the from-scratch distances,
  /// which tests/dynamic_test.cpp asserts elementwise.  `warm_dist` must
  /// outlive the constructor call only (the engine copies its slices).
  const std::vector<graph::Dist>* warm_dist = nullptr;
  std::vector<sssp::Update> seeds;

  /// Batched multi-source mode (src/server/ query batching).  When
  /// non-empty, the engine runs one shared label-correcting pass over
  /// `sources.size()` independent *distance lanes*: every update carries
  /// an 8-bit lane tag packed into its bucket word (so the wire format
  /// stays 16 bytes), each PE keeps lanes × |owned| distance slots, and
  /// lane i's fixed point equals a solo run from sources[i] exactly —
  /// the lanes share the tram, the histogram/threshold cycle and the
  /// quiescence counters, which is where the batching amortization comes
  /// from, but never read each other's distances.  Constraints:
  /// sources[0] must equal the constructor's `source`, at most 256 lanes
  /// (tag width), and incompatible with `warm_dist` (warm repair is a
  /// per-query affair).  Results come back in AcicRunResult::lane_dist.
  std::vector<graph::VertexId> sources;
};

/// One ACIC SSSP query attached to a Machine.  Engines are per-query
/// objects: several can coexist on one machine (each owns its own
/// tramlib instance, reduction tree and priority queues, so their
/// traffic is naturally namespaced by the closures it travels in), and
/// each registers its idle-time pq drain via Machine::add_idle_handler
/// so concurrent queries share idle dispatch instead of clobbering it.
///
/// Observability: when the machine has a registry attached at
/// construction, the engine streams its introspection state per
/// reduction cycle — chosen thresholds ("acic/t_tram", "acic/t_pq"), the
/// global active count ("acic/active_updates"), the full update-distance
/// histogram ("acic/update_histogram"), and hold/release counters — and
/// its tram publishes "tram/*".  Publishing never charges simulated CPU.
///
/// Destruction contract: destroy only after complete() — at termination
/// the created == processed quiescence guarantees no in-flight update
/// messages reference the engine — and never from a task the engine
/// itself issued (its frames are below you on the stack).
class AcicEngine {
 public:
  AcicEngine(runtime::Machine& machine, const graph::Csr& csr,
             const graph::Partition1D& partition, graph::VertexId source,
             const AcicConfig& config, AcicEngineOptions options = {});
  ~AcicEngine();

  AcicEngine(const AcicEngine&) = delete;
  AcicEngine& operator=(const AcicEngine&) = delete;

  /// True once every PE has observed the termination broadcast.
  bool complete() const;
  graph::VertexId source() const;

  /// Distances, lifecycle counters, reduction cycles and histogram
  /// snapshots.  Machine-level fields (network totals, sim time, per-PE
  /// busy time) are left zero: they are per-machine, not per-query —
  /// acic_sssp fills them from RunStats for standalone runs.
  AcicRunResult collect() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// Runs ACIC SSSP on `machine` (freshly constructed; one run per machine
/// so simulated time starts at zero).  `partition` must have exactly
/// machine.num_pes() parts covering csr's vertices.
AcicRunResult acic_sssp(runtime::Machine& machine, const graph::Csr& csr,
                        const graph::Partition1D& partition,
                        graph::VertexId source, const AcicConfig& config,
                        runtime::SimTime time_limit_us =
                            runtime::kNoTimeLimit);

}  // namespace acic::core
