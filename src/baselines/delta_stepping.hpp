#pragma once
// Distributed bulk-synchronous Δ-stepping over the discrete-event
// runtime.  It models the RIKEN Graph500-SSSP code the paper compares
// against: Δ-stepping with light/heavy edge phases, plus the
// Chakaravarthy et al. hybrid heuristic that switches to Bellman-Ford
// sweeps once the number of newly settled vertices per bucket passes its
// maximum (fast processing of the graph's low-concurrency "tail").
//
// The schedule mirrors Meyer & Sanders' algorithm: for each distance
// bucket of width Δ, light edges (w <= Δ) are relaxed repeatedly until no
// vertex re-enters the bucket, then heavy edges of every vertex settled
// in the bucket are relaxed once; then the globally smallest non-empty
// bucket becomes current.  Every phase ends with a *drained barrier*
// (runtime::Superstep): an allreduce loop that repeats until the
// cumulative sent/received counters are equal and stable, which is the
// distributed analogue of the shared-memory phase boundary and is exactly
// where the paper locates Δ-stepping's multi-node synchronization cost.
//
// One engine serves two partitions.  Each vertex has one owner PE, which
// keeps its distance and bucket entries, selects each phase's frontier
// and applies candidate distances.  Only the relaxation of a frontier
// differs:
//   - 1-D block vertex partition (delta_stepping_dist): the owner holds
//     the frontier's out-edges and sends one candidate per edge through
//     the aggregation tram.
//   - 2-D grid edge partition (delta_stepping_2d), the closest structural
//     analogue of the RIKEN baseline: the owner cell broadcasts the
//     frontier down its processor *column* (the cells that store those
//     vertices' out-edges); each cell relaxes it against its edge block,
//     min-combines candidates per destination vertex and sends one
//     combined message per destination owner along its *row*.

#include <cstdint>
#include <vector>

#include "src/graph/csr.hpp"
#include "src/graph/partition.hpp"
#include "src/graph/partition2d.hpp"
#include "src/runtime/machine.hpp"
#include "src/sssp/result.hpp"
#include "src/tram/tram.hpp"

namespace acic::baselines {

struct DeltaConfig {
  /// Bucket width; 0 selects the max_weight / avg_degree heuristic.
  double delta = 0.0;
  /// Switch to Bellman-Ford sweeps after the per-bucket settled count
  /// passes its peak (the RIKEN/Chakaravarthy tail optimization).
  bool hybrid_bellman_ford = true;
  /// Message aggregation for relaxation traffic (1-D only).
  tram::TramConfig tram;
};

struct DeltaRunResult {
  sssp::SsspResult sssp;
  std::uint64_t buckets_processed = 0;
  std::uint64_t light_phases = 0;
  std::uint64_t heavy_phases = 0;
  std::uint64_t bf_sweeps = 0;
  std::uint64_t barrier_rounds = 0;
  bool switched_to_bf = false;
  bool hit_time_limit = false;
  std::vector<runtime::SimTime> pe_busy_us;
};

/// Commands the root broadcasts to drive the bulk-synchronous schedule.
enum class DeltaCmd : int {
  kLight = 0,    // light-edge subphase of the current bucket
  kHeavy = 1,    // heavy-edge phase of the current bucket
  kBellman = 2,  // Bellman-Ford sweep over dirty vertices (hybrid tail)
  kDone = 3,     // terminate
};

/// Root-side controller encapsulating the Δ-stepping schedule decisions.
/// The engine feeds it one drained barrier summary per superstep and
/// broadcasts the command it returns.
class DeltaController {
 public:
  explicit DeltaController(bool hybrid) : hybrid_(hybrid) {}

  struct Summary {
    double bucket_count = 0.0;        // vertices still in current bucket
    double min_next_bucket = 0.0;     // global min nonempty bucket index
    bool has_next_bucket = false;
    double newly_settled = 0.0;       // settled during the last phase
    double dirty_count = 0.0;         // pending Bellman-Ford work
  };

  struct Decision {
    DeltaCmd cmd = DeltaCmd::kDone;
    std::uint64_t bucket = 0;
  };

  Decision decide(const Summary& summary);

  bool switched_to_bf() const { return switched_to_bf_; }
  std::uint64_t buckets_processed() const { return buckets_processed_; }

 private:
  enum class Mode { kLight, kHeavy, kBellman };

  bool hybrid_;
  Mode mode_ = Mode::kLight;
  std::uint64_t current_bucket_ = 0;
  double settled_this_bucket_ = 0.0;
  double max_settled_per_bucket_ = 0.0;
  std::uint64_t buckets_processed_ = 0;
  bool switched_to_bf_ = false;
};

/// Δ-stepping with a 1-D block vertex partition.  Reports each relaxed
/// edge as a created update and each delivered one as processed.
DeltaRunResult delta_stepping_dist(
    runtime::Machine& machine, const graph::Csr& csr,
    const graph::Partition1D& partition, graph::VertexId source,
    const DeltaConfig& config,
    runtime::SimTime time_limit_us = runtime::kNoTimeLimit);

/// Δ-stepping with a 2-D grid edge partition; the grid must have one cell
/// per worker PE.  Reports each relaxed edge as a created update, and
/// each applied candidate or candidate dropped by a cell's min-combine as
/// processed.
DeltaRunResult delta_stepping_2d(
    runtime::Machine& machine, const graph::Csr& csr,
    const graph::Partition2D& partition, graph::VertexId source,
    const DeltaConfig& config,
    runtime::SimTime time_limit_us = runtime::kNoTimeLimit);

}  // namespace acic::baselines
