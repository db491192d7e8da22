#pragma once
// Shared configuration and bookkeeping for the distributed Δ-stepping
// baselines (1-D and 2-D).  These model the RIKEN Graph500-SSSP code the
// paper compares against: bulk-synchronous Δ-stepping with light/heavy
// edge phases, plus the Chakaravarthy et al. hybrid heuristic that
// switches to Bellman-Ford sweeps once the number of newly settled
// vertices per epoch passes its maximum (fast processing of the graph's
// low-concurrency "tail").

#include <cstdint>
#include <vector>

#include "src/runtime/network.hpp"
#include "src/sssp/cost_model.hpp"
#include "src/sssp/result.hpp"
#include "src/tram/tram.hpp"

namespace acic::baselines {

struct DeltaConfig {
  /// Bucket width; 0 selects the max_weight / avg_degree heuristic.
  double delta = 0.0;
  /// Switch to Bellman-Ford sweeps after the per-epoch settled count
  /// passes its peak (the RIKEN/Chakaravarthy tail optimization).
  bool hybrid_bellman_ford = true;
  /// Message aggregation for relaxation traffic.
  tram::TramConfig tram;
  sssp::CostModel costs;
  /// Spacing between barrier re-contributions while draining in-flight
  /// messages (the BSP barrier needs the same two-stable-reductions drain
  /// rule ACIC's termination uses).
  runtime::SimTime barrier_interval_us = 10.0;
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
  kLight = 0,   // light-edge subphase of the current bucket
  kHeavy = 1,   // heavy-edge phase of the current bucket
  kBellman = 2, // Bellman-Ford sweep over dirty vertices (hybrid tail)
  kNoop = 3,    // barrier round only (drain in-flight messages)
  kDone = 4,    // terminate
};

/// Root-side controller encapsulating the Δ-stepping schedule decisions.
/// Both the 1-D and 2-D engines feed it one drained barrier summary per
/// superstep and broadcast the command it returns.
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

}  // namespace acic::baselines
