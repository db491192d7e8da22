#pragma once
// Tunable parameters of the ACIC algorithm (paper §III) plus the ablation
// switches used by the bench/ablation_* harnesses.

#include <cstdint>

#include "src/core/thresholds.hpp"
#include "src/sssp/cost_model.hpp"
#include "src/tram/tram.hpp"

namespace acic::core {

struct AcicConfig {
  /// Tram threshold percentile p_tram in (0, 1]; the paper's sweep finds
  /// 0.999 optimal (send everything through tramlib immediately).
  double p_tram = 0.999;
  /// PQ threshold percentile p_pq in (0, 1]; the paper finds 0.05 optimal
  /// (only the lowest-distance 5% of updates enter pq immediately).
  double p_pq = 0.05;
  /// The 100·|PE| low-activity rule multiplier.
  std::uint64_t low_activity_factor = 100;

  /// Threshold function: the paper's two-tier Algorithm 1 by default, or
  /// the future-work shape-aware work-window function (§V).
  ThresholdPolicyKind threshold_policy = ThresholdPolicyKind::kTwoTier;
  WorkWindowPolicy work_window;

  /// Histogram geometry: the paper uses 512 buckets of width log(|V|)
  /// (bucket_width of 0 selects that rule).
  std::size_t num_buckets = 512;
  double bucket_width = 0.0;

  /// Message aggregation (paper finds WP best for SSSP; buffer size is
  /// swept in fig. 6).
  tram::TramConfig tram;

  /// Delay between a PE receiving a broadcast and contributing to the
  /// next reduction cycle; bounds the introspection rate.  The reductions
  /// overlap with update processing (that is the point of ACIC), so a
  /// short interval costs little — fig. 3 quantifies exactly how little.
  runtime::SimTime reduction_interval_us = 10.0;

  /// Updates popped from pq per idle invocation; small batches keep the
  /// PE responsive to arriving messages and broadcasts.
  std::size_t pq_drain_batch = 32;

  sssp::CostModel costs;

  // ---- ablation switches (all true reproduces the paper's ACIC) ----
  /// Min-priority queue of improving updates (off = expand immediately on
  /// acceptance, like the baseline asynchronous algorithm of §II.A).
  bool use_pq = true;
  /// Sender-side hold gated by t_tram (off = every update goes straight
  /// to tramlib, equivalent to forcing p_tram = 1).
  bool use_tram_hold = true;
  /// Receiver-side hold gated by t_pq (off = forcing p_pq = 1).
  bool use_pq_hold = true;

  /// Record the root's global histogram every cycle (fig. 1 support;
  /// costs memory, off by default).
  bool record_histograms = false;

  /// In-process work stealing (future work, §V): when the owner expands
  /// a vertex whose out-degree reaches this threshold, the edge range is
  /// split into chunks pushed onto a *shared per-process work queue*
  /// ("Charm++ supports work-stealing queues shared by PEs on the same
  /// process"); idle PEs of the process pull chunks and relax them
  /// against the shared-memory CSR, routing the resulting updates
  /// themselves.  0 disables stealing.  Each chunk is accounted as one
  /// extra update (created at the owner, processed by whoever relaxes
  /// it) so quiescence detection still sees in-flight chunks.
  std::uint32_t steal_threshold_degree = 0;
  /// Edges per stolen chunk.
  std::uint32_t steal_chunk_edges = 64;
  /// CPU cost of one shared-queue push/pop (atomic operations).
  runtime::SimTime steal_queue_op_us = 0.02;

  /// Static 1.5-D-style hub splitting (future work §V, after Cao et
  /// al.): expansions of vertices with out-degree >= this threshold are
  /// split into chunks scattered round-robin across *all* worker PEs
  /// (not just the owner's process), statically spreading a hub's edge
  /// work over the whole machine the way a 1.5-D edge partition would.
  /// 0 disables.  Each chunk is accounted like a work-stealing chunk so
  /// quiescence sees it in flight.  Composes with steal_threshold_degree
  /// (hub split wins for vertices above this threshold).
  std::uint32_t hub_split_degree = 0;

  AcicConfig() {
    tram.item_bytes = 16;  // one Update on the wire
  }
};

}  // namespace acic::core
