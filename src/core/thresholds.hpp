#pragma once
// Threshold selection — Algorithm 1 of the paper, run at the root PE on
// the globally-summed histogram after every reduction.
//
// Two thresholds are produced, each a histogram bucket index:
//   * t_tram — updates in buckets <= t_tram may be handed to tramlib for
//     sending; higher-distance updates wait in the sender-side tram_hold.
//   * t_pq   — accepted updates in buckets <= t_pq enter the receiver's
//     priority queue immediately; the rest wait in pq_hold.
// When few updates are active (the paper's 100·|PE| rule) parallelism is
// scarce, so both thresholds open fully (the top bucket) and everything
// flows.  Otherwise each threshold is the bucket at which a user-supplied
// fraction (p_tram / p_pq) of the active-update mass is covered, walking
// from the lowest bucket.

#include <cstdint>
#include <vector>

#include "src/util/assert.hpp"

namespace acic::core {

struct Thresholds {
  std::size_t t_tram = 0;
  std::size_t t_pq = 0;
};

/// The `bucket(p)` walk of Algorithm 1: smallest bucket index at which
/// the cumulative count reaches `fraction` of `total`.  `fraction` is in
/// (0, 1]; a histogram whose mass is entirely in one bucket returns that
/// bucket.  `total` must be the sum of `histogram`.
std::size_t bucket_at_fraction(const std::vector<double>& histogram,
                               double fraction, double total);

struct ThresholdPolicy {
  double p_tram = 0.999;
  double p_pq = 0.05;
};

/// Computes both thresholds from the global histogram (Algorithm 1,
/// lines 7–17).
Thresholds compute_thresholds(const std::vector<double>& global_histogram,
                              std::uint32_t num_pes,
                              const ThresholdPolicy& policy);

/// The future-work threshold function (§V): instead of Algorithm 1's
/// two-tier percentile rule, derive each threshold from a *work window*
/// — the smallest bucket prefix holding enough updates to keep every PE
/// busy (window_per_pe updates each).  This uses both the count and the
/// shape of the histogram: concentrated-low distributions get tight
/// thresholds, flat ones open wider, and low activity degenerates to the
/// top bucket without a separate special case.
struct WorkWindowPolicy {
  /// Updates per PE the pq prefix should cover (≈ a few drain batches).
  std::uint64_t pq_window_per_pe = 128;
  /// Updates per PE allowed into the send path; larger than the pq
  /// window so the network pipeline stays fed.
  std::uint64_t tram_window_per_pe = 1024;
};

Thresholds compute_thresholds_work_window(
    const std::vector<double>& global_histogram, std::uint32_t num_pes,
    const WorkWindowPolicy& policy);

/// Which threshold function ACIC uses each reduction cycle.
enum class ThresholdPolicyKind {
  kTwoTier,     // the paper's Algorithm 1
  kWorkWindow,  // the future-work shape-aware function above
};

}  // namespace acic::core
