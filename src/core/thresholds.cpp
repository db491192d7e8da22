#include "src/core/thresholds.hpp"

namespace acic::core {

std::size_t bucket_at_fraction(const std::vector<double>& histogram,
                               double fraction, double total) {
  ACIC_ASSERT(!histogram.empty());
  ACIC_ASSERT(fraction > 0.0 && fraction <= 1.0);
  if (total <= 0.0) return histogram.size() - 1;
  const double goal = fraction * total;
  double cumulative = 0.0;
  for (std::size_t b = 0; b < histogram.size(); ++b) {
    cumulative += histogram[b];
    if (cumulative >= goal) return b;
  }
  return histogram.size() - 1;
}

/// The "low activity" cutoff: at most this many active updates per PE
/// open both thresholds (the paper's 100·|PE| rule).
constexpr std::uint64_t kLowActivityFactor = 100;

Thresholds compute_thresholds(const std::vector<double>& global_histogram,
                              std::uint32_t num_pes,
                              const ThresholdPolicy& policy) {
  double total = 0.0;
  for (const double c : global_histogram) total += c;

  const double low_cutoff = static_cast<double>(kLowActivityFactor) * num_pes;
  Thresholds t;
  if (total <= low_cutoff) {
    // Low parallelism: open both thresholds fully so every held update
    // flows (this is also what drives the tail of the computation to
    // completion).
    t.t_tram = global_histogram.size() - 1;
    t.t_pq = global_histogram.size() - 1;
  } else {
    t.t_tram = bucket_at_fraction(global_histogram, policy.p_tram, total);
    t.t_pq = bucket_at_fraction(global_histogram, policy.p_pq, total);
  }
  return t;
}

namespace {

/// Smallest bucket index whose cumulative count reaches `target`; the
/// top bucket when the whole histogram is smaller than the target.
std::size_t bucket_at_count(const std::vector<double>& histogram,
                            double target) {
  double cumulative = 0.0;
  for (std::size_t b = 0; b < histogram.size(); ++b) {
    cumulative += histogram[b];
    if (cumulative >= target) return b;
  }
  return histogram.size() - 1;
}

}  // namespace

Thresholds compute_thresholds_work_window(
    const std::vector<double>& global_histogram, std::uint32_t num_pes,
    const WorkWindowPolicy& policy) {
  ACIC_ASSERT(!global_histogram.empty());
  Thresholds t;
  t.t_pq = bucket_at_count(
      global_histogram,
      static_cast<double>(policy.pq_window_per_pe) * num_pes);
  t.t_tram = bucket_at_count(
      global_histogram,
      static_cast<double>(policy.tram_window_per_pe) * num_pes);
  return t;
}

}  // namespace acic::core
