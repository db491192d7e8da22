// Unit tests for ACIC's building blocks: the update histogram, the
// Algorithm-1 threshold computation, and the bucketed hold structures.

#include <gtest/gtest.h>

#include "src/core/histogram.hpp"
#include "src/core/hold.hpp"
#include "src/core/thresholds.hpp"
#include "src/sssp/update.hpp"

namespace {

using acic::core::BucketedHold;
using acic::core::bucket_at_fraction;
using acic::core::compute_thresholds;
using acic::core::ThresholdPolicy;
using acic::core::Thresholds;
using acic::core::UpdateHistogram;
using acic::sssp::Update;

TEST(Histogram, PaperBucketRule) {
  // bucket(d) = d / log2(|V|): with |V| = 2^16, width = 16.
  UpdateHistogram histogram(512, 0.0, 1u << 16);
  EXPECT_DOUBLE_EQ(histogram.bucket_width(), 16.0);
  EXPECT_EQ(histogram.bucket_of(0.0), 0u);
  EXPECT_EQ(histogram.bucket_of(15.9), 0u);
  EXPECT_EQ(histogram.bucket_of(16.0), 1u);
  EXPECT_EQ(histogram.bucket_of(160.0), 10u);
}

TEST(Histogram, LastBucketAbsorbsOverflow) {
  UpdateHistogram histogram(8, 1.0, 16);
  EXPECT_EQ(histogram.bucket_of(7.5), 7u);
  EXPECT_EQ(histogram.bucket_of(1e12), 7u);
}

TEST(Histogram, TinyGraphWidthClampedToOne) {
  UpdateHistogram histogram(8, 0.0, 2);  // log2(2) = 1
  EXPECT_DOUBLE_EQ(histogram.bucket_width(), 1.0);
}

TEST(Histogram, IncrementDecrementCanGoNegative) {
  // A PE that processes updates created elsewhere decrements buckets it
  // never incremented — local counts may be negative by design (§II.B).
  UpdateHistogram histogram(4, 1.0, 4);
  histogram.decrement(2);
  histogram.decrement(2);
  histogram.increment(1);
  EXPECT_EQ(histogram.counts()[2], -2);
  EXPECT_EQ(histogram.counts()[1], 1);
}

TEST(Histogram, AppendToPayload) {
  UpdateHistogram histogram(3, 1.0, 4);
  histogram.increment(0);
  histogram.increment(2);
  histogram.increment(2);
  std::vector<double> payload{99.0};
  histogram.append_to(&payload);
  EXPECT_EQ(payload,
            (std::vector<double>{99.0, 1.0, 0.0, 2.0}));

  // The payload ends at the highest non-zero bucket, negative or not.
  UpdateHistogram tail(5, 1.0, 4);
  tail.increment(0);
  tail.decrement(2);
  payload.assign({99.0});
  tail.append_to(&payload);
  EXPECT_EQ(payload, (std::vector<double>{99.0, 1.0, 0.0, -1.0}));
  payload.clear();
  UpdateHistogram(5, 1.0, 4).append_to(&payload);
  EXPECT_TRUE(payload.empty());
}

TEST(Thresholds, BucketAtFractionWalksFromBottom) {
  const std::vector<double> histogram{10, 20, 30, 40};  // total 100
  EXPECT_EQ(bucket_at_fraction(histogram, 0.05, 100), 0u);
  EXPECT_EQ(bucket_at_fraction(histogram, 0.10, 100), 0u);
  EXPECT_EQ(bucket_at_fraction(histogram, 0.11, 100), 1u);
  EXPECT_EQ(bucket_at_fraction(histogram, 0.30, 100), 1u);
  EXPECT_EQ(bucket_at_fraction(histogram, 0.60, 100), 2u);
  EXPECT_EQ(bucket_at_fraction(histogram, 0.999, 100), 3u);
  EXPECT_EQ(bucket_at_fraction(histogram, 1.0, 100), 3u);
}

TEST(Thresholds, EmptyHistogramReturnsTop) {
  const std::vector<double> histogram(16, 0.0);
  EXPECT_EQ(bucket_at_fraction(histogram, 0.5, 0.0), 15u);
}

TEST(Thresholds, SkipsLeadingEmptyBuckets) {
  // Algorithm 1 starts from the smallest bucket with >= 1 update.
  std::vector<double> histogram(16, 0.0);
  histogram[7] = 100;
  EXPECT_EQ(bucket_at_fraction(histogram, 0.05, 100), 7u);
}

TEST(Thresholds, LowActivityOpensFully) {
  // <= 100 * |PE| active updates: both thresholds go to the top bucket.
  std::vector<double> histogram(16, 0.0);
  histogram[3] = 50;
  const ThresholdPolicy policy{0.5, 0.05, 100};
  const Thresholds t = compute_thresholds(histogram, 4, policy);
  EXPECT_EQ(t.t_tram, 15u);
  EXPECT_EQ(t.t_pq, 15u);
}

TEST(Thresholds, HighActivityUsesPercentiles) {
  std::vector<double> histogram(16, 0.0);
  histogram[2] = 500;
  histogram[5] = 400;
  histogram[9] = 100;
  const ThresholdPolicy policy{0.999, 0.05, 100};
  const Thresholds t = compute_thresholds(histogram, 4, policy);
  EXPECT_EQ(t.t_pq, 2u);    // 5% of 1000 = 50 <= 500 at bucket 2
  EXPECT_EQ(t.t_tram, 9u);  // 99.9% needs the last occupied bucket
}

TEST(Thresholds, BoundaryExactlyAtCutoff) {
  // total == 100 * |PE| counts as low activity (Algorithm 1 uses <=).
  std::vector<double> histogram(8, 0.0);
  histogram[1] = 400;
  const ThresholdPolicy policy{0.5, 0.5, 100};
  EXPECT_EQ(compute_thresholds(histogram, 4, policy).t_tram, 7u);
  histogram[1] = 401;
  EXPECT_EQ(compute_thresholds(histogram, 4, policy).t_tram, 1u);
}

TEST(Hold, ReleasesInIncreasingBucketOrder) {
  BucketedHold hold(8);
  hold.put(5, Update{50, 5.0});
  hold.put(1, Update{10, 1.0});
  hold.put(3, Update{30, 3.0});
  std::vector<Update> out;
  hold.release_up_to(7, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].vertex, 10u);
  EXPECT_EQ(out[1].vertex, 30u);
  EXPECT_EQ(out[2].vertex, 50u);
}

TEST(Hold, FifoWithinBucket) {
  BucketedHold hold(4);
  hold.put(2, Update{1, 2.0});
  hold.put(2, Update{2, 2.1});
  hold.put(2, Update{3, 2.2});
  std::vector<Update> out;
  hold.release_up_to(2, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].vertex, 1u);
  EXPECT_EQ(out[2].vertex, 3u);
}

TEST(Hold, ReleaseRespectsThreshold) {
  BucketedHold hold(8);
  hold.put(2, Update{2, 2.0});
  hold.put(6, Update{6, 6.0});
  std::vector<Update> out;
  hold.release_up_to(4, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vertex, 2u);
  EXPECT_EQ(hold.size(), 1u);
  EXPECT_EQ(hold.bucket_size(6), 1u);
  // Raising the threshold releases the rest.
  hold.release_up_to(7, &out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(hold.empty());
}

TEST(Hold, SizeTracksPutsAndReleases) {
  BucketedHold hold(4);
  EXPECT_TRUE(hold.empty());
  hold.put(0, Update{0, 0.0});
  hold.put(3, Update{3, 3.0});
  EXPECT_EQ(hold.size(), 2u);
  std::vector<Update> out;
  hold.release_up_to(0, &out);
  EXPECT_EQ(hold.size(), 1u);
}

TEST(Hold, ThresholdBeyondBucketsIsClamped) {
  BucketedHold hold(4);
  hold.put(3, Update{3, 3.0});
  std::vector<Update> out;
  hold.release_up_to(1000, &out);  // clamps to the last bucket
  EXPECT_EQ(out.size(), 1u);
}

TEST(UpdateOrder, MinHeapOrdering) {
  const acic::sssp::UpdateMinOrder order;
  // "greater" semantics for std::priority_queue min-heaps.
  EXPECT_TRUE(order(Update{0, 5.0}, Update{1, 3.0}));
  EXPECT_FALSE(order(Update{0, 3.0}, Update{1, 5.0}));
  // Distance ties break on vertex id for determinism.
  EXPECT_TRUE(order(Update{7, 3.0}, Update{2, 3.0}));
}

}  // namespace

namespace workwindow {

using acic::core::compute_thresholds_work_window;
using acic::core::WorkWindowPolicy;

TEST(WorkWindowThresholds, CoversPerPeWindow) {
  std::vector<double> histogram(16, 0.0);
  histogram[2] = 100;
  histogram[4] = 100;
  histogram[9] = 1000;
  WorkWindowPolicy policy;
  policy.pq_window_per_pe = 30;   // 4 PEs -> 120 updates
  policy.tram_window_per_pe = 60; // -> 240 updates
  const auto t = compute_thresholds_work_window(histogram, 4, policy);
  EXPECT_EQ(t.t_pq, 4u);    // 100 at b2 < 120, 200 at b4 >= 120
  EXPECT_EQ(t.t_tram, 9u);  // needs 240, reached only at b9
}

TEST(WorkWindowThresholds, LowActivityOpensNaturally) {
  std::vector<double> histogram(16, 0.0);
  histogram[1] = 10;  // far below any window
  const auto t =
      compute_thresholds_work_window(histogram, 4, WorkWindowPolicy{});
  EXPECT_EQ(t.t_pq, 15u);
  EXPECT_EQ(t.t_tram, 15u);
}

TEST(WorkWindowThresholds, ShapeAware) {
  // Same total mass, different shapes: concentrated-low yields a tighter
  // threshold than spread-out.
  WorkWindowPolicy policy;
  policy.pq_window_per_pe = 100;  // 1 PE -> 100
  std::vector<double> concentrated(16, 0.0);
  concentrated[0] = 1000;
  std::vector<double> spread(16, 62.5);
  const auto tc = compute_thresholds_work_window(concentrated, 1, policy);
  const auto ts = compute_thresholds_work_window(spread, 1, policy);
  EXPECT_LT(tc.t_pq, ts.t_pq);
}

}  // namespace workwindow
