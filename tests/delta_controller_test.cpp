// Unit tests for the Δ-stepping schedule controller (light/heavy phase
// sequencing, bucket advance, the hybrid Bellman-Ford local-maximum
// heuristic, and termination).

#include <gtest/gtest.h>

#include "src/baselines/delta_stepping.hpp"

namespace {

using acic::baselines::DeltaCmd;
using acic::baselines::DeltaController;

DeltaController::Summary summary(double bucket_count, double min_next,
                                 bool has_next, double settled,
                                 double dirty = 0.0) {
  DeltaController::Summary s;
  s.bucket_count = bucket_count;
  s.min_next_bucket = min_next;
  s.has_next_bucket = has_next;
  s.newly_settled = settled;
  s.dirty_count = dirty;
  return s;
}

TEST(DeltaController, RepeatsLightWhileBucketNonEmpty) {
  DeltaController controller(false);
  const auto decision = controller.decide(summary(5, 0, true, 10));
  EXPECT_EQ(decision.cmd, DeltaCmd::kLight);
  EXPECT_EQ(decision.bucket, 0u);
}

TEST(DeltaController, MovesToHeavyWhenBucketEmpties) {
  DeltaController controller(false);
  const auto decision = controller.decide(summary(0, 3, true, 10));
  EXPECT_EQ(decision.cmd, DeltaCmd::kHeavy);
}

TEST(DeltaController, AdvancesToGlobalMinBucketAfterHeavy) {
  DeltaController controller(false);
  controller.decide(summary(0, 3, true, 10));           // -> heavy
  const auto decision = controller.decide(summary(0, 3, true, 0));
  EXPECT_EQ(decision.cmd, DeltaCmd::kLight);
  EXPECT_EQ(decision.bucket, 3u);
  EXPECT_EQ(controller.buckets_processed(), 1u);
}

TEST(DeltaController, TerminatesWhenNoBucketRemains) {
  DeltaController controller(false);
  controller.decide(summary(0, 0, false, 5));  // heavy of bucket 0
  const auto decision = controller.decide(summary(0, 0, false, 0));
  EXPECT_EQ(decision.cmd, DeltaCmd::kDone);
}

TEST(DeltaController, NonHybridNeverSwitches) {
  DeltaController controller(false);
  // Declining settled counts over several buckets.
  double settled = 100.0;
  for (int b = 0; b < 5; ++b) {
    controller.decide(summary(0, b + 1, true, settled));  // heavy
    const auto next = controller.decide(summary(0, b + 1, true, 0));
    EXPECT_EQ(next.cmd, DeltaCmd::kLight);
    settled /= 2;
  }
  EXPECT_FALSE(controller.switched_to_bf());
}

TEST(DeltaController, HybridSwitchesAfterLocalMaximum) {
  DeltaController controller(true);
  // Bucket 0 settles 10 (rising), bucket 1 settles 100 (peak),
  // bucket 2 settles 20 (past the peak) -> switch during bucket 2's
  // heavy step.
  controller.decide(summary(0, 1, true, 10));   // heavy b0
  controller.decide(summary(0, 1, true, 0));    // light b1
  controller.decide(summary(0, 2, true, 100));  // heavy b1
  controller.decide(summary(0, 2, true, 0));    // light b2
  controller.decide(summary(0, 3, true, 20));   // heavy b2
  const auto decision = controller.decide(summary(0, 3, true, 0));
  EXPECT_EQ(decision.cmd, DeltaCmd::kBellman);
  EXPECT_TRUE(controller.switched_to_bf());
}

TEST(DeltaController, BellmanRepeatsWhileDirty) {
  DeltaController controller(true);
  controller.decide(summary(0, 1, true, 10));
  controller.decide(summary(0, 1, true, 0));
  controller.decide(summary(0, 2, true, 100));
  controller.decide(summary(0, 2, true, 0));
  controller.decide(summary(0, 3, true, 20));
  ASSERT_EQ(controller.decide(summary(0, 3, true, 0)).cmd,
            DeltaCmd::kBellman);
  EXPECT_EQ(controller.decide(summary(0, 0, false, 0, 50)).cmd,
            DeltaCmd::kBellman);
  EXPECT_EQ(controller.decide(summary(0, 0, false, 0, 0)).cmd,
            DeltaCmd::kDone);
}

TEST(DeltaController, RisingSettledCountsDoNotSwitch) {
  DeltaController controller(true);
  controller.decide(summary(0, 1, true, 10));
  EXPECT_EQ(controller.decide(summary(0, 1, true, 0)).cmd,
            DeltaCmd::kLight);
  controller.decide(summary(0, 2, true, 50));
  EXPECT_EQ(controller.decide(summary(0, 2, true, 0)).cmd,
            DeltaCmd::kLight);
  controller.decide(summary(0, 3, true, 200));
  EXPECT_EQ(controller.decide(summary(0, 3, true, 0)).cmd,
            DeltaCmd::kLight);
  EXPECT_FALSE(controller.switched_to_bf());
}

TEST(DeltaController, SettledAccumulatesAcrossLightSubphases) {
  // Multiple light subphases of one bucket each report settles; the
  // hybrid comparison must use the bucket total.
  DeltaController controller(true);
  controller.decide(summary(3, 1, true, 10));   // light again
  controller.decide(summary(2, 1, true, 10));   // light again
  controller.decide(summary(0, 1, true, 10));   // -> heavy (total 30)
  controller.decide(summary(0, 1, true, 0));    // light b1
  controller.decide(summary(0, 2, true, 5));    // heavy b1: 5 < 30
  const auto decision = controller.decide(summary(0, 2, true, 0));
  EXPECT_EQ(decision.cmd, DeltaCmd::kBellman);
}

}  // namespace
