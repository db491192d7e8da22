#pragma once
// The update-distance histogram at the heart of ACIC's introspection
// (paper §II.B).
//
// Each PE keeps a local histogram of *active* updates (created but not
// yet processed) bucketed by distance value.  The PE that creates an
// update increments its local bucket; the PE that finishes processing it
// decrements its own local bucket — so an individual PE's counts can go
// negative, and only the all-PE sum (produced by the continuous
// reduction) is meaningful.  The paper's bucket rule is
//     bucket(d) = d / log(|V|),
// i.e. equal-width buckets of width log(|V|); the final bucket absorbs
// all larger distances.  The paper's runs use 512 buckets (fig. 1).

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/graph/types.hpp"
#include "src/util/assert.hpp"

namespace acic::core {

class UpdateHistogram {
 public:
  /// `bucket_width` of 0 selects the paper's rule log2(|V|).
  UpdateHistogram(std::size_t num_buckets, double bucket_width,
                  graph::VertexId num_vertices)
      : width_(bucket_width > 0.0
                   ? bucket_width
                   : default_width(num_vertices)),
        limit_(static_cast<double>(num_buckets)),
        counts_(num_buckets, 0) {
    ACIC_ASSERT(num_buckets > 0);
    ACIC_ASSERT(width_ > 0.0);
  }

  static double default_width(graph::VertexId num_vertices) {
    // log(|V|); guard tiny graphs where log2 would be <= 0.
    return std::max(1.0, std::log2(static_cast<double>(num_vertices)));
  }

  std::size_t num_buckets() const { return counts_.size(); }
  double bucket_width() const { return width_; }

  /// Bucket index of distance d; the last bucket absorbs overflow.
  /// Comparing the quotient against the bucket count before converting
  /// gives the same index as clamping the converted quotient (for q >= 0
  /// and an integer count, trunc(q) < count exactly when q < count),
  /// and needs no unsigned conversion of quotients up to 2^64.
  std::size_t bucket_of(graph::Dist d) const {
    ACIC_HOT_ASSERT(d >= 0.0);
    const double q = d / width_;
    return q < limit_ ? static_cast<std::size_t>(static_cast<std::int64_t>(q))
                      : counts_.size() - 1;
  }

  void increment(std::size_t bucket) {
    ACIC_HOT_ASSERT(bucket < counts_.size());
    ++counts_[bucket];
  }
  void decrement(std::size_t bucket) {
    ACIC_HOT_ASSERT(bucket < counts_.size());
    --counts_[bucket];
  }

  const std::vector<std::int64_t>& counts() const { return counts_; }

  /// Appends the counts up to the highest non-zero bucket onto a
  /// reduction payload (the buckets above it are zero).
  void append_to(std::vector<double>* payload) const {
    std::size_t end = counts_.size();
    while (end > 0 && counts_[end - 1] == 0) --end;
    for (std::size_t b = 0; b < end; ++b) {
      payload->push_back(static_cast<double>(counts_[b]));
    }
  }

 private:
  double width_;
  double limit_;  // num_buckets as a double
  std::vector<std::int64_t> counts_;
};

}  // namespace acic::core
