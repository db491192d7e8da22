#pragma once
// Host-speed reference for the benchmark's timings.
//
// The 4-vCPU Xeon VM the bounds were fixed on shares its memory system
// with other tenants, and its speed drifts by up to 2x over minutes: a
// fixed 16 MiB pointer chase took 0.82 s to 2.13 s per repetition across
// one 2.5-minute window.  Medians of raw host seconds then spread by
// 20-25% between runs, far beyond any useful regression bound.
//
// So the benchmark also times a fixed kernel of its own, every quarter
// second: Dijkstra, written here with no library code, over a fixed
// synthetic graph that no --seed changes.  Each timing sample is scaled
// by kNominalS / (median of the last three kernel times), which turns
// host seconds into seconds on a host running the kernel in kNominalS.
// A change to the library cannot move the kernel, so it moves the scaled
// numbers exactly as it moves the raw ones.  Raw seconds are kept in the
// run's details file.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <random>
#include <utility>
#include <vector>

namespace bench {

class HostSpeed {
 public:
  /// Kernel time on the calm host the bounds were fixed on (a 4-vCPU
  /// Xeon VM; the value only sets the unit of the scaled seconds).
  static constexpr double kNominalS = 0.028;

  HostSpeed() {
    constexpr std::uint32_t kVertices = 1u << 16;
    constexpr std::uint32_t kDegree = 16;
    std::mt19937 rng(20240601);
    std::uniform_int_distribution<std::uint32_t> dst(0, kVertices - 1);
    std::uniform_real_distribution<float> weight(1.0f, 256.0f);
    offsets_.resize(kVertices + 1);
    for (std::uint32_t v = 0; v <= kVertices; ++v) offsets_[v] = v * kDegree;
    targets_.resize(std::size_t{kVertices} * kDegree);
    weights_.resize(targets_.size());
    for (std::size_t e = 0; e < targets_.size(); ++e) {
      targets_[e] = dst(rng);
      weights_[e] = weight(rng);
    }
    dist_.resize(kVertices);
    measure();  // first touch of the arrays; not a speed sample
    samples_.clear();
    measure();
  }

  /// Times the kernel again if a quarter second has passed since the
  /// last timing.
  void maybe_measure() {
    if (std::chrono::steady_clock::now() - last_ >
        std::chrono::milliseconds(250)) {
      measure();
    }
  }

  /// Factor that turns host seconds measured now into scaled seconds.
  double scale() const {
    const std::size_t n = std::min<std::size_t>(3, samples_.size());
    std::vector<double> recent(samples_.end() - n, samples_.end());
    std::sort(recent.begin(), recent.end());
    return kNominalS / recent[n / 2];
  }

  const std::vector<double>& samples() const { return samples_; }

 private:
  void measure() {
    const auto start = std::chrono::steady_clock::now();
    std::fill(dist_.begin(), dist_.end(),
              std::numeric_limits<float>::infinity());
    using Item = std::pair<float, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist_[0] = 0.0f;
    heap.push({0.0f, 0});
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d > dist_[v]) continue;
      for (std::uint32_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
        const float nd = d + weights_[e];
        if (nd < dist_[targets_[e]]) {
          dist_[targets_[e]] = nd;
          heap.push({nd, targets_[e]});
        }
      }
    }
    last_ = std::chrono::steady_clock::now();
    samples_.push_back(std::chrono::duration<double>(last_ - start).count());
  }

  std::vector<std::uint32_t> offsets_, targets_;
  std::vector<float> weights_;
  std::vector<float> dist_;
  std::vector<double> samples_;
  std::chrono::steady_clock::time_point last_;
};

}  // namespace bench
