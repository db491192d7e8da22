#pragma once
// Sequential SSSP reference implementations: Dijkstra (label-setting,
// the ground truth for every test in this repository) and sequential
// Δ-stepping (Meyer & Sanders 2003), which the distributed Δ-stepping
// baseline mirrors bucket-for-bucket.

#include <cstdint>
#include <vector>

#include "src/graph/csr.hpp"
#include "src/graph/types.hpp"

namespace acic::baselines {

struct SeqStats {
  /// Edge relaxations attempted (the sequential analogue of "updates").
  std::uint64_t relaxations = 0;
  /// Relaxations that improved a distance.
  std::uint64_t improvements = 0;
  /// Δ-stepping's light-edge phases (Dijkstra counts none).
  std::uint64_t phases = 0;
};

/// Dijkstra with a binary heap; O((V + E) log V).
std::vector<graph::Dist> dijkstra(const graph::Csr& csr,
                                  graph::VertexId source,
                                  SeqStats* stats = nullptr);

/// Sequential Δ-stepping.  `delta` of 0 selects the standard heuristic
/// delta = max_weight / average_degree (clamped to >= min positive
/// weight).
std::vector<graph::Dist> delta_stepping_seq(const graph::Csr& csr,
                                            graph::VertexId source,
                                            double delta = 0.0,
                                            SeqStats* stats = nullptr);

/// The heuristic default Δ used when callers pass delta = 0.
double default_delta(const graph::Csr& csr);

}  // namespace acic::baselines
