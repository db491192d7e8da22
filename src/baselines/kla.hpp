#pragma once
// K-level asynchronous SSSP (Harshvardhan, Fidel, Amato & Rauchwerger,
// PACT'14) — the compromise between bulk-synchronous Δ-stepping and fully
// asynchronous distributed control that the paper discusses.
//
// Execution proceeds in *supersteps*.  Within a superstep updates
// propagate asynchronously, but each carries a hop count; once a path has
// relaxed k edges since the superstep began, the target vertex is
// *deferred* — it keeps its improved distance but does not expand until
// the next superstep.  At each superstep boundary (a drained barrier) k
// adapts: it is doubled, halved, or kept constant based on how the
// number of vertices whose distances changed compares with the previous
// superstep.

#include "src/graph/csr.hpp"
#include "src/graph/partition.hpp"
#include "src/runtime/machine.hpp"
#include "src/sssp/result.hpp"
#include "src/tram/tram.hpp"

namespace acic::baselines {

struct KlaConfig {
  /// Initial asynchrony depth.
  std::uint32_t initial_k = 2;
  std::uint32_t min_k = 1;
  std::uint32_t max_k = 1u << 16;
  /// Adaptation thresholds: grow k when changed/prev_changed exceeds
  /// `grow_ratio`; shrink when below `shrink_ratio`.
  double grow_ratio = 1.2;
  double shrink_ratio = 0.5;
  tram::TramConfig tram;
};

struct KlaRunResult {
  sssp::SsspResult sssp;
  std::uint64_t supersteps = 0;
  std::uint64_t final_k = 0;
  /// Largest k the adaptation reached during the run.
  std::uint64_t peak_k = 0;
  bool hit_time_limit = false;
  std::vector<runtime::SimTime> pe_busy_us;
};

KlaRunResult kla_sssp(runtime::Machine& machine, const graph::Csr& csr,
                      const graph::Partition1D& partition,
                      graph::VertexId source, const KlaConfig& config,
                      runtime::SimTime time_limit_us =
                          runtime::kNoTimeLimit);

}  // namespace acic::baselines
