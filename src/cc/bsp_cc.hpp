#pragma once
// Bulk-synchronous connected components: classic label propagation in
// supersteps (the synchronous counterpart the future-work asynchronous
// CC is measured against).  Each superstep, every vertex whose label
// changed since the last barrier pushes it to all neighbors; a drained
// barrier separates supersteps; the run ends when a superstep changes
// nothing.

#include <cstdint>
#include <vector>

#include "src/graph/csr.hpp"
#include "src/graph/partition.hpp"
#include "src/runtime/machine.hpp"
#include "src/tram/tram.hpp"

namespace acic::cc {

struct BspCcConfig {
  tram::TramConfig tram;
};

struct BspCcResult {
  std::vector<graph::VertexId> labels;
  std::uint64_t updates_created = 0;
  std::uint64_t updates_processed = 0;
  std::uint64_t updates_rejected = 0;
  std::uint64_t supersteps = 0;
  std::uint64_t barrier_rounds = 0;
  std::uint64_t network_messages = 0;
  runtime::SimTime sim_time_us = 0.0;
  bool hit_time_limit = false;
};

/// Runs BSP label-propagation CC on a symmetrized graph.
BspCcResult bsp_cc(runtime::Machine& machine, const graph::Csr& csr,
                   const graph::Partition1D& partition,
                   const BspCcConfig& config = {},
                   runtime::SimTime time_limit_us =
                       runtime::kNoTimeLimit);

}  // namespace acic::cc
