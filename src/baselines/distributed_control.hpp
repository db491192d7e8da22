#pragma once
// Distributed control (Zalewski, Kanewala, Firoz & Lumsdaine, IA3@SC'14):
// the fully asynchronous SSSP the paper positions itself against.
//
// Updates (v, d) are sent as soon as they are created — there are no
// thresholds, holds, or global view of the distance distribution.  Each
// PE orders the updates it has accepted in a local min-priority queue and
// expands them when idle (priority scheduling without synchronization).
// Termination is detected with the counter-reduction scheme (created ==
// processed, stable across two consecutive reductions).
//
// With `use_priority = false` this degrades to the paper's §II.A
// baseline asynchronous algorithm (chaotic relaxation): accepted updates
// expand immediately on arrival, maximizing speculative wasted work.

#include "src/graph/csr.hpp"
#include "src/graph/partition.hpp"
#include "src/runtime/machine.hpp"
#include "src/sssp/result.hpp"
#include "src/tram/tram.hpp"

namespace acic::baselines {

struct DistributedControlConfig {
  /// Order accepted updates in a per-PE priority queue (the DC paper's
  /// key idea); false gives the unordered §II.A baseline.
  bool use_priority = true;
  tram::TramConfig tram;
};

struct DistributedControlRunResult {
  sssp::SsspResult sssp;
  std::uint64_t detector_cycles = 0;
  bool hit_time_limit = false;
  std::vector<runtime::SimTime> pe_busy_us;
};

DistributedControlRunResult distributed_control_sssp(
    runtime::Machine& machine, const graph::Csr& csr,
    const graph::Partition1D& partition, graph::VertexId source,
    const DistributedControlConfig& config,
    runtime::SimTime time_limit_us = runtime::kNoTimeLimit);

}  // namespace acic::baselines
