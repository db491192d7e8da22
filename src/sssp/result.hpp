#pragma once
// Result and metrics types returned by every SSSP run.

#include <cstdint>
#include <vector>

#include "src/graph/types.hpp"
#include "src/runtime/network.hpp"

namespace acic::runtime {
class Machine;
struct RunStats;
}  // namespace acic::runtime

namespace acic::sssp {

struct SsspMetrics {
  /// Total updates (edge relaxations) created across all PEs.
  std::uint64_t updates_created = 0;
  /// Updates fully processed (rejected or expanded).
  std::uint64_t updates_processed = 0;
  /// Updates rejected on arrival (distance no better than current).
  std::uint64_t updates_rejected = 0;
  /// Updates that were accepted but superseded by a better update before
  /// they were expanded (popped stale from a priority queue).
  std::uint64_t updates_superseded = 0;
  /// Vertices whose distance changed at least once.
  std::uint64_t vertices_touched = 0;

  std::uint64_t network_messages = 0;
  std::uint64_t network_bytes = 0;

  /// Synchronizations (bulk-synchronous phases or reduction cycles).
  std::uint64_t collective_cycles = 0;

  runtime::SimTime sim_time_us = 0.0;

  double sim_time_s() const { return sim_time_us * 1e-6; }

  /// Traversed edges per second: relaxation throughput, the paper's
  /// fig. 8 metric (an algorithm that creates fewer wasted updates can be
  /// faster overall even at lower TEPS, and vice versa).
  double teps() const {
    return sim_time_us > 0.0
               ? static_cast<double>(updates_created) / sim_time_s()
               : 0.0;
  }

  /// Wasted work fraction: updates that did not lead to an expansion.
  double wasted_fraction() const {
    return updates_processed > 0
               ? static_cast<double>(updates_rejected + updates_superseded) /
                     static_cast<double>(updates_processed)
               : 0.0;
  }
};

struct SsspResult {
  std::vector<graph::Dist> dist;
  /// Shortest-path-tree parent per vertex (kInvalidVertex for the source
  /// and unreachable vertices): parent[v] is a *witness* in-neighbor u
  /// with dist[u] + w(u, v) == dist[v].  Empty unless the producer
  /// tracks parents — the dynamic layer (src/dynamic/repair.hpp) fills
  /// it, because deletion repair invalidates exactly the subtree hanging
  /// off a removed tree edge.
  std::vector<graph::VertexId> parent;
  SsspMetrics metrics;
};

/// Fills the machine-level fields of a run's result: network totals and
/// end time from the `stats` that run() returned, and each PE's busy
/// time from `machine`.
void fill_machine_fields(const runtime::Machine& machine,
                         const runtime::RunStats& stats, SsspMetrics& metrics,
                         std::vector<runtime::SimTime>& pe_busy_us);

}  // namespace acic::sssp
