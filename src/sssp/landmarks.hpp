#pragma once
// Landmark (ALT) distance tier for point-to-point queries.
//
// A LandmarkIndex precomputes, for a small set of landmarks L chosen by
// farthest-point selection, two full distance rows per landmark over the
// sequential reference solver:
//
//   from[L][v] = d(L, v)   (Dijkstra on the forward graph)
//   to[L][v]   = d(v, L)   (Dijkstra on the reverse graph)
//
// and serves source→target queries in three tiers:
//
//   1. *Airtight exact*: s == t, structural unreachability proofs
//      (s reaches L but t does not, or t is reached from L but s is
//      not), and landmark hits (s or t is itself a landmark with a
//      valid row).  These involve no floating-point arithmetic beyond
//      reading a table slot, so the answer is bitwise equal to a full
//      solve.
//   2. *Goal-directed A\**: triangle-inequality lower bounds give an
//      admissible heuristic h(v) ≈ max_L (from[L][t] − from[L][v],
//      to[L][v] − to[L][t]).  Floating-point path sums only satisfy the
//      triangle inequality up to accumulated rounding, so the raw bound
//      is deflated by a conservative slack (kHeuristicSlack, orders of
//      magnitude above any reachable rounding error) — the deflated
//      heuristic is strictly admissible in the floating-point metric,
//      and A* with re-expansion that terminates only once the popped
//      key reaches the settled target distance returns *exactly* the
//      left-to-right floating-point path minimum that Dijkstra and the
//      ACIC engine compute.  bench/server_load verifies this equality
//      at the 10^5-query scale and exits nonzero on any divergence.
//   3. *Fallback*: with no valid landmark rows the heuristic degrades
//      to 0 and tier 2 is plain early-exit Dijkstra — still exact.
//
// Dynamic graphs: rows are invalidated with the same per-edge staleness
// tests the result cache uses (a removal/increase matters only to rows
// where the edge was a tight shortest-path witness; an insert/decrease
// only where it strictly improves the head — see row_stale).  Surviving
// rows are provably still exact for the new epoch; invalidated rows are
// either lazily ignored (the heuristic just weakens) or refreshed
// against the current graph by refresh().
//
// Ground: "A Heuristic Algorithm for Shortest Path Search" (PAPERS.md)
// and Goldberg & Harrelson's ALT family.

#include <cstdint>
#include <span>
#include <vector>

#include "src/dynamic/mutation.hpp"
#include "src/graph/csr.hpp"
#include "src/graph/types.hpp"

namespace acic::sssp {

struct LandmarkConfig {
  /// Landmarks to select (clamped to the number of usable vertices).
  std::size_t num_landmarks = 8;
};

/// Relative slack deflating every lower bound / heuristic value (and
/// inflating upper bounds).  Must exceed the worst accumulated
/// floating-point rounding of any path sum; 1e-7 is ~6 orders of
/// magnitude above the error reachable at 2^20-hop paths.
inline constexpr double kHeuristicSlack = 1e-7;

/// Conservative two-sided bound on d(s, t): lower <= d(s, t) <= upper
/// in the floating-point metric (slack-padded by kHeuristicSlack).
struct LandmarkBounds {
  graph::Dist lower = 0.0;
  graph::Dist upper = graph::kInfDist;
};

/// Per-query accounting for the p2p tiers.
struct P2pStats {
  std::uint64_t settled = 0;   // A* pops that expanded
  std::uint64_t relaxed = 0;   // edges relaxed by A*
  bool exact_tier = false;     // answered from tier 1 (no search)
};

/// Reusable A* scratch: version-stamped g-values, so consecutive
/// queries pay O(touched) instead of O(|V|) to reset.  One workspace
/// per serving thread; the index itself is immutable during queries.
struct P2pWorkspace {
  std::vector<graph::Dist> g;
  std::vector<std::uint32_t> stamp;
  std::uint32_t version = 0;
};

class LandmarkIndex {
 public:
  /// Builds the index over `forward` and its reverse adjacency
  /// (row v = in-edges as Neighbor{src, weight} — exactly the layout
  /// Csr::reversed builds and dynamic::GraphSnapshot::reverse carries).
  /// Selection and both tables cost 2k Dijkstras; fully deterministic.
  LandmarkIndex(const graph::Csr& forward, const graph::Csr& reverse,
                LandmarkConfig config = {});

  const std::vector<graph::VertexId>& landmarks() const {
    return landmarks_;
  }

  /// Tier 1: returns true and writes the exact distance when (s, t) is
  /// provably answerable without search (see file comment).  Only valid
  /// rows participate, so the answer is exact for the epoch the valid
  /// rows describe.
  bool exact_p2p(graph::VertexId s, graph::VertexId t,
                 graph::Dist* out) const;

  /// Slack-padded two-sided bound from every valid row (tier-1 proofs
  /// folded in: an unreachability proof yields {inf, inf}, s == t
  /// yields {0, 0}).
  LandmarkBounds bounds(graph::VertexId s, graph::VertexId t) const;

  /// Exact d(s, t): tier 1 if it fires, else goal-directed A* over
  /// `forward` (which must be the graph the valid rows describe).
  /// Returns graph::kInfDist for unreachable targets.
  graph::Dist p2p(const graph::Csr& forward, graph::VertexId s,
                  graph::VertexId t, P2pWorkspace* ws,
                  P2pStats* stats = nullptr) const;

  /// Dynamic mode: marks every row on which some delta was a tight
  /// witness (removal/increase) or a strict improvement
  /// (insert/decrease) invalid.  Returns rows newly invalidated.
  std::size_t invalidate(std::span<const dynamic::EdgeDelta> deltas);

  /// Recomputes every invalid row against the given (current) graph
  /// pair; after this all rows are valid for that epoch.  Returns rows
  /// recomputed.
  std::size_t refresh(const graph::Csr& forward,
                      const graph::Csr& reverse);

  std::size_t num_rows() const { return 2 * landmarks_.size(); }
  std::size_t invalid_rows() const;
  double invalid_fraction() const;

 private:
  graph::Dist heuristic(graph::VertexId v, graph::VertexId t) const;

  LandmarkConfig config_;
  graph::VertexId num_vertices_ = 0;
  std::vector<graph::VertexId> landmarks_;
  /// landmark_of_[v] = index into landmarks_, or -1.
  std::vector<std::int32_t> landmark_of_;
  std::vector<std::vector<graph::Dist>> from_;  // from_[k][v] = d(L_k, v)
  std::vector<std::vector<graph::Dist>> to_;    // to_[k][v]   = d(v, L_k)
  std::vector<std::uint8_t> from_valid_;
  std::vector<std::uint8_t> to_valid_;
};

}  // namespace acic::sssp
