#pragma once
// DynamicGraph — a mutable, versioned wrapper around the read-only
// graph::Csr the rest of the repository runs on.
//
// Mutation batches (src/dynamic/mutation.hpp) apply atomically: one
// apply() call advances the epoch counter by one, stamps every applied
// record with the graph's monotone logical clock, and publishes a fresh
// immutable *snapshot*.  Readers never observe a half-applied batch:
//
//   * snapshot_ptr() hands out shared ownership of the current
//     GraphSnapshot; a solver engine that holds the pointer keeps "its"
//     graph alive for the duration of its run even while the
//     DynamicGraph moves on — this is how QueryService answers queries
//     on a graph mutating under load (bounded staleness: a query is
//     exact for the epoch current at its admission).
//   * snapshot() / csr() view the newest epoch; addresses are only
//     stable until the next apply(), so anything long-lived takes the
//     shared pointer.
//
// Each snapshot carries the forward CSR *and* a reverse CSR (row v =
// in-edges of v as Neighbor{src, weight}): deletion repair needs
// in-edges to find the boundary of an invalidated subtree, and witness
// parent computation needs them too.  Both are patched incrementally
// per epoch — O(|touched rows| + |E| row copies), never an edge-list
// round trip — and debug builds re-validate full CSR invariants
// (graph::validate_csr with require_simple) after every epoch.
//
// The complete applied-mutation log is retained: applied_since(epoch)
// gives repair planners the exact span separating a stale SSSP state
// from the current graph.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/dynamic/mutation.hpp"
#include "src/graph/csr.hpp"
#include "src/graph/edge_list.hpp"
#include "src/graph/types.hpp"

namespace acic::dynamic {

/// One immutable epoch of the graph.  Shared via shared_ptr so in-flight
/// readers pin exactly the epochs they still need.
struct GraphSnapshot {
  std::uint64_t epoch = 0;
  graph::Csr csr;      // forward adjacency (the solver-facing graph)
  graph::Csr reverse;  // row v = in-edges of v as Neighbor{src, weight}
};

class DynamicGraph {
 public:
  /// Builds epoch 0 from an edge list, normalizing it to the simple-
  /// graph contract first (self loops dropped, duplicate (src, dst)
  /// pairs collapsed to the lightest — the dynamic mutation API is
  /// keyed on (src, dst), so multigraphs are not representable).
  explicit DynamicGraph(graph::EdgeList list, unsigned threads = 1);

  /// Adopts an already-simple CSR as epoch 0 (asserted in debug builds;
  /// use the EdgeList constructor for graphs straight from the
  /// generators, which may contain duplicates).
  explicit DynamicGraph(graph::Csr base);

  DynamicGraph(const DynamicGraph&) = delete;
  DynamicGraph& operator=(const DynamicGraph&) = delete;

  graph::VertexId num_vertices() const { return snapshot_->csr.num_vertices(); }
  std::size_t num_edges() const { return snapshot_->csr.num_edges(); }
  std::uint64_t epoch() const { return snapshot_->epoch; }

  /// Current-epoch views.  Address stable only until the next apply();
  /// long-lived readers take snapshot_ptr().
  const GraphSnapshot& snapshot() const { return *snapshot_; }
  const graph::Csr& csr() const { return snapshot_->csr; }
  std::shared_ptr<const GraphSnapshot> snapshot_ptr() const {
    return snapshot_;
  }

  /// Applies one batch as a new epoch.  Within the batch, later requests
  /// for the same (src, dst) pair supersede earlier ones; the collapsed
  /// effect is applied in (src, dst) order, each applied record stamped
  /// with the next logical-clock tick — fully deterministic in the
  /// submitted stream.  Vertex count never changes (mutations are
  /// edge-only).  Batches that collapse to nothing still advance the
  /// epoch (callers rely on apply() == one epoch).
  ApplyStats apply(const MutationBatch& batch);

  /// Current weight of edge (u, v); false if absent.
  bool edge_weight(graph::VertexId u, graph::VertexId v,
                   graph::Weight* weight) const;

  /// The full applied log, every epoch's records in apply order.
  const std::vector<AppliedMutation>& log() const { return log_; }

  /// Applied records strictly after `epoch` (i.e. of epochs
  /// epoch+1 .. epoch()).  `epoch` must not exceed the current epoch.
  std::span<const AppliedMutation> applied_since(std::uint64_t epoch) const;

  /// When enabled *before* the epochs of interest, every snapshot is
  /// retained and addressable by epoch — the verification harnesses use
  /// this to check a query answered at epoch e against a from-scratch
  /// solve on exactly epoch e's graph.  Off by default (memory).
  void set_retain_history(bool retain);
  std::shared_ptr<const GraphSnapshot> snapshot_at(
      std::uint64_t epoch) const;

 private:
  /// Publishes `base` as the epoch-0 snapshot, with its reverse.
  void init_from_base(graph::Csr base);

  std::shared_ptr<const GraphSnapshot> snapshot_;
  std::vector<AppliedMutation> log_;
  /// epoch_end_[e] = log_ size after epoch e applied (epoch_end_[0] = 0).
  std::vector<std::size_t> epoch_end_;
  std::uint64_t clock_ = 0;
  bool retain_history_ = false;
  /// history_[e] = snapshot of epoch e; only epochs applied while
  /// retain_history_ was on are present (plus the current snapshot).
  std::vector<std::shared_ptr<const GraphSnapshot>> history_;
};

}  // namespace acic::dynamic
