#include "src/dynamic/dynamic_graph.hpp"

#include <algorithm>
#include <utility>

#include "src/graph/validate.hpp"
#include "src/util/assert.hpp"

namespace acic::dynamic {

using graph::Csr;
using graph::Neighbor;
using graph::VertexId;
using graph::Weight;

namespace {

/// One row-local change: remove the entry keyed `key`, or upsert
/// (key, weight).  The simple-graph contract makes `key` unique per row.
struct RowEdit {
  VertexId row = 0;
  VertexId key = 0;
  Weight weight = 0.0;
  bool remove = false;
};

/// Binary search for the row entry with dst == key (rows are sorted by
/// (dst, weight) and simple, so dst alone is the key).
const Neighbor* find_in_row(std::span<const Neighbor> row, VertexId key) {
  const auto it = std::lower_bound(
      row.begin(), row.end(), key,
      [](const Neighbor& nb, VertexId k) { return nb.dst < k; });
  return it != row.end() && it->dst == key ? &*it : nullptr;
}

/// Applies `edits` (sorted by row, unique (row, key)) to `old`,
/// returning the patched CSR.  Untouched rows are copied wholesale;
/// touched rows are rebuilt in (dst, weight) order.
Csr patch_csr(const Csr& old, const std::vector<RowEdit>& edits) {
  const VertexId n = old.num_vertices();
  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Neighbor> neighbors;
  // Every edit changes the edge count by at most one in either
  // direction; reserving the upper bound keeps the fill allocation-free.
  neighbors.reserve(old.num_edges() + edits.size());

  std::size_t e = 0;  // next unconsumed edit
  std::vector<Neighbor> scratch;
  for (VertexId v = 0; v < n; ++v) {
    const std::span<const Neighbor> row = old.out_neighbors(v);
    if (e >= edits.size() || edits[e].row != v) {
      neighbors.insert(neighbors.end(), row.begin(), row.end());
    } else {
      scratch.assign(row.begin(), row.end());
      for (; e < edits.size() && edits[e].row == v; ++e) {
        const RowEdit& edit = edits[e];
        const auto it = std::lower_bound(
            scratch.begin(), scratch.end(), edit.key,
            [](const Neighbor& nb, VertexId k) { return nb.dst < k; });
        const bool present = it != scratch.end() && it->dst == edit.key;
        if (edit.remove) {
          ACIC_ASSERT_MSG(present, "patch_csr: removing an absent edge");
          scratch.erase(it);
        } else if (present) {
          it->weight = edit.weight;
        } else {
          scratch.insert(it, Neighbor{edit.key, edit.weight});
        }
      }
      neighbors.insert(neighbors.end(), scratch.begin(), scratch.end());
    }
    offsets[v + 1] = neighbors.size();
  }
  ACIC_ASSERT(e == edits.size());
  return Csr::from_parts(std::move(offsets), std::move(neighbors));
}

}  // namespace

DynamicGraph::DynamicGraph(graph::EdgeList list, unsigned threads) {
  list.remove_self_loops();
  list.remove_duplicates();
  init_from_base(Csr::from_edge_list(list, threads));
}

DynamicGraph::DynamicGraph(graph::Csr base) {
#ifndef NDEBUG
  const graph::ValidationResult check =
      graph::validate_csr(base, /*require_simple=*/true);
  ACIC_ASSERT_MSG(check.ok, check.error.c_str());
#endif
  init_from_base(std::move(base));
}

void DynamicGraph::init_from_base(graph::Csr base) {
  auto snap = std::make_shared<GraphSnapshot>();
  snap->epoch = 0;
  snap->reverse = base.reversed();
  snap->csr = std::move(base);
  snapshot_ = std::move(snap);
  epoch_end_.assign(1, 0);
}

bool DynamicGraph::edge_weight(VertexId u, VertexId v,
                               Weight* weight) const {
  ACIC_ASSERT(u < num_vertices() && v < num_vertices());
  const Neighbor* nb = find_in_row(snapshot_->csr.out_neighbors(u), v);
  if (nb == nullptr) return false;
  if (weight != nullptr) *weight = nb->weight;
  return true;
}

ApplyStats DynamicGraph::apply(const MutationBatch& batch) {
  const std::uint64_t new_epoch = snapshot_->epoch + 1;
  ApplyStats stats;
  stats.epoch = new_epoch;

  // Collapse the batch: last writer wins per (src, dst), self edges and
  // out-of-range endpoints never reach the graph.  The surviving
  // requests are applied in (src, dst) order — the batch's submission
  // order decides only *which* request survives, not apply order, so
  // the epoch's log is a canonical function of the collapsed set.
  struct Request {
    VertexId src, dst;
    MutationKind kind;
    Weight weight;
  };
  std::vector<Request> requests;
  requests.reserve(batch.size());
  for (const Mutation& m : batch) {
    ACIC_ASSERT_MSG(m.src < num_vertices() && m.dst < num_vertices(),
                    "mutation endpoint outside the graph");
    if (m.src == m.dst) {
      ++stats.rejected;  // self edges violate the simple-graph contract
      continue;
    }
    const auto it = std::find_if(
        requests.begin(), requests.end(), [&m](const Request& r) {
          return r.src == m.src && r.dst == m.dst;
        });
    if (it != requests.end()) {
      ++stats.rejected;  // the earlier request is superseded
      *it = Request{m.src, m.dst, m.kind, m.weight};
    } else {
      requests.push_back(Request{m.src, m.dst, m.kind, m.weight});
    }
  }
  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) {
              if (a.src != b.src) return a.src < b.src;
              return a.dst < b.dst;
            });

  std::vector<RowEdit> forward_edits;
  std::vector<RowEdit> reverse_edits;
  forward_edits.reserve(requests.size());
  reverse_edits.reserve(requests.size());
  const Csr& cur = snapshot_->csr;
  for (const Request& r : requests) {
    const Neighbor* existing = find_in_row(cur.out_neighbors(r.src), r.dst);
    AppliedMutation record;
    record.epoch = new_epoch;
    record.src = r.src;
    record.dst = r.dst;
    switch (r.kind) {
      case MutationKind::kInsert:
      case MutationKind::kReweight:
        if (existing == nullptr) {
          if (r.kind == MutationKind::kReweight) {
            ++stats.rejected;  // reweight never creates an edge
            continue;
          }
          record.kind = MutationKind::kInsert;
          record.new_weight = r.weight;
          ++stats.inserted;
        } else {
          if (existing->weight == r.weight) {
            ++stats.rejected;  // no-op upsert
            continue;
          }
          record.kind = MutationKind::kReweight;
          record.old_weight = existing->weight;
          record.new_weight = r.weight;
          ++stats.reweighted;
        }
        forward_edits.push_back(RowEdit{r.src, r.dst, r.weight, false});
        reverse_edits.push_back(RowEdit{r.dst, r.src, r.weight, false});
        break;
      case MutationKind::kRemove:
        if (existing == nullptr) {
          ++stats.rejected;
          continue;
        }
        record.kind = MutationKind::kRemove;
        record.old_weight = existing->weight;
        ++stats.removed;
        forward_edits.push_back(RowEdit{r.src, r.dst, 0.0, true});
        reverse_edits.push_back(RowEdit{r.dst, r.src, 0.0, true});
        break;
    }
    record.timestamp = ++clock_;
    log_.push_back(record);
  }
  std::sort(reverse_edits.begin(), reverse_edits.end(),
            [](const RowEdit& a, const RowEdit& b) {
              if (a.row != b.row) return a.row < b.row;
              return a.key < b.key;
            });

  auto next = std::make_shared<GraphSnapshot>();
  next->epoch = new_epoch;
  next->csr = patch_csr(cur, forward_edits);
  next->reverse = patch_csr(snapshot_->reverse, reverse_edits);
#ifndef NDEBUG
  // Every mutation epoch must leave full CSR invariants intact: sorted
  // rows, in-range destinations, no duplicate or self edges.
  const graph::ValidationResult fwd =
      graph::validate_csr(next->csr, /*require_simple=*/true);
  ACIC_ASSERT_MSG(fwd.ok, fwd.error.c_str());
  const graph::ValidationResult rev =
      graph::validate_csr(next->reverse, /*require_simple=*/true);
  ACIC_ASSERT_MSG(rev.ok, rev.error.c_str());
  ACIC_ASSERT(next->csr.num_edges() == next->reverse.num_edges());
#endif
  if (retain_history_) {
    if (history_.empty()) history_.push_back(snapshot_);
    history_.push_back(next);
  }
  snapshot_ = std::move(next);
  epoch_end_.push_back(log_.size());
  return stats;
}

std::span<const AppliedMutation> DynamicGraph::applied_since(
    std::uint64_t epoch) const {
  ACIC_ASSERT_MSG(epoch < epoch_end_.size(),
                  "applied_since: epoch is in the future");
  const std::size_t first = epoch_end_[epoch];
  return {log_.data() + first, log_.size() - first};
}

void DynamicGraph::set_retain_history(bool retain) {
  retain_history_ = retain;
  if (!retain) history_.clear();
}

std::shared_ptr<const GraphSnapshot> DynamicGraph::snapshot_at(
    std::uint64_t epoch) const {
  if (epoch == snapshot_->epoch) return snapshot_;
  for (const auto& snap : history_) {
    if (snap->epoch == epoch) return snap;
  }
  return nullptr;
}

}  // namespace acic::dynamic
