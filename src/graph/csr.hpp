#pragma once
// Compressed-sparse-row adjacency: the read-only runtime representation of
// a directed weighted graph.  One global CSR is built per experiment; the
// simulated PEs hold views into contiguous vertex ranges of it (the
// paper's 1-D partitioning), so no adjacency data is ever copied per PE.
//
// Storage: the hot members are raw pointers + element counts, with the
// backing arrays either *owned* (the classic in-memory path: builders
// fill std::vectors and the pointers alias them) or *borrowed* (the
// out-of-core path: MappedCsr points them into an mmap'd CsrFile, see
// src/graph/mapped_csr.hpp).  Solvers never see the difference — both
// backends hand out the same spans over contiguous Neighbors through the
// same non-virtual inline accessors, so the in-memory hot path is
// unchanged and the mmap path needs no solver changes at all.

#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/edge_list.hpp"
#include "src/graph/types.hpp"

namespace acic::graph {

class Csr {
 public:
  Csr() = default;

  // Owning copies deep-copy and re-point into their own storage;
  // borrowed views stay views of the same external storage.
  Csr(const Csr& other);
  Csr& operator=(const Csr& other);
  Csr(Csr&& other) noexcept;
  Csr& operator=(Csr&& other) noexcept;

  /// Builds CSR from an edge list by counting sort on the source vertex;
  /// the input does not need to be pre-sorted.  With threads > 1 the
  /// count, fill and per-row sorts run on host threads; rows end up
  /// sorted by (dst, weight) either way, so the CSR is byte-identical to
  /// the serial build at any thread count.
  static Csr from_edge_list(const EdgeList& list, unsigned threads = 1);

  /// Returns the graph relabeled by `perm` (perm[old] = new): new vertex
  /// perm[v] owns v's out-edges with every destination relabeled, rows
  /// re-sorted to the canonical (dst, weight) order.  Rows are
  /// independent, so the result is byte-identical at any thread count.
  /// Used by the reorder layer (src/graph/reorder.hpp).
  Csr permuted(const std::vector<VertexId>& perm,
               unsigned threads = 1) const;

  /// Returns the reverse adjacency: row v holds Neighbor{src, weight}
  /// for every in-edge (src, v), in canonical (src, weight) order.  The
  /// dynamic graph's snapshots and the landmark tables read in-edges
  /// through it.
  Csr reversed() const;

  /// Adopts already-built arrays.  The caller owns the invariants
  /// (offsets ascending with offsets[0] == 0 and offsets.back() ==
  /// neighbors.size(); every row sorted by (dst, weight); dst in range)
  /// — debug builds assert them via validate_csr.  This is the mutation
  /// layer's entry point (src/dynamic/): batch application patches the
  /// arrays of an existing CSR directly instead of round-tripping |E|
  /// edges through EdgeList and the counting sort.
  static Csr from_parts(std::vector<std::size_t> offsets,
                        std::vector<Neighbor> neighbors);

  /// Non-owning view over externally-owned arrays (the mmap-backed
  /// storage path).  `offsets` must have num_vertices + 1 ascending
  /// entries starting at 0 and ending at num_edges; rows must follow the
  /// canonical (dst, weight) sort.  The external storage must outlive
  /// every use of the view (and of its copies, which stay views).
  static Csr borrow(const std::size_t* offsets, const Neighbor* neighbors,
                    VertexId num_vertices, std::size_t num_edges);

  VertexId num_vertices() const { return num_vertices_; }
  std::size_t num_edges() const { return num_edges_; }

  std::span<const Neighbor> out_neighbors(VertexId v) const {
    return {neighbors_ + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  std::size_t out_degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Number of edges whose source lies in [first, last).
  std::size_t edges_in_range(VertexId first, VertexId last) const {
    return offsets_[last] - offsets_[first];
  }

  std::size_t max_out_degree() const;

  /// The offset array: num_vertices + 1 entries (empty for a
  /// default-constructed Csr).
  std::span<const std::size_t> offsets() const {
    return {offsets_, offsets_ == nullptr
                          ? 0
                          : static_cast<std::size_t>(num_vertices_) + 1};
  }
  std::span<const Neighbor> neighbors() const {
    return {neighbors_, num_edges_};
  }

  /// False for views created by borrow() (and their copies): the
  /// adjacency bytes live in external storage, e.g. an mmap'd CsrFile.
  bool owns_storage() const { return offsets_ == nullptr || !offsets_storage_.empty(); }

 private:
  /// Takes ownership of the arrays and points the hot members at them.
  void adopt(std::vector<std::size_t> offsets,
             std::vector<Neighbor> neighbors);

  const std::size_t* offsets_ = nullptr;  // |V|+1 entries
  const Neighbor* neighbors_ = nullptr;   // |E| entries
  VertexId num_vertices_ = 0;
  std::size_t num_edges_ = 0;
  // Backing storage for the owning path; empty for borrowed views.
  std::vector<std::size_t> offsets_storage_;
  std::vector<Neighbor> neighbors_storage_;
};

}  // namespace acic::graph
