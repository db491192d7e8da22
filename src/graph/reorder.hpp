#pragma once
// Vertex reordering: locality-improving relabelings of a CSR graph.
//
// The 1-D block partition assigns contiguous vertex ranges to PEs, so
// the *labeling* of the vertices decides both simulated locality (which
// updates cross node boundaries) and host locality (how the distance
// array and adjacency rows are walked).  A permutation is a free knob:
// relabel the graph once up front, run any solver unchanged, and map the
// distances back.
//
// Modes:
//   * identity     — no-op (the reference labeling).
//   * degree_desc  — vertices sorted by out-degree descending (ties by
//                    original id): RMAT's hubs cluster into the first
//                    partition ranges and the first cache lines of the
//                    distance array, where almost all traffic lands.
//   * bfs          — BFS visitation order from vertex 0 ("Gorder-lite"):
//                    neighbors get nearby labels, so an expansion's
//                    updates cluster into few partitions/cache lines.
//
// Convention: perm[old] = new.  A reordered run is validated by *exact*
// distance equality after inverse permutation — converged shortest-path
// distances are per-path floating-point sums, independent of relaxation
// order — but NOT by checksum/sim-time identity: relabeling legitimately
// changes the message schedule (see docs/performance.md "Locality").

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/csr.hpp"
#include "src/graph/types.hpp"

namespace acic::graph {

enum class ReorderMode : std::uint8_t { kIdentity, kDegreeDesc, kBfs };

const char* reorder_mode_name(ReorderMode mode);

/// Parses "identity" / "degree_desc" / "bfs"; asserts otherwise.
ReorderMode reorder_mode_from_string(const std::string& name);

/// Builds the relabeling permutation for `mode` (perm[old] = new).
/// kBfs numbers vertices in BFS discovery order from vertex 0, whatever
/// the query source, so one permuted graph serves every source;
/// unreachable vertices are appended in ascending original id.
/// Deterministic for a given (csr, mode).
std::vector<VertexId> make_permutation(const Csr& csr, ReorderMode mode);

/// inv[perm[v]] == v for all v; asserts `perm` is a permutation.
std::vector<VertexId> invert_permutation(const std::vector<VertexId>& perm);

/// True iff `perm` is a bijection on [0, perm.size()).
bool is_permutation(const std::vector<VertexId>& perm);

/// Bundles a permutation with the relabeled graph and both directions of
/// the mapping: map the source in, run on csr(), map the distances back
/// out.  Holds its own copy of the permuted CSR.
class Remap {
 public:
  /// Builds perm for `mode` and the permuted CSR (`threads` parallelizes
  /// the relabel; the result is identical at any thread count).
  Remap(const Csr& csr, ReorderMode mode, unsigned threads = 1);

  ReorderMode mode() const { return mode_; }
  const Csr& csr() const { return permuted_; }
  const std::vector<VertexId>& perm() const { return perm_; }

  /// Original label -> relabeled (e.g. the query source).
  VertexId map_vertex(VertexId old_id) const { return perm_[old_id]; }
  /// Relabeled -> original.
  VertexId unmap_vertex(VertexId new_id) const { return inverse_[new_id]; }

  /// Distances indexed by relabeled vertex -> distances indexed by
  /// original vertex (out[v] = in[perm[v]]).
  std::vector<Dist> unmap_distances(const std::vector<Dist>& dist) const;

 private:
  ReorderMode mode_;
  std::vector<VertexId> perm_;     // perm_[old] = new
  std::vector<VertexId> inverse_;  // inverse_[new] = old
  Csr permuted_;
};

}  // namespace acic::graph
