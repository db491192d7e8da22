#include "src/graph/csr.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "src/util/assert.hpp"
#include "src/util/parallel.hpp"

namespace acic::graph {

namespace {

/// Edges (for count/fill) and vertices (for row sorts) are handed to
/// host threads in blocks of this size.
constexpr std::size_t kBlock = std::size_t{1} << 16;

bool neighbor_less(const Neighbor& a, const Neighbor& b) {
  if (a.dst != b.dst) return a.dst < b.dst;
  return a.weight < b.weight;
}

}  // namespace

void Csr::adopt(std::vector<std::size_t> offsets,
                std::vector<Neighbor> neighbors) {
  ACIC_ASSERT(!offsets.empty());
  offsets_storage_ = std::move(offsets);
  neighbors_storage_ = std::move(neighbors);
  offsets_ = offsets_storage_.data();
  neighbors_ = neighbors_storage_.data();
  num_vertices_ = static_cast<VertexId>(offsets_storage_.size() - 1);
  num_edges_ = neighbors_storage_.size();
}

Csr::Csr(const Csr& other)
    : offsets_(other.offsets_),
      neighbors_(other.neighbors_),
      num_vertices_(other.num_vertices_),
      num_edges_(other.num_edges_),
      offsets_storage_(other.offsets_storage_),
      neighbors_storage_(other.neighbors_storage_) {
  if (!offsets_storage_.empty()) {
    offsets_ = offsets_storage_.data();
    neighbors_ = neighbors_storage_.data();
  }
}

Csr& Csr::operator=(const Csr& other) {
  if (this != &other) {
    Csr tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

Csr::Csr(Csr&& other) noexcept
    : offsets_(other.offsets_),
      neighbors_(other.neighbors_),
      num_vertices_(other.num_vertices_),
      num_edges_(other.num_edges_),
      offsets_storage_(std::move(other.offsets_storage_)),
      neighbors_storage_(std::move(other.neighbors_storage_)) {
  if (!offsets_storage_.empty()) {
    offsets_ = offsets_storage_.data();
    neighbors_ = neighbors_storage_.data();
  }
  other.offsets_ = nullptr;
  other.neighbors_ = nullptr;
  other.num_vertices_ = 0;
  other.num_edges_ = 0;
}

Csr& Csr::operator=(Csr&& other) noexcept {
  if (this != &other) {
    offsets_storage_ = std::move(other.offsets_storage_);
    neighbors_storage_ = std::move(other.neighbors_storage_);
    if (!offsets_storage_.empty()) {
      offsets_ = offsets_storage_.data();
      neighbors_ = neighbors_storage_.data();
    } else {
      offsets_ = other.offsets_;
      neighbors_ = other.neighbors_;
    }
    num_vertices_ = other.num_vertices_;
    num_edges_ = other.num_edges_;
    other.offsets_ = nullptr;
    other.neighbors_ = nullptr;
    other.num_vertices_ = 0;
    other.num_edges_ = 0;
  }
  return *this;
}

Csr Csr::borrow(const std::size_t* offsets, const Neighbor* neighbors,
                VertexId num_vertices, std::size_t num_edges) {
  ACIC_ASSERT_MSG(offsets != nullptr, "borrow: null offset array");
  ACIC_ASSERT_MSG(offsets[0] == 0 && offsets[num_vertices] == num_edges,
                  "borrow: malformed offset array");
  Csr csr;
  csr.offsets_ = offsets;
  csr.neighbors_ = neighbors;
  csr.num_vertices_ = num_vertices;
  csr.num_edges_ = num_edges;
  return csr;
}

Csr Csr::from_edge_list(const EdgeList& list, unsigned threads) {
  ACIC_ASSERT_MSG(list.endpoints_in_range(),
                  "edge endpoints must be < num_vertices");
  const VertexId n = list.num_vertices();
  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Neighbor> neighbors;

  if (threads <= 1) {
    for (const Edge& e : list.edges()) {
      ++offsets[e.src + 1];
    }
    for (std::size_t v = 1; v <= n; ++v) {
      offsets[v] += offsets[v - 1];
    }

    neighbors.resize(list.num_edges());
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const Edge& e : list.edges()) {
      neighbors[cursor[e.src]++] = Neighbor{e.dst, e.weight};
    }

    // Sort each adjacency row by destination for deterministic traversal
    // order regardless of how the generator emitted edges.
    for (VertexId v = 0; v < n; ++v) {
      std::sort(neighbors.begin() + offsets[v],
                neighbors.begin() + offsets[v + 1], neighbor_less);
    }
    Csr csr;
    csr.adopt(std::move(offsets), std::move(neighbors));
    return csr;
  }

  // Parallel build: atomic per-vertex counts, serial prefix sum, then a
  // fill through per-vertex atomic cursors.  The fill places a row's
  // neighbors in a thread-dependent order, but the per-row (dst, weight)
  // sort below restores a canonical order — duplicates that tie on both
  // fields are identical values — so the CSR matches the serial build
  // byte for byte.
  const std::span<const Edge> edges = list.edges();
  const std::size_t num_edge_blocks = (edges.size() + kBlock - 1) / kBlock;
  std::unique_ptr<std::atomic<std::size_t>[]> cursor(
      new std::atomic<std::size_t>[n]());
  util::parallel_for(num_edge_blocks, threads, [&](std::uint64_t b) {
    const std::size_t first = b * kBlock;
    const std::size_t last = std::min(first + kBlock, edges.size());
    for (std::size_t i = first; i < last; ++i) {
      cursor[edges[i].src].fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (std::size_t v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + cursor[v].load(std::memory_order_relaxed);
    cursor[v].store(offsets[v], std::memory_order_relaxed);
  }

  neighbors.resize(list.num_edges());
  util::parallel_for(num_edge_blocks, threads, [&](std::uint64_t b) {
    const std::size_t first = b * kBlock;
    const std::size_t last = std::min(first + kBlock, edges.size());
    for (std::size_t i = first; i < last; ++i) {
      const Edge& e = edges[i];
      const std::size_t slot =
          cursor[e.src].fetch_add(1, std::memory_order_relaxed);
      neighbors[slot] = Neighbor{e.dst, e.weight};
    }
  });

  const std::size_t num_row_blocks =
      (static_cast<std::size_t>(n) + kBlock - 1) / kBlock;
  util::parallel_for(num_row_blocks, threads, [&](std::uint64_t b) {
    const VertexId first = static_cast<VertexId>(b * kBlock);
    const VertexId last = static_cast<VertexId>(
        std::min<std::size_t>((b + 1) * kBlock, n));
    for (VertexId v = first; v < last; ++v) {
      std::sort(neighbors.begin() + offsets[v],
                neighbors.begin() + offsets[v + 1], neighbor_less);
    }
  });
  Csr csr;
  csr.adopt(std::move(offsets), std::move(neighbors));
  return csr;
}

Csr Csr::permuted(const std::vector<VertexId>& perm,
                  unsigned threads) const {
  const VertexId n = num_vertices();
  ACIC_ASSERT_MSG(perm.size() == n,
                  "permutation size must equal num_vertices");
  // inverse[new] = old: new vertex nv inherits old vertex inverse[nv]'s
  // out-edges.
  std::vector<VertexId> inverse(n);
  for (VertexId v = 0; v < n; ++v) {
    ACIC_ASSERT_MSG(perm[v] < n, "permutation entry out of range");
    inverse[perm[v]] = v;
  }

  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId nv = 0; nv < n; ++nv) {
    offsets[nv + 1] = offsets[nv] + out_degree(inverse[nv]);
  }
  ACIC_ASSERT(offsets[n] == num_edges());

  std::vector<Neighbor> neighbors(num_edges());
  const std::size_t num_row_blocks =
      (static_cast<std::size_t>(n) + kBlock - 1) / kBlock;
  util::parallel_for(num_row_blocks, threads, [&](std::uint64_t b) {
    const VertexId first = static_cast<VertexId>(b * kBlock);
    const VertexId last =
        static_cast<VertexId>(std::min<std::size_t>((b + 1) * kBlock, n));
    for (VertexId nv = first; nv < last; ++nv) {
      const std::span<const Neighbor> row = out_neighbors(inverse[nv]);
      Neighbor* dst = neighbors.data() + offsets[nv];
      for (std::size_t i = 0; i < row.size(); ++i) {
        dst[i] = Neighbor{perm[row[i].dst], row[i].weight};
      }
      // Relabeling scrambles the (dst, weight) order within the row;
      // restore the canonical sort the builders guarantee.
      std::sort(dst, dst + row.size(), neighbor_less);
    }
  });
  Csr out;
  out.adopt(std::move(offsets), std::move(neighbors));
  return out;
}

Csr Csr::reversed() const {
  EdgeList list(num_vertices_, {});
  list.reserve(num_edges_);
  for (VertexId v = 0; v < num_vertices_; ++v) {
    for (const Neighbor& nb : out_neighbors(v)) {
      list.add(nb.dst, v, nb.weight);
    }
  }
  return from_edge_list(list);
}

Csr Csr::from_parts(std::vector<std::size_t> offsets,
                    std::vector<Neighbor> neighbors) {
  ACIC_ASSERT_MSG(!offsets.empty() && offsets.front() == 0 &&
                      offsets.back() == neighbors.size(),
                  "from_parts: malformed offset array");
  Csr csr;
  csr.adopt(std::move(offsets), std::move(neighbors));
#ifndef NDEBUG
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ACIC_ASSERT(csr.offsets_[v] <= csr.offsets_[v + 1]);
    const auto row = csr.out_neighbors(v);
    for (std::size_t i = 0; i < row.size(); ++i) {
      ACIC_ASSERT(row[i].dst < csr.num_vertices());
      ACIC_ASSERT(i == 0 || !neighbor_less(row[i], row[i - 1]));
    }
  }
#endif
  return csr;
}

std::size_t Csr::max_out_degree() const {
  std::size_t best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    best = std::max(best, out_degree(v));
  }
  return best;
}

}  // namespace acic::graph
