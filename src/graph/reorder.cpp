#include "src/graph/reorder.hpp"

#include <algorithm>
#include <numeric>

#include "src/util/assert.hpp"

namespace acic::graph {

const char* reorder_mode_name(ReorderMode mode) {
  switch (mode) {
    case ReorderMode::kIdentity:
      return "identity";
    case ReorderMode::kDegreeDesc:
      return "degree_desc";
    case ReorderMode::kBfs:
      return "bfs";
  }
  ACIC_ASSERT_MSG(false, "invalid ReorderMode");
  return "";
}

ReorderMode reorder_mode_from_string(const std::string& name) {
  if (name == "identity") return ReorderMode::kIdentity;
  if (name == "degree_desc") return ReorderMode::kDegreeDesc;
  if (name == "bfs") return ReorderMode::kBfs;
  ACIC_ASSERT_MSG(false,
                  "unknown reorder mode (expected identity, degree_desc "
                  "or bfs)");
  return ReorderMode::kIdentity;
}

bool is_permutation(const std::vector<VertexId>& perm) {
  std::vector<bool> seen(perm.size(), false);
  for (const VertexId p : perm) {
    if (p >= perm.size() || seen[p]) return false;
    seen[p] = true;
  }
  return true;
}

std::vector<VertexId> invert_permutation(const std::vector<VertexId>& perm) {
  ACIC_ASSERT_MSG(is_permutation(perm), "not a permutation");
  std::vector<VertexId> inv(perm.size());
  for (VertexId v = 0; v < perm.size(); ++v) {
    inv[perm[v]] = v;
  }
  return inv;
}

namespace {

/// Hub clustering: old vertices sorted by out-degree descending, ties by
/// original id ascending.  The sorted position is the new label, so the
/// heaviest hub becomes vertex 0.
std::vector<VertexId> degree_desc_permutation(const Csr& csr) {
  const VertexId n = csr.num_vertices();
  std::vector<VertexId> by_degree(n);
  std::iota(by_degree.begin(), by_degree.end(), VertexId{0});
  std::sort(by_degree.begin(), by_degree.end(),
            [&csr](VertexId a, VertexId b) {
              const std::size_t da = csr.out_degree(a);
              const std::size_t db = csr.out_degree(b);
              if (da != db) return da > db;
              return a < b;
            });
  std::vector<VertexId> perm(n);
  for (VertexId rank = 0; rank < n; ++rank) {
    perm[by_degree[rank]] = rank;
  }
  return perm;
}

/// BFS visitation order from vertex 0, expanding adjacency rows in their
/// canonical (dst, weight) order — a FIFO frontier, so a vertex's label
/// is its discovery rank.  Vertices unreachable from vertex 0 keep their
/// relative order, appended after the reachable set.
std::vector<VertexId> bfs_permutation(const Csr& csr) {
  const VertexId n = csr.num_vertices();
  constexpr VertexId kUnassigned = kInvalidVertex;
  std::vector<VertexId> perm(n, kUnassigned);
  std::vector<VertexId> queue;
  queue.reserve(n);
  VertexId next = 0;

  perm[0] = next++;
  queue.push_back(0);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId v = queue[head];
    for (const Neighbor& nb : csr.out_neighbors(v)) {
      if (perm[nb.dst] == kUnassigned) {
        perm[nb.dst] = next++;
        queue.push_back(nb.dst);
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (perm[v] == kUnassigned) perm[v] = next++;
  }
  ACIC_ASSERT(next == n);
  return perm;
}

}  // namespace

std::vector<VertexId> make_permutation(const Csr& csr, ReorderMode mode) {
  const VertexId n = csr.num_vertices();
  switch (mode) {
    case ReorderMode::kIdentity: {
      std::vector<VertexId> perm(n);
      std::iota(perm.begin(), perm.end(), VertexId{0});
      return perm;
    }
    case ReorderMode::kDegreeDesc:
      return degree_desc_permutation(csr);
    case ReorderMode::kBfs:
      if (n == 0) return {};
      return bfs_permutation(csr);
  }
  ACIC_ASSERT_MSG(false, "invalid ReorderMode");
  return {};
}

Remap::Remap(const Csr& csr, ReorderMode mode, unsigned threads)
    : mode_(mode),
      perm_(make_permutation(csr, mode)),
      inverse_(invert_permutation(perm_)),
      permuted_(csr.permuted(perm_, threads)) {}

std::vector<Dist> Remap::unmap_distances(
    const std::vector<Dist>& dist) const {
  ACIC_ASSERT(dist.size() == perm_.size());
  std::vector<Dist> out(dist.size());
  for (VertexId v = 0; v < perm_.size(); ++v) {
    out[v] = dist[perm_[v]];
  }
  return out;
}

}  // namespace acic::graph
