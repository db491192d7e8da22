#include "src/baselines/sequential.hpp"

#include <algorithm>
#include <queue>

#include "src/util/assert.hpp"

namespace acic::baselines {

using graph::Dist;
using graph::VertexId;

std::vector<Dist> dijkstra(const graph::Csr& csr, VertexId source,
                           SeqStats* stats) {
  ACIC_ASSERT(source < csr.num_vertices());
  std::vector<Dist> dist(csr.num_vertices(), graph::kInfDist);
  dist[source] = 0.0;

  using Entry = std::pair<Dist, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, source);

  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d != dist[v]) continue;  // stale entry
    for (const graph::Neighbor& nb : csr.out_neighbors(v)) {
      if (stats != nullptr) ++stats->relaxations;
      const Dist candidate = d + nb.weight;
      if (candidate < dist[nb.dst]) {
        if (stats != nullptr) ++stats->improvements;
        dist[nb.dst] = candidate;
        heap.emplace(candidate, nb.dst);
      }
    }
  }
  return dist;
}

double default_delta(const graph::Csr& csr) {
  double max_weight = 0.0;
  double min_weight = graph::kInfDist;
  for (const graph::Neighbor& nb : csr.neighbors()) {
    max_weight = std::max(max_weight, nb.weight);
    if (nb.weight > 0.0) min_weight = std::min(min_weight, nb.weight);
  }
  if (csr.num_edges() == 0 || max_weight == 0.0) return 1.0;
  const double avg_degree = static_cast<double>(csr.num_edges()) /
                            static_cast<double>(csr.num_vertices());
  // Meyer & Sanders suggest Δ ≈ Θ(max_weight / degree); clamp below by
  // the smallest weight so light-edge phases are meaningful.
  return std::max(max_weight / std::max(avg_degree, 1.0),
                  std::min(min_weight, max_weight));
}

std::vector<Dist> delta_stepping_seq(const graph::Csr& csr, VertexId source,
                                     double delta, SeqStats* stats) {
  ACIC_ASSERT(source < csr.num_vertices());
  if (delta <= 0.0) delta = default_delta(csr);
  const VertexId n = csr.num_vertices();
  std::vector<Dist> dist(n, graph::kInfDist);
  dist[source] = 0.0;

  // Buckets of width delta; bucket index of a distance is d / delta.
  std::vector<std::vector<VertexId>> buckets(1);
  auto bucket_of = [&](Dist d) {
    return static_cast<std::size_t>(d / delta);
  };
  auto place = [&](VertexId v, Dist d) {
    const std::size_t b = bucket_of(d);
    if (b >= buckets.size()) buckets.resize(b + 1);
    buckets[b].push_back(v);
  };
  place(source, 0.0);

  auto relax = [&](VertexId w, Dist candidate) {
    if (stats != nullptr) ++stats->relaxations;
    if (candidate < dist[w]) {
      if (stats != nullptr) ++stats->improvements;
      dist[w] = candidate;
      place(w, candidate);
    }
  };

  for (std::size_t b = 0; b < buckets.size(); ++b) {
    // Light-edge phases: repeatedly settle vertices that fall back into
    // the current bucket.
    std::vector<VertexId> settled;
    while (!buckets[b].empty()) {
      if (stats != nullptr) ++stats->phases;
      std::vector<VertexId> frontier;
      frontier.swap(buckets[b]);
      for (const VertexId v : frontier) {
        if (bucket_of(dist[v]) != b) continue;  // stale entry
        settled.push_back(v);
        for (const graph::Neighbor& nb : csr.out_neighbors(v)) {
          if (nb.weight <= delta) relax(nb.dst, dist[v] + nb.weight);
        }
      }
    }
    // Heavy edges once per bucket, from every vertex settled in it.
    std::sort(settled.begin(), settled.end());
    settled.erase(std::unique(settled.begin(), settled.end()),
                  settled.end());
    for (const VertexId v : settled) {
      if (bucket_of(dist[v]) != b) continue;
      for (const graph::Neighbor& nb : csr.out_neighbors(v)) {
        if (nb.weight > delta) relax(nb.dst, dist[v] + nb.weight);
      }
    }
  }
  return dist;
}

}  // namespace acic::baselines
