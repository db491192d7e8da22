#include "src/graph/generators.hpp"

#include <cmath>
#include <unordered_set>

#include "src/util/assert.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace acic::graph {

namespace {

using util::Xoshiro256;
using util::derive_seed;
using util::parallel_for;

/// Edges per generation chunk.  Fixed (not derived from the thread
/// count) so the chunk → RNG-stream mapping, and therefore the generated
/// graph, is identical at any GenParams::threads value.
constexpr std::uint64_t kChunkEdges = 1ull << 16;

/// Number of levels needed so the RMAT recursion addresses every vertex.
int levels_for(VertexId n) {
  int levels = 0;
  while ((VertexId{1} << levels) < n) ++levels;
  return levels;
}

Weight draw_weight(Xoshiro256& rng, const GenParams& p) {
  return rng.next_double(p.min_weight, p.max_weight);
}

void finalize(EdgeList& list, const GenParams& p) {
  if (p.remove_self_loops) list.remove_self_loops();
  if (p.remove_duplicates) list.remove_duplicates();
  list.sort_by_source(p.threads);
}

/// Runs `emit(structure_rng, weight_rng, slot)` for every edge slot in
/// [0, num_edges), in parallel over fixed-size chunks.  Chunk c draws
/// from streams derive_seed(derive_seed(seed, 0|1), c), so every slot's
/// draws are independent of the thread count.
template <typename Emit>
void generate_chunked(const GenParams& params, Emit&& emit) {
  const std::uint64_t num_chunks =
      (params.num_edges + kChunkEdges - 1) / kChunkEdges;
  const std::uint64_t structure_seed = derive_seed(params.seed, 0);
  const std::uint64_t weight_seed = derive_seed(params.seed, 1);
  parallel_for(num_chunks, params.threads, [&](std::uint64_t c) {
    Xoshiro256 structure_rng(derive_seed(structure_seed, c));
    Xoshiro256 weight_rng(derive_seed(weight_seed, c));
    const std::uint64_t first = c * kChunkEdges;
    const std::uint64_t last =
        std::min(first + kChunkEdges, params.num_edges);
    for (std::uint64_t i = first; i < last; ++i) {
      emit(structure_rng, weight_rng, i);
    }
  });
}

/// The streaming twin: identical chunk → RNG-stream mapping, identical
/// per-slot draws, but one chunk buffer instead of a full edge vector,
/// with GenParams::remove_self_loops applied before each chunk is handed
/// to `sink`.  The emitted multiset therefore equals what the
/// materializing generator's finalize() would leave behind.
template <typename Draw>
void stream_chunked(const GenParams& params, const EdgeSink& sink,
                    Draw&& draw) {
  ACIC_ASSERT_MSG(!params.remove_duplicates,
                  "streaming generation cannot deduplicate edges");
  const std::uint64_t num_chunks =
      (params.num_edges + kChunkEdges - 1) / kChunkEdges;
  const std::uint64_t structure_seed = derive_seed(params.seed, 0);
  const std::uint64_t weight_seed = derive_seed(params.seed, 1);
  std::vector<Edge> chunk;
  chunk.reserve(kChunkEdges);
  for (std::uint64_t c = 0; c < num_chunks; ++c) {
    Xoshiro256 structure_rng(derive_seed(structure_seed, c));
    Xoshiro256 weight_rng(derive_seed(weight_seed, c));
    const std::uint64_t first = c * kChunkEdges;
    const std::uint64_t last =
        std::min(first + kChunkEdges, params.num_edges);
    chunk.clear();
    for (std::uint64_t i = first; i < last; ++i) {
      const Edge e = draw(structure_rng, weight_rng);
      if (params.remove_self_loops && e.src == e.dst) continue;
      chunk.push_back(e);
    }
    sink(std::span<const Edge>(chunk));
  }
}

/// RMAT quadrant probabilities (the Graph500 values); d is 1 - a - b - c.
constexpr double kRmatA = 0.57;
constexpr double kRmatB = 0.19;
constexpr double kRmatC = 0.19;
constexpr double kRmatD = 1.0 - kRmatA - kRmatB - kRmatC;
static_assert(kRmatD > 0.0, "RMAT probabilities must sum below 1");
/// Per-level probability noise, as in PaRMAT, to avoid exact
/// self-similar artifacts.
constexpr double kRmatNoise = 0.1;

/// One RMAT edge: quadrant recursion with per-level probability noise.
Edge draw_rmat_edge(Xoshiro256& structure_rng, Xoshiro256& weight_rng,
                    const GenParams& params, int levels) {
  VertexId src = 0;
  VertexId dst = 0;
  for (int level = 0; level < levels; ++level) {
    // Jitter the quadrant probabilities per level (PaRMAT-style
    // noise) so the degree distribution is power-law but not
    // exactly fractal.
    const double na =
        kRmatA * (1.0 + kRmatNoise * (structure_rng.next_double() - 0.5));
    const double nb =
        kRmatB * (1.0 + kRmatNoise * (structure_rng.next_double() - 0.5));
    const double nc =
        kRmatC * (1.0 + kRmatNoise * (structure_rng.next_double() - 0.5));
    const double nd =
        kRmatD * (1.0 + kRmatNoise * (structure_rng.next_double() - 0.5));
    const double total = na + nb + nc + nd;
    const double r = structure_rng.next_double() * total;
    src <<= 1;
    dst <<= 1;
    if (r < na) {
      // top-left quadrant: no bits set
    } else if (r < na + nb) {
      dst |= 1;
    } else if (r < na + nb + nc) {
      src |= 1;
    } else {
      src |= 1;
      dst |= 1;
    }
  }
  // When |V| is not a power of two the recursion can address
  // vertices past the end; fold them back uniformly.
  if (src >= params.num_vertices) src %= params.num_vertices;
  if (dst >= params.num_vertices) dst %= params.num_vertices;
  return Edge{src, dst, draw_weight(weight_rng, params)};
}

Edge draw_uniform_edge(Xoshiro256& structure_rng, Xoshiro256& weight_rng,
                       const GenParams& params) {
  const auto src = static_cast<VertexId>(
      structure_rng.next_below(params.num_vertices));
  const auto dst = static_cast<VertexId>(
      structure_rng.next_below(params.num_vertices));
  return Edge{src, dst, draw_weight(weight_rng, params)};
}

}  // namespace

EdgeList generate_rmat(const GenParams& params) {
  ACIC_ASSERT(params.num_vertices > 0);

  const int levels = levels_for(params.num_vertices);
  std::vector<Edge> edges(params.num_edges);

  generate_chunked(
      params,
      [&](Xoshiro256& structure_rng, Xoshiro256& weight_rng,
          std::uint64_t i) {
        edges[i] = draw_rmat_edge(structure_rng, weight_rng, params, levels);
      });

  EdgeList list(params.num_vertices, std::move(edges));
  finalize(list, params);
  return list;
}

void stream_rmat(const GenParams& params, const EdgeSink& sink) {
  ACIC_ASSERT(params.num_vertices > 0);
  const int levels = levels_for(params.num_vertices);
  stream_chunked(params, sink,
                 [&](Xoshiro256& structure_rng, Xoshiro256& weight_rng) {
                   return draw_rmat_edge(structure_rng, weight_rng,
                                         params, levels);
                 });
}

EdgeList generate_uniform_random(const GenParams& params) {
  ACIC_ASSERT(params.num_vertices > 0);
  std::vector<Edge> edges(params.num_edges);

  generate_chunked(
      params,
      [&](Xoshiro256& structure_rng, Xoshiro256& weight_rng,
          std::uint64_t i) {
        edges[i] = draw_uniform_edge(structure_rng, weight_rng, params);
      });

  EdgeList list(params.num_vertices, std::move(edges));
  finalize(list, params);
  return list;
}

void stream_uniform_random(const GenParams& params, const EdgeSink& sink) {
  ACIC_ASSERT(params.num_vertices > 0);
  stream_chunked(params, sink,
                 [&](Xoshiro256& structure_rng, Xoshiro256& weight_rng) {
                   return draw_uniform_edge(structure_rng, weight_rng,
                                            params);
                 });
}

EdgeList generate_erdos_renyi(const GenParams& params) {
  ACIC_ASSERT(params.num_vertices > 1);
  const auto n = static_cast<std::uint64_t>(params.num_vertices);
  ACIC_ASSERT_MSG(params.num_edges <= n * (n - 1),
                  "G(n, m) requires m <= n*(n-1) distinct directed edges");

  const std::uint64_t structure_seed = derive_seed(params.seed, 0);
  const std::uint64_t weight_seed = derive_seed(params.seed, 1);

  // Rejection sampling in rounds: each round generates a batch of
  // candidate edges in parallel (one counter-derived stream per chunk),
  // then a serial in-order pass deduplicates them.  Candidate content
  // depends only on the round's chunk indices — which depend only on how
  // many edges were still missing, itself deterministic — so the result
  // is identical at any thread count.  For the sparse regimes we target
  // (m << n^2) the expected number of rejected candidates is negligible.
  auto key = [n](VertexId s, VertexId t) {
    return static_cast<std::uint64_t>(s) * n + t;
  };
  struct Hash {
    std::size_t operator()(std::uint64_t k) const noexcept {
      util::SplitMix64 sm(k);
      return static_cast<std::size_t>(sm.next());
    }
  };
  std::unordered_set<std::uint64_t, Hash> used;
  used.reserve(params.num_edges * 2);

  std::vector<Edge> edges;
  edges.reserve(params.num_edges);
  std::vector<Edge> candidates;
  std::uint64_t next_chunk = 0;
  while (edges.size() < params.num_edges) {
    const std::uint64_t need = params.num_edges - edges.size();
    const std::uint64_t num_chunks = (need + kChunkEdges - 1) / kChunkEdges;
    candidates.resize(need);
    parallel_for(num_chunks, params.threads, [&](std::uint64_t c) {
      Xoshiro256 structure_rng(
          derive_seed(structure_seed, next_chunk + c));
      Xoshiro256 weight_rng(derive_seed(weight_seed, next_chunk + c));
      const std::uint64_t first = c * kChunkEdges;
      const std::uint64_t last = std::min(first + kChunkEdges, need);
      for (std::uint64_t i = first; i < last; ++i) {
        const auto src =
            static_cast<VertexId>(structure_rng.next_below(n));
        const auto dst =
            static_cast<VertexId>(structure_rng.next_below(n));
        candidates[i] = Edge{src, dst, draw_weight(weight_rng, params)};
      }
    });
    next_chunk += num_chunks;
    for (const Edge& e : candidates) {
      if (edges.size() == params.num_edges) break;
      if (e.src == e.dst) continue;
      if (!used.insert(key(e.src, e.dst)).second) continue;
      edges.push_back(e);
    }
  }

  EdgeList list(params.num_vertices, std::move(edges));
  list.sort_by_source(params.threads);
  return list;
}

EdgeList generate_grid_road(const GridParams& grid, std::uint64_t seed,
                            Weight min_weight, Weight max_weight) {
  ACIC_ASSERT(grid.width > 0 && grid.height > 0);
  const VertexId n = grid.width * grid.height;
  Xoshiro256 weight_rng(derive_seed(seed, 1));
  Xoshiro256 shortcut_rng(derive_seed(seed, 2));

  EdgeList list(n, {});
  auto id = [&](VertexId x, VertexId y) { return y * grid.width + x; };
  auto add_bidirectional = [&](VertexId u, VertexId v) {
    const Weight w = weight_rng.next_double(min_weight, max_weight);
    list.add(u, v, w);
    list.add(v, u, w);
  };
  for (VertexId y = 0; y < grid.height; ++y) {
    for (VertexId x = 0; x < grid.width; ++x) {
      if (x + 1 < grid.width) add_bidirectional(id(x, y), id(x + 1, y));
      if (y + 1 < grid.height) add_bidirectional(id(x, y), id(x, y + 1));
    }
  }
  const auto num_shortcuts =
      static_cast<std::uint64_t>(grid.shortcut_fraction * n);
  for (std::uint64_t i = 0; i < num_shortcuts; ++i) {
    const auto u = static_cast<VertexId>(shortcut_rng.next_below(n));
    const auto v = static_cast<VertexId>(shortcut_rng.next_below(n));
    if (u == v) continue;
    // Highways: longer but proportionally cheap relative to hop count.
    const Weight w = weight_rng.next_double(min_weight, max_weight) * 4.0;
    list.add(u, v, w);
    list.add(v, u, w);
  }
  list.sort_by_source();
  return list;
}

}  // namespace acic::graph
