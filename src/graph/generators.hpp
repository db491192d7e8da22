#pragma once
// Synthetic graph generators.
//
// The paper evaluates on two workloads, both 2^26 vertices / 2^30 edges:
//   * RMAT scale-free graphs (power-law degree distribution; Graph500
//     parameters a=0.57, b=0.19, c=0.19, d=0.05), produced in the paper
//     by the PaRMAT generator.
//   * "random" graphs where both endpoints of every edge are chosen
//     uniformly at random (low diameter, near-uniform degrees).
// We additionally provide an Erdős–Rényi G(n, m) generator and a 2-D
// grid "road" generator, the high-diameter workload the paper's
// future-work section calls out (GAP Road-style).
//
// All generators are deterministic in (params, seed).  Structure and
// weights draw from independent RNG streams so the same topology can be
// re-weighted by changing only the weight seed, matching the paper's
// per-trial reseeding protocol.
//
// Generation is chunked: every fixed-size chunk of edges draws from its
// own counter-derived RNG stream (derive_seed(stream_seed, chunk)), and
// chunks write into pre-assigned output slots.  The output is therefore
// identical at ANY GenParams::threads value, including 1 — thread count
// is a speed knob, never a workload knob.

#include <cstdint>
#include <functional>
#include <span>

#include "src/graph/edge_list.hpp"

namespace acic::graph {

/// Parameters shared by the random-ish generators.
struct GenParams {
  VertexId num_vertices = 1u << 14;
  std::uint64_t num_edges = 1ull << 18;
  std::uint64_t seed = 1;
  /// Edge weights drawn uniformly from [min_weight, max_weight).
  Weight min_weight = 1.0;
  Weight max_weight = 256.0;
  bool remove_self_loops = true;   // PaRMAT -noEdgeToSelf
  bool remove_duplicates = false;  // PaRMAT -noDuplicateEdges
  /// Host threads used to generate and sort the edge list.  Does not
  /// affect the generated graph (see the chunking note above).
  unsigned threads = 1;
};

/// Scale-free RMAT graph (Chakrabarti, Zhan & Faloutsos 2004), with the
/// Graph500 quadrant probabilities the paper's generator uses.
EdgeList generate_rmat(const GenParams& params);

/// The paper's "random" workload: for each edge, origin and destination
/// are independent uniform draws over the vertex set.
EdgeList generate_uniform_random(const GenParams& params);

/// Streaming counterparts for out-of-core builds: emit exactly the edge
/// multiset the materializing generator would produce (same per-chunk
/// RNG streams, GenParams::remove_self_loops applied in place;
/// remove_duplicates is rejected — deduplication needs global state)
/// into `sink` in bounded chunks, never holding more than one chunk in
/// RAM.  Chunks arrive in index order on the calling thread;
/// GenParams::threads is ignored — chunk emission order does not affect
/// a consumer that sorts (StreamingCsrWriter), and the chunk → stream
/// seeding already makes the multiset thread-invariant.
using EdgeSink = std::function<void(std::span<const Edge>)>;
void stream_rmat(const GenParams& params, const EdgeSink& sink);
void stream_uniform_random(const GenParams& params, const EdgeSink& sink);

/// Erdős–Rényi G(n, m): m distinct edges sampled uniformly without
/// replacement (rejection sampling on the (src, dst) pair).
EdgeList generate_erdos_renyi(const GenParams& params);

/// High-diameter "road network" surrogate: a width × height 4-connected
/// grid with bidirectional weighted edges plus a few random shortcuts
/// (params.num_edges is ignored; the grid defines the edge count; extra
/// shortcut edges are controlled by `shortcut_fraction`).
struct GridParams {
  VertexId width = 128;
  VertexId height = 128;
  /// Fraction of |V| added as long-range shortcut edges (highways).
  double shortcut_fraction = 0.01;
};
EdgeList generate_grid_road(const GridParams& grid, std::uint64_t seed,
                            Weight min_weight = 1.0, Weight max_weight = 16.0);

}  // namespace acic::graph
