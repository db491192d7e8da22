#include "src/server/workload.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/util/assert.hpp"
#include "src/util/rng.hpp"

namespace acic::server {

namespace {

/// Seeded sample of `count` distinct vertices (rejection sampling; the
/// universe is tiny relative to the graph so collisions are rare).
std::vector<graph::VertexId> sample_universe(graph::VertexId num_vertices,
                                             std::uint32_t count,
                                             util::Xoshiro256& rng) {
  std::vector<graph::VertexId> universe;
  universe.reserve(count);
  std::unordered_set<graph::VertexId> seen;
  while (universe.size() < count) {
    const auto v =
        static_cast<graph::VertexId>(rng.next_below(num_vertices));
    if (seen.insert(v).second) universe.push_back(v);
  }
  return universe;
}

/// Cumulative Zipf weights over ranks 1..n: cdf[r] = sum_{k<=r+1} k^-s.
std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += std::pow(static_cast<double>(r + 1), -s);
    cdf[r] = acc;
  }
  return cdf;
}

/// Mutation kind mix; the remainder (1 - insert - remove) reweights.
constexpr double kInsertFraction = 0.3;
constexpr double kRemoveFraction = 0.3;
static_assert(kInsertFraction >= 0.0 && kRemoveFraction >= 0.0 &&
                  kInsertFraction + kRemoveFraction <= 1.0,
              "mutation kind fractions must be a sub-distribution");

}  // namespace

std::vector<Query> generate_workload(const WorkloadConfig& config,
                                     graph::VertexId num_vertices) {
  ACIC_ASSERT_MSG(num_vertices > 0, "workload needs a non-empty graph");
  ACIC_ASSERT_MSG(config.qps > 0.0, "workload qps must be positive");
  ACIC_ASSERT_MSG(config.zipf_exponent >= 0.0,
                  "zipf exponent must be non-negative");
  ACIC_ASSERT_MSG(config.p2p_fraction >= 0.0 && config.p2p_fraction <= 1.0,
                  "p2p fraction must be a probability");

  const std::uint32_t universe_size = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(config.source_universe, num_vertices));

  // Independent streams so e.g. widening the universe does not perturb
  // the arrival-time sequence, and — crucially for the seeded
  // regression baselines — p2p_fraction = 0 leaves the historical
  // (arrival, source) sequence untouched: the coin and target streams
  // are drawn from their own generators.
  util::Xoshiro256 universe_rng(util::derive_seed(config.seed, 0));
  util::Xoshiro256 arrival_rng(util::derive_seed(config.seed, 1));
  util::Xoshiro256 source_rng(util::derive_seed(config.seed, 2));
  util::Xoshiro256 p2p_coin_rng(util::derive_seed(config.seed, 3));
  util::Xoshiro256 target_rng(util::derive_seed(config.seed, 4));

  const std::vector<graph::VertexId> universe =
      sample_universe(num_vertices, universe_size, universe_rng);
  const std::vector<double> cdf =
      zipf_cdf(universe.size(), config.zipf_exponent);
  const double total = cdf.back();

  const auto zipf_pick = [&](util::Xoshiro256& rng) {
    const double u = rng.next_double() * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const std::size_t rank = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf.begin(),
                                 static_cast<std::ptrdiff_t>(cdf.size()) - 1));
    return universe[rank];
  };

  // Exponential inter-arrival gaps: -ln(1-u)/lambda, lambda in 1/us.
  const double lambda_per_us = config.qps * 1e-6;

  std::vector<Query> stream;
  stream.reserve(config.num_queries);
  runtime::SimTime t = config.start_us;
  for (std::uint64_t q = 0; q < config.num_queries; ++q) {
    t += -std::log(1.0 - arrival_rng.next_double()) / lambda_per_us;
    const graph::VertexId source = zipf_pick(source_rng);
    const std::uint64_t id = config.first_id + q;
    if (p2p_coin_rng.next_double() < config.p2p_fraction) {
      // Target correlated with the same popularity skew (popular places
      // are popular destinations too); target == source is legitimate
      // and served by the trivial d(s, s) = 0 tier.
      stream.push_back(Query::p2p(id, t, source, zipf_pick(target_rng)));
    } else {
      stream.push_back(Query::full(id, t, source));
    }
  }
  return stream;
}

std::vector<MutationEvent> generate_mutation_stream(
    const MutationWorkloadConfig& config, const graph::Csr& base) {
  ACIC_ASSERT_MSG(base.num_vertices() >= 2,
                  "mutation stream needs at least two vertices");
  ACIC_ASSERT_MSG(base.num_edges() > 0,
                  "mutation stream samples targets from the edge set");
  ACIC_ASSERT_MSG(config.mutation_rate > 0.0 && config.batch_size > 0,
                  "mutation rate and batch size must be positive");

  util::Xoshiro256 arrival_rng(util::derive_seed(config.seed, 10));
  util::Xoshiro256 kind_rng(util::derive_seed(config.seed, 11));
  util::Xoshiro256 edge_rng(util::derive_seed(config.seed, 12));
  util::Xoshiro256 weight_rng(util::derive_seed(config.seed, 13));

  const graph::VertexId n = base.num_vertices();
  // Row of edge index e: the offsets array is ascending, so the owning
  // source is the last row starting at or before e.
  const auto src_of = [&base](std::size_t e) {
    const auto& offsets = base.offsets();
    const auto it = std::upper_bound(offsets.begin(), offsets.end(), e);
    return static_cast<graph::VertexId>(it - offsets.begin()) - 1;
  };

  const double batches_per_us =
      config.mutation_rate / static_cast<double>(config.batch_size) * 1e-6;

  std::vector<MutationEvent> stream;
  stream.reserve(config.num_batches);
  runtime::SimTime t = config.start_us;
  for (std::uint64_t b = 0; b < config.num_batches; ++b) {
    t += -std::log(1.0 - arrival_rng.next_double()) / batches_per_us;
    MutationEvent event;
    event.apply_us = t;
    event.batch.reserve(config.batch_size);
    for (std::size_t m = 0; m < config.batch_size; ++m) {
      const double u = kind_rng.next_double();
      const double w =
          weight_rng.next_double(config.min_weight, config.max_weight);
      if (u < kInsertFraction) {
        // Random (src, dst) pair; a collision with an existing edge is a
        // legitimate upsert, a self edge is rejected downstream.
        const auto src = static_cast<graph::VertexId>(edge_rng.next_below(n));
        const auto dst = static_cast<graph::VertexId>(edge_rng.next_below(n));
        event.batch.push_back(dynamic::Mutation::insert(src, dst, w));
      } else {
        const std::size_t e = edge_rng.next_below(base.num_edges());
        const graph::VertexId src = src_of(e);
        const graph::VertexId dst = base.neighbors()[e].dst;
        if (u < kInsertFraction + kRemoveFraction) {
          event.batch.push_back(dynamic::Mutation::remove(src, dst));
        } else {
          event.batch.push_back(dynamic::Mutation::reweight(src, dst, w));
        }
      }
    }
    stream.push_back(std::move(event));
  }
  return stream;
}

}  // namespace acic::server
