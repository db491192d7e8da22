#pragma once
// Open-loop query workload generation for the serving layer.
//
// A real graph service does not answer one SSSP query per machine
// lifetime; it faces a *stream* of queries whose arrival times it does
// not control (open-loop: arrivals keep coming whether or not the
// service has caught up — this is what makes queueing visible, unlike a
// closed loop that politely waits).  We model the stream the standard
// way:
//   * arrivals  — a Poisson process at a configured mean rate (QPS),
//     i.e. exponential inter-arrival gaps;
//   * sources   — Zipf-distributed popularity over a bounded universe of
//     source vertices, so a hot head of repeat sources exists for the
//     result cache to exploit while the tail stays cold;
//   * targets   — a configured fraction of queries is point-to-point:
//     the target is drawn from the *same* Zipf universe (popular places
//     are popular as destinations too), independently of the source.
// Everything is deterministic in the seed: the same config produces the
// same (id, arrival time, source, target) sequence on every run, which
// the determinism regression tests rely on.  The p2p coin and target
// draws use their own RNG streams, so p2p_fraction = 0 reproduces the
// historical source-only stream bit-for-bit.
//
// Streams compose: generate_workload may be called repeatedly with
// `first_id` advanced past the previous batch and `start_us` at or past
// the previous batch's last arrival; ids then stay unique and arrivals
// non-decreasing across concatenated QueryService::submit calls, which
// the service enforces with asserts.
//
// Dynamic serving adds a second stream: timestamped *mutation batches*
// (generate_mutation_stream) that the service applies to its
// DynamicGraph while queries are in flight.  Batches arrive Poisson at
// a configured batch rate; each batch mixes inserts, removals and
// reweights.  Removal/reweight targets are drawn from the base graph's
// edge set so most of them hit a live edge (a target already removed is
// simply rejected by DynamicGraph::apply — realistic feeds contain such
// no-ops too).  Deterministic in the seed like the query stream.

#include <cstdint>
#include <vector>

#include "src/dynamic/mutation.hpp"
#include "src/graph/csr.hpp"
#include "src/graph/types.hpp"
#include "src/runtime/network.hpp"

namespace acic::server {

/// What the caller wants back from a query.
enum class ResultMode : std::uint8_t {
  /// The full |V| distance vector from `source` (the classic query).
  kFullDistances = 0,
  /// The single distance d(source, target).  These are the queries the
  /// landmark / goal-directed tiers can serve without an engine.
  kPointToPoint = 1,
};

/// One query in the stream.  Replaces the source-only `QueryArrival` of
/// earlier revisions (see docs/serving.md for the migration note): a
/// query now carries an optional target and a result mode.
struct Query {
  std::uint64_t id = 0;
  runtime::SimTime arrival_us = 0.0;
  graph::VertexId source = 0;
  /// Meaningful only in kPointToPoint mode; kInvalidVertex otherwise.
  graph::VertexId target = graph::kInvalidVertex;
  ResultMode mode = ResultMode::kFullDistances;

  bool is_p2p() const { return mode == ResultMode::kPointToPoint; }

  static Query full(std::uint64_t id, runtime::SimTime arrival_us,
                    graph::VertexId source) {
    return Query{id, arrival_us, source, graph::kInvalidVertex,
                 ResultMode::kFullDistances};
  }
  static Query p2p(std::uint64_t id, runtime::SimTime arrival_us,
                   graph::VertexId source, graph::VertexId target) {
    return Query{id, arrival_us, source, target,
                 ResultMode::kPointToPoint};
  }
};

struct WorkloadConfig {
  std::uint64_t seed = 1;
  /// Offered load, in queries per simulated second.
  double qps = 2000.0;
  /// Number of queries to generate.
  std::uint64_t num_queries = 200;
  /// Zipf popularity exponent s (rank r drawn with weight 1/r^s);
  /// 0 degenerates to uniform over the universe.
  double zipf_exponent = 0.9;
  /// Number of distinct source vertices queries are drawn from (clamped
  /// to the graph's vertex count).  The universe is a seeded sample of
  /// the vertex set, so popular sources are spread across PE owners.
  std::uint32_t source_universe = 64;
  /// Simulated time of the first possible arrival.
  runtime::SimTime start_us = 0.0;
  /// Fraction of queries that are point-to-point; their target is an
  /// independent draw from the same Zipf'd universe.  0 reproduces the
  /// historical full-SSSP-only stream exactly (dedicated RNG streams).
  double p2p_fraction = 0.0;
  /// Id of the first generated query.  For concatenated submissions set
  /// this to the previous batch's first_id + num_queries (and start_us
  /// at or past its last arrival) — QueryService::submit asserts id
  /// uniqueness and arrival monotonicity.
  std::uint64_t first_id = 0;
};

/// Generates the deterministic query stream for `config` over a graph of
/// `num_vertices` vertices.  Arrival times are strictly non-decreasing;
/// ids are first_id .. first_id + num_queries - 1 in arrival order.
std::vector<Query> generate_workload(const WorkloadConfig& config,
                                     graph::VertexId num_vertices);

struct MutationWorkloadConfig {
  std::uint64_t seed = 7;
  /// Offered mutation load, in *individual edge mutations* per simulated
  /// second; batches arrive Poisson at rate mutation_rate / batch_size.
  double mutation_rate = 500.0;
  /// Mutations per applied batch (one batch = one epoch).
  std::size_t batch_size = 8;
  std::uint64_t num_batches = 50;
  /// Inserted / reweighted edge weights, uniform in [min, max).
  double min_weight = 1.0;
  double max_weight = 10.0;
  runtime::SimTime start_us = 0.0;
};

/// One mutation batch and the simulated time it applies.
struct MutationEvent {
  runtime::SimTime apply_us = 0.0;
  dynamic::MutationBatch batch;
};

/// Generates the deterministic mutation stream for `config` against
/// `base` (edge targets for remove/reweight are sampled from its edge
/// set; insert endpoints from its vertex set).  Apply times are
/// strictly non-decreasing.
std::vector<MutationEvent> generate_mutation_stream(
    const MutationWorkloadConfig& config, const graph::Csr& base);

}  // namespace acic::server
