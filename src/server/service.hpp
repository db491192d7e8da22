#pragma once
// QueryService — concurrent multi-query SSSP serving on one simulated
// machine.
//
// The classic repo flow answers one query per Machine lifetime:
// construct engine, run(), drain, read distances.  The service instead
// treats the machine as a long-running system: an open-loop workload
// (src/server/workload.hpp) is registered as schedule_at timers, and the
// event loop interleaves query arrivals with the tram/reduction/
// termination traffic of every query already in flight.
//
// Lifecycle of one query (docs/serving.md draws the full tier diagram):
//
//   arrival timer (front-end PE)
//     ├─ result cache hit?  serve immediately (full vector, or dist[t]
//     │  for a point-to-point query — the cache stays keyed by source)
//     ├─ p2p and the landmark tier proves the answer (s == t, landmark
//     │  row hit, structural unreachability)?  serve exactly, no search
//     ├─ p2p and goal-directed serving is on?  front-end A* with the
//     │  landmark heuristic — exact, charged per settled vertex
//     └─ otherwise: join the FIFO admission queue
//   admission (capacity below max_inflight frees up)
//     ├─ result cached while waiting?  serve without an engine
//     ├─ a parked stale state exists?  solo warm-repair admission
//     └─ else coalesce up to batching.max_batch queued queries into ONE
//        multi-source engine pass: distinct sources become frontier
//        lanes (AcicEngineOptions::sources), every lane's distances are
//        exactly what a solo run would produce, and each lane fills the
//        result cache on completion
//   completion (the engine's termination broadcast reaches every PE)
//     ├─ collect lane distances, fill the cache, record latencies
//     ├─ retire the engine in a separately scheduled task (engine code
//     │  is still on the stack when on_complete fires)
//     └─ admit the next waiting batch
//
// Every tier returns distances *exactly* equal to a dedicated engine
// pass — the tiers trade work, never accuracy.  bench/server_load
// re-solves every query solo and exits nonzero on any divergence.
//
// Multi-tenancy rests on two properties of the lower layers: each engine
// owns its tram instance and reduction tree (traffic is namespaced by
// the closures it travels in, so interleaved queries cannot corrupt one
// another), and engines register idle-time pq drains through
// Machine::add_idle_handler, which polls the active queries' handlers
// round-robin instead of letting the newest engine clobber the rest.
//
// The admission controller bounds concurrently running engines: each
// engine costs every PE pq/histogram/reduction state and adds reduction
// traffic, so unbounded admission degrades every in-flight query at
// once (the bench sweeps this).  Excess queries wait in FIFO order —
// deliberate backpressure that shows up as queue_wait_us in the metrics.
// Batching keeps that bound while multiplying throughput: a batch of k
// compatible queries shares one admission slot and one engine pass.
//
// There is a single serving code path: the static-graph constructor
// copies the Csr into a private single-epoch DynamicGraph, so "static"
// is simply "dynamic with zero mutations" (epoch stays 0 and none of
// the churn machinery activates).  Dynamic serving (the DynamicGraph
// constructor) interleaves a third event class: *mutation batches*
// (submit_mutations), applied on the front end while queries run.
// Consistency under churn:
//
//   * every admitted engine pins the graph snapshot current at its
//     admission (shared_ptr), so a query's answer is exact for that
//     epoch even if the graph moves on mid-run (bounded staleness; the
//     record carries its epoch);
//   * each applied batch sweeps the result cache with exact per-edge
//     staleness tests — a removed/increased edge (u, v) only matters to
//     an entry if D[u] + w_old == D[v] (the edge was a shortest-path
//     witness; equality is conservative since the witness may be
//     redundant), an inserted/decreased edge only if D[u] + w_new <
//     D[v].  Surviving entries are provably still exact and stay;
//   * landmark rows are swept with the same per-edge tests (they are
//     distance vectors too); invalid rows stop contributing to bounds
//     and heuristics (exactness preserved, guidance weakens) until a
//     refresh recomputes them;
//   * stale entries are *parked*, not discarded: the next query for
//     that source turns the parked distances into a warm start
//     (src/dynamic/repair.hpp) — often the repair plan proves the old
//     answer still exact and the query completes with no engine at all;
//   * results finishing against an epoch older than current are served
//     but not cached (stale_results_dropped counts them).
//
// Observability is the machine's: attach a registry and tracer with
// Machine::set_registry / set_tracer before constructing the service.
// Counters (registry): "server/queries_submitted", "server/completed",
// "server/cache_hits", "server/batches_started",
// "server/batched_queries", "server/landmark_exact",
// "server/goal_directed", plus — under churn —
// "server/mutations_applied", "server/repair_queries",
// "server/recompute_queries", "server/stale_results_dropped",
// "cache/invalidations" (attributed to the partition block owning the
// mutated edge head), "cache/stale_hits_prevented", and
// "landmarks/rows_invalidated" / "landmarks/rows_refreshed".  Front-end
// handlers (arrival, mutation, completion) record named spans on the
// tracer; for long workloads give it a capacity bound
// (Tracer::set_capacity).

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/acic.hpp"
#include "src/dynamic/dynamic_graph.hpp"
#include "src/graph/csr.hpp"
#include "src/graph/partition.hpp"
#include "src/obs/registry.hpp"
#include "src/runtime/machine.hpp"
#include "src/runtime/trace.hpp"
#include "src/server/cache.hpp"
#include "src/server/metrics.hpp"
#include "src/server/workload.hpp"
#include "src/sssp/landmarks.hpp"

namespace acic::server {

/// Coalescing of queued queries into shared multi-source engine passes.
struct BatchPolicy {
  /// Maximum queries coalesced into one engine pass (distinct sources
  /// become frontier lanes; duplicate sources share a lane).  1 keeps
  /// the classic one-engine-per-query behavior.  Bounded by the
  /// engine's lane limit (256).
  std::size_t max_batch = 1;
};

/// Landmark (ALT) tier for point-to-point queries.
struct LandmarkPolicy {
  /// Landmarks to precompute at construction; 0 disables the tier
  /// (p2p queries then fall through to full engine passes).  The 2k
  /// Dijkstra rows are built offline — no simulated time is charged.
  std::size_t num_landmarks = 0;
  /// Serve p2p cache misses with a front-end goal-directed A* search
  /// instead of queueing them for an engine.  Exact (see
  /// src/sssp/landmarks.hpp); false restricts the tier to the
  /// no-search exact answers.
  bool goal_directed = true;
  /// Front-end CPU charged per landmark-table consultation.
  runtime::SimTime lookup_cost_us = 0.1;
  /// Front-end CPU charged per vertex the A* search settles.
  runtime::SimTime astar_settle_cost_us = 0.05;
  /// Recompute invalid rows after a mutation batch once at least this
  /// fraction of rows is invalid (1.0 = never refresh, rows just stop
  /// guiding; 0.0 = refresh eagerly every time a row dies).
  double refresh_fraction = 0.5;
  /// Front-end CPU charged per refreshed row (a full Dijkstra).
  runtime::SimTime refresh_cost_us = 20.0;
};

/// Knobs for serving under churn (DynamicGraph constructor).  Grouped:
/// earlier revisions spread these flat over ServiceConfig.
struct DynamicPolicy {
  /// Front-end CPU charged per applied mutation record.
  runtime::SimTime mutation_apply_cost_us = 0.5;
  /// Front-end CPU charged to plan one warm repair at admission.
  runtime::SimTime repair_plan_cost_us = 1.0;
  /// Invalidated cache entries parked as warm-repair states (0 disables
  /// warm repair; oldest parked state evicted beyond the bound).
  std::size_t max_stale_states = 8;
  /// A warm repair whose invalidated subtree exceeds this fraction of
  /// the vertices falls back to a cold engine.
  double recompute_fraction = 0.25;
};

struct ServiceConfig {
  /// Per-query engine configuration (thresholds, tram, costs).
  core::AcicConfig engine;
  /// Admission bound: maximum concurrently running engines (a batch
  /// occupies one slot regardless of its lane count).
  std::uint32_t max_inflight = 2;
  /// Result-cache capacity in entries; 0 disables caching.
  std::size_t cache_capacity = 8;
  /// Front-end CPU charged per cache lookup.
  runtime::SimTime cache_lookup_cost_us = 0.2;
  /// PE that runs the front end (arrival handling, admission).
  runtime::PeId frontend_pe = 0;
  /// Retain every completed full-SSSP query's distance vector so
  /// result_of() can return it (memory-heavy; for tests and validation
  /// harnesses).  Point-to-point results are scalars and are always
  /// retained.  Replaces the old keep_distances + distances_for pair.
  bool retain_full_results = false;

  BatchPolicy batching;
  LandmarkPolicy landmarks;
  DynamicPolicy dynamics;
};

/// Typed result of one completed query, addressable by id.
struct QueryResult {
  ResultMode mode = ResultMode::kFullDistances;
  /// kFullDistances only; populated iff retain_full_results.
  std::vector<graph::Dist> distances;
  /// kPointToPoint only: d(source, target), kInfDist if unreachable.
  graph::Dist distance = graph::kInfDist;
};

class QueryService {
 public:
  /// Static serving: `csr` is copied into a service-owned single-epoch
  /// DynamicGraph (self loops dropped, duplicate edges collapsed to the
  /// lightest — distance-preserving), so it need not outlive the
  /// service.  `partition` must outlive it and match machine.num_pes().
  QueryService(runtime::Machine& machine, const graph::Csr& csr,
               const graph::Partition1D& partition, ServiceConfig config);

  /// Dynamic serving: queries run against `graph`'s snapshots while
  /// submit_mutations applies batches under load.  `graph` and
  /// `partition` must outlive the service; the vertex count (and hence
  /// the partition) is invariant under mutation.
  QueryService(runtime::Machine& machine, dynamic::DynamicGraph& graph,
               const graph::Partition1D& partition, ServiceConfig config);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Registers an arrival timer per query.  May be called repeatedly;
  /// asserts the workload contract: ids unique across *all* submissions
  /// and arrival times non-decreasing across concatenated calls (and
  /// never before the machine's current time).  generate_workload's
  /// first_id / start_us fields exist to satisfy this.
  void submit(const std::vector<Query>& queries);

  /// Registers an apply timer per mutation batch (dynamic serving only;
  /// asserts otherwise).  Batches apply on the front-end PE, sweep the
  /// cache and the landmark rows, and park stale entries for warm
  /// repair.
  void submit_mutations(const std::vector<MutationEvent>& events);

  /// Applied mutation records so far (dynamic serving; 0 otherwise).
  std::uint64_t mutations_applied() const { return mutations_applied_; }
  /// Completed results dropped from caching because the graph moved on
  /// mid-run (their record still carries the epoch they are exact for).
  std::uint64_t stale_results_dropped() const {
    return stale_results_dropped_;
  }
  /// Multi-source engine passes started (each covers >= 2 queries).
  std::uint64_t batches_started() const { return batches_started_; }

  /// Drives the machine until all traffic drains (every submitted query
  /// complete) or the time limit strikes.  Completed engines are
  /// reclaimed before returning.
  runtime::RunStats run(runtime::SimTime time_limit_us =
                            runtime::kNoTimeLimit);

  std::uint64_t submitted_count() const { return submitted_; }
  std::uint64_t completed_count() const;

  /// Completion-order per-query records and queue-depth samples.
  const std::vector<QueryRecord>& records() const;
  const std::vector<QueueDepthSample>& queue_samples() const;
  const DistanceCache& cache() const { return cache_; }
  ServiceSummary summary() const;

  /// O(1) typed result lookup for a completed query; nullptr for an
  /// unknown id, a query still in flight, or a full-SSSP query with
  /// retain_full_results off.  Replaces scanning records() and the old
  /// keep_distances / distances_for pair.
  const QueryResult* result_of(std::uint64_t id) const;
  /// O(1) record lookup by query id (nullptr for an unknown id; the
  /// record is complete iff complete_us has been stamped).
  const QueryRecord* record_of(std::uint64_t id) const;

  /// The landmark index (nullptr unless landmarks.num_landmarks > 0).
  const sssp::LandmarkIndex* landmark_index() const {
    return landmarks_index_.get();
  }

 private:
  struct Pending {
    std::uint64_t id = 0;
    graph::VertexId source = 0;
    std::size_t record_index = 0;
  };
  /// One query riding an engine pass: `lane` indexes the pass's source
  /// lanes (always 0 for a solo pass).
  struct BatchMember {
    std::uint64_t id = 0;
    std::size_t record_index = 0;
    std::uint32_t lane = 0;
  };
  struct InFlight {
    /// Completion key: the first member's query id.
    std::uint64_t key = 0;
    std::vector<BatchMember> members;
    /// Distinct sources, one per lane (size 1 for a solo pass).
    std::vector<graph::VertexId> lane_sources;
    std::unique_ptr<core::AcicEngine> engine;
    /// The snapshot the engine runs on, pinned for its lifetime.
    std::shared_ptr<const dynamic::GraphSnapshot> snap;
  };
  /// A parked invalidated cache entry: exact distances for `epoch`,
  /// whose snapshot `snap` pins, awaiting a query to warm-repair.
  struct StaleState {
    std::vector<graph::Dist> dist;
    std::uint64_t epoch = 0;
    std::shared_ptr<const dynamic::GraphSnapshot> snap;
  };

  QueryService(runtime::Machine& machine,
               std::unique_ptr<dynamic::DynamicGraph> owned,
               dynamic::DynamicGraph* external,
               const graph::Partition1D& partition, ServiceConfig config);

  void define_counters();
  void on_arrival(runtime::Pe& pe, std::size_t record_index);
  /// Serves a query whose full vector sits in the cache (p2p queries
  /// read dist[target] from it).
  void serve_from_cache(runtime::Pe& pe, std::size_t record_index);
  /// Landmark tiers for a p2p arrival: exact table answer or
  /// goal-directed A*.  Returns true iff the query was served.
  bool serve_p2p_frontend(runtime::Pe& pe, std::size_t record_index);
  void try_admit(runtime::Pe& pe);
  /// Starts a solo engine for `pending`, or — when a parked stale state
  /// proves the old answer still exact — completes it engine-free.
  /// Returns true iff an engine now occupies an admission slot.
  bool start_engine(runtime::Pe& pe, const Pending& pending);
  /// Starts one multi-source engine pass covering `members` (>= 2).
  void start_batch(runtime::Pe& pe, const std::vector<Pending>& members);
  void on_engine_complete(runtime::Pe& pe, std::uint64_t key);
  /// Stamps completion, publishes counters, stores the typed result
  /// (full vectors only when `dist` is non-null and retention asks).
  void complete_record(runtime::Pe& pe, std::size_t record_index,
                       ServeTier tier,
                       const std::vector<graph::Dist>* dist);
  void sample_queue(runtime::SimTime time_us);
  void schedule_retirement_sweep(runtime::Pe& pe);
  void apply_mutations(runtime::Pe& pe, const dynamic::MutationBatch& batch);
  void park_stale_state(graph::VertexId source, StaleState state);

  const graph::Csr& graph_view() const { return dynamic_->csr(); }

  runtime::Machine& machine_;
  /// The machine's observers, read at construction (null = off).
  obs::Registry* const registry_;
  runtime::Tracer* const tracer_;
  /// Static constructor: the service-owned wrapper graph.  Null when
  /// the caller provided the DynamicGraph (mutations allowed).
  std::unique_ptr<dynamic::DynamicGraph> owned_graph_;
  /// The graph every query runs against; never null (single code path).
  dynamic::DynamicGraph* dynamic_ = nullptr;
  const graph::Partition1D& partition_;
  ServiceConfig config_;

  DistanceCache cache_;
  ServiceMetrics metrics_;
  std::unique_ptr<sssp::LandmarkIndex> landmarks_index_;
  sssp::P2pWorkspace p2p_workspace_;

  std::uint64_t submitted_ = 0;
  /// Arrival time of the last submitted query (monotonicity assert).
  runtime::SimTime last_submitted_arrival_us_ = 0.0;
  /// Records indexed by submission order; copied into metrics_ (which
  /// holds completion order) when the query finishes.
  std::vector<QueryRecord> pending_records_;
  /// Query id -> index into pending_records_ (uniqueness + O(1) lookup).
  std::unordered_map<std::uint64_t, std::size_t> record_of_id_;
  std::vector<Pending> wait_queue_;  // FIFO admission queue (front = next)
  std::vector<InFlight> running_;
  /// Engines whose queries completed but whose final broadcast task may
  /// still be on the stack; destroyed by a separately scheduled sweep.
  std::vector<std::unique_ptr<core::AcicEngine>> retiring_;
  bool sweep_scheduled_ = false;

  std::unordered_map<std::uint64_t, QueryResult> results_;
  std::uint64_t batches_started_ = 0;

  // Dynamic serving state.
  std::uint64_t mutations_applied_ = 0;
  std::uint64_t stale_results_dropped_ = 0;
  std::unordered_map<graph::VertexId, StaleState> stale_states_;
  std::vector<graph::VertexId> stale_order_;  // front = oldest parked

  // Registry handles; valid iff registry_ != nullptr.
  obs::CounterId obs_submitted_;
  obs::CounterId obs_completed_;
  obs::CounterId obs_cache_hits_;
  obs::CounterId obs_batches_;
  obs::CounterId obs_batched_queries_;
  obs::CounterId obs_landmark_exact_;
  obs::CounterId obs_goal_directed_;
  obs::SeriesId obs_wait_depth_;
  obs::SeriesId obs_running_;
  obs::CounterId obs_mutations_;
  obs::CounterId obs_invalidations_;
  obs::CounterId obs_stale_prevented_;
  obs::CounterId obs_repair_queries_;
  obs::CounterId obs_recompute_queries_;
  obs::CounterId obs_stale_dropped_;
  obs::CounterId obs_rows_invalidated_;
  obs::CounterId obs_rows_refreshed_;
  obs::SeriesId obs_subtree_size_;
};

}  // namespace acic::server
