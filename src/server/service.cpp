#include "src/server/service.hpp"

#include <algorithm>
#include <utility>

#include "src/dynamic/repair.hpp"
#include "src/graph/edge_list.hpp"
#include "src/util/assert.hpp"

namespace acic::server {

namespace {

/// Exact staleness test of one cached distance vector against one net
/// edge change.  Removal / increase of (u, v) can only matter if the
/// edge was a shortest-path witness: D[u] + w_old == D[v] (equality is
/// conservative — the witness may be redundant — but a non-witness edge
/// lies on no shortest path, so inequality is a proof of safety).
/// Insert / decrease matters iff it strictly improves the head.
bool entry_stale(const std::vector<graph::Dist>& d,
                 const dynamic::EdgeDelta& delta) {
  const graph::Dist du = d[delta.src];
  if (du == graph::kInfDist) return false;
  if (delta.is_removal_or_increase() &&
      du + delta.weight_before == d[delta.dst]) {
    return true;
  }
  if (delta.is_insert_or_decrease() &&
      du + delta.weight_after < d[delta.dst]) {
    return true;
  }
  return false;
}

/// Static-constructor wrapper: copies the Csr into a single-epoch
/// DynamicGraph so the service has exactly one serving code path.  The
/// EdgeList round-trip normalizes to the simple-graph contract (self
/// loops dropped, duplicate (src, dst) collapsed to the lightest) —
/// distance-preserving, so every answer matches the original graph.
std::unique_ptr<dynamic::DynamicGraph> wrap_static(const graph::Csr& csr) {
  graph::EdgeList list(csr.num_vertices(), {});
  list.reserve(csr.num_edges());
  for (graph::VertexId v = 0; v < csr.num_vertices(); ++v) {
    for (const graph::Neighbor& nb : csr.out_neighbors(v)) {
      list.add(v, nb.dst, nb.weight);
    }
  }
  return std::make_unique<dynamic::DynamicGraph>(std::move(list));
}

}  // namespace

QueryService::QueryService(runtime::Machine& machine, const graph::Csr& csr,
                           const graph::Partition1D& partition,
                           ServiceConfig config)
    : QueryService(machine, wrap_static(csr), nullptr, partition,
                   std::move(config)) {}

QueryService::QueryService(runtime::Machine& machine,
                           dynamic::DynamicGraph& graph,
                           const graph::Partition1D& partition,
                           ServiceConfig config)
    : QueryService(machine, nullptr, &graph, partition, std::move(config)) {}

QueryService::QueryService(runtime::Machine& machine,
                           std::unique_ptr<dynamic::DynamicGraph> owned,
                           dynamic::DynamicGraph* external,
                           const graph::Partition1D& partition,
                           ServiceConfig config)
    : machine_(machine),
      registry_(machine.registry()),
      tracer_(machine.tracer()),
      owned_graph_(std::move(owned)),
      dynamic_(owned_graph_ != nullptr ? owned_graph_.get() : external),
      partition_(partition),
      config_(std::move(config)),
      cache_(config_.cache_capacity) {
  ACIC_ASSERT(dynamic_ != nullptr);
  define_counters();
  if (config_.landmarks.num_landmarks > 0) {
    // Offline precompute (2k Dijkstra rows); deliberately not charged to
    // simulated time — index construction happens before serving starts.
    const auto snap = dynamic_->snapshot_ptr();
    sssp::LandmarkConfig lc;
    lc.num_landmarks = config_.landmarks.num_landmarks;
    landmarks_index_ = std::make_unique<sssp::LandmarkIndex>(
        snap->csr, snap->reverse, lc);
  }
}

void QueryService::define_counters() {
  ACIC_ASSERT_MSG(partition_.num_parts() == machine_.num_pes(),
                  "partition parts must equal worker PE count");
  ACIC_ASSERT_MSG(config_.max_inflight > 0,
                  "admission controller needs max_inflight >= 1");
  ACIC_ASSERT_MSG(config_.batching.max_batch > 0,
                  "batch size 0 would admit nothing");
  ACIC_ASSERT(config_.frontend_pe < machine_.num_pes());

  if (registry_ != nullptr) {
    obs::Registry& reg = *registry_;
    obs_submitted_ = reg.counter("server/queries_submitted");
    obs_completed_ = reg.counter("server/completed");
    obs_cache_hits_ = reg.counter("server/cache_hits");
    obs_wait_depth_ = reg.series("server/wait_queue_depth");
    obs_running_ = reg.series("server/running_engines");
    if (config_.batching.max_batch > 1) {
      obs_batches_ = reg.counter("server/batches_started");
      obs_batched_queries_ = reg.counter("server/batched_queries");
    }
    if (config_.landmarks.num_landmarks > 0) {
      obs_landmark_exact_ = reg.counter("server/landmark_exact");
      obs_goal_directed_ = reg.counter("server/goal_directed");
      obs_rows_invalidated_ = reg.counter("landmarks/rows_invalidated", true);
      obs_rows_refreshed_ = reg.counter("landmarks/rows_refreshed", true);
    }
    if (owned_graph_ == nullptr) {
      // Timed so the churn counters render as tracks in the timeseries
      // CSV / Chrome trace that bench/server_load exports.
      obs_mutations_ = reg.counter("server/mutations_applied", true);
      obs_invalidations_ = reg.counter("cache/invalidations", true);
      obs_stale_prevented_ = reg.counter("cache/stale_hits_prevented", true);
      obs_repair_queries_ = reg.counter("server/repair_queries", true);
      obs_recompute_queries_ =
          reg.counter("server/recompute_queries", true);
      obs_stale_dropped_ = reg.counter("server/stale_results_dropped", true);
      obs_subtree_size_ = reg.series("server/repair_subtree_size");
    }
  }
}

QueryService::~QueryService() = default;

void QueryService::submit(const std::vector<Query>& queries) {
  for (const Query& query : queries) {
    ACIC_ASSERT_MSG(query.source < graph_view().num_vertices(),
                    "query source outside the graph");
    ACIC_ASSERT_MSG(!query.is_p2p() ||
                        query.target < graph_view().num_vertices(),
                    "p2p target outside the graph");
    ACIC_ASSERT_MSG(submitted_ == 0 ||
                        query.arrival_us >= last_submitted_arrival_us_,
                    "arrival times must be non-decreasing across "
                    "concatenated submissions (see WorkloadConfig::"
                    "first_id / start_us)");
    last_submitted_arrival_us_ = query.arrival_us;
    QueryRecord record;
    record.id = query.id;
    record.source = query.source;
    record.target = query.target;
    record.mode = query.mode;
    record.arrival_us = query.arrival_us;
    const std::size_t index = pending_records_.size();
    ACIC_ASSERT_MSG(record_of_id_.emplace(query.id, index).second,
                    "query ids must be unique across all submissions "
                    "(see WorkloadConfig::first_id)");
    pending_records_.push_back(record);
    ++submitted_;
    if (registry_ != nullptr) {
      registry_->add(obs_submitted_, config_.frontend_pe, 1,
                     machine_.current_time());
    }
    machine_.schedule_at(query.arrival_us, config_.frontend_pe,
                         [this, index](runtime::Pe& pe) {
                           on_arrival(pe, index);
                         });
  }
}

void QueryService::submit_mutations(const std::vector<MutationEvent>& events) {
  ACIC_ASSERT_MSG(owned_graph_ == nullptr,
                  "submit_mutations requires the DynamicGraph constructor");
  for (const MutationEvent& event : events) {
    machine_.schedule_at(event.apply_us, config_.frontend_pe,
                         [this, batch = event.batch](runtime::Pe& pe) {
                           apply_mutations(pe, batch);
                         });
  }
}

void QueryService::apply_mutations(runtime::Pe& pe,
                                   const dynamic::MutationBatch& batch) {
  const runtime::ScopedSpan span(tracer_, pe, "server/mutate");
  const auto before = dynamic_->snapshot_ptr();
  const dynamic::ApplyStats stats = dynamic_->apply(batch);
  mutations_applied_ += stats.applied();
  pe.charge(config_.dynamics.mutation_apply_cost_us *
            static_cast<double>(stats.applied()));
  if (registry_ != nullptr && stats.applied() > 0) {
    registry_->add(obs_mutations_, pe.id(), stats.applied(), pe.now());
  }
  if (stats.applied() == 0) return;

  // Cache sweep: test every entry against the epoch's net edge deltas
  // and park the stale ones as warm-repair states.  Surviving entries
  // are provably still exact (see entry_stale), which keeps the cache's
  // exactness invariant: every entry is correct for the current epoch.
  const std::span<const dynamic::AppliedMutation> applied =
      dynamic_->applied_since(before->epoch);
  const std::vector<dynamic::EdgeDelta> deltas =
      dynamic::collapse_mutations(applied.data(),
                                  applied.data() + applied.size());
  for (const graph::VertexId source : cache_.cached_sources()) {
    const std::vector<graph::Dist>* dist = cache_.peek(source);
    const dynamic::EdgeDelta* trigger = nullptr;
    for (const dynamic::EdgeDelta& delta : deltas) {
      if (entry_stale(*dist, delta)) {
        trigger = &delta;
        break;
      }
    }
    if (trigger == nullptr) continue;
    StaleState state;
    state.epoch = before->epoch;
    state.snap = before;
    cache_.invalidate(source, &state.dist);
    if (registry_ != nullptr) {
      // Attribute to the partition block owning the mutated edge's head:
      // node/process rollups of this counter are the per-region eviction
      // breakdown.
      registry_->add(obs_invalidations_,
                     partition_.owner(trigger->dst), 1, pe.now());
    }
    park_stale_state(source, std::move(state));
  }

  // Landmark rows are distance vectors too: the same per-edge tests
  // decide which survive the epoch.  Invalid rows stop contributing
  // (exactness preserved, guidance weakens) until refreshed.
  if (landmarks_index_ != nullptr) {
    const std::size_t newly = landmarks_index_->invalidate(deltas);
    if (registry_ != nullptr && newly > 0) {
      registry_->add(obs_rows_invalidated_, pe.id(),
                     static_cast<std::uint64_t>(newly), pe.now());
    }
    if (landmarks_index_->invalid_rows() > 0 &&
        landmarks_index_->invalid_fraction() >=
            config_.landmarks.refresh_fraction) {
      const auto snap = dynamic_->snapshot_ptr();
      const std::size_t refreshed =
          landmarks_index_->refresh(snap->csr, snap->reverse);
      pe.charge(config_.landmarks.refresh_cost_us *
                static_cast<double>(refreshed));
      if (registry_ != nullptr && refreshed > 0) {
        registry_->add(obs_rows_refreshed_, pe.id(),
                       static_cast<std::uint64_t>(refreshed),
                       pe.now());
      }
    }
  }
}

void QueryService::park_stale_state(graph::VertexId source,
                                    StaleState state) {
  if (config_.dynamics.max_stale_states == 0) return;
  const auto it = stale_states_.find(source);
  if (it != stale_states_.end()) {
    it->second = std::move(state);  // newer epoch supersedes
    return;
  }
  if (stale_states_.size() >= config_.dynamics.max_stale_states) {
    stale_states_.erase(stale_order_.front());
    stale_order_.erase(stale_order_.begin());
  }
  stale_states_.emplace(source, std::move(state));
  stale_order_.push_back(source);
}

void QueryService::serve_from_cache(runtime::Pe& pe,
                                    std::size_t record_index) {
  QueryRecord& record = pending_records_[record_index];
  record.admit_us = pe.now();
  record.epoch = dynamic_->epoch();
  // A hit is only ever declared with the entry present.
  const std::vector<graph::Dist>* dist = cache_.peek(record.source);
  complete_record(pe, record_index, ServeTier::kCache, dist);
}

bool QueryService::serve_p2p_frontend(runtime::Pe& pe,
                                      std::size_t record_index) {
  if (landmarks_index_ == nullptr) return false;
  QueryRecord& record = pending_records_[record_index];
  pe.charge(config_.landmarks.lookup_cost_us);

  graph::Dist exact = 0.0;
  if (landmarks_index_->exact_p2p(record.source, record.target, &exact)) {
    record.admit_us = pe.now();
    record.epoch = dynamic_->epoch();
    results_[record.id] =
        QueryResult{ResultMode::kPointToPoint, {}, exact};
    complete_record(pe, record_index, ServeTier::kLandmark, nullptr);
    return true;
  }
  if (!config_.landmarks.goal_directed) return false;

  // Goal-directed A* on the front end, against the *current* snapshot
  // (the heuristic's surviving rows are exact for it — see the sweep in
  // apply_mutations).  Charged per settled vertex: goal direction is
  // cheap near the target and expensive across the graph, and the
  // latency distribution should see exactly that.
  const auto snap = dynamic_->snapshot_ptr();
  sssp::P2pStats stats;
  const graph::Dist d = landmarks_index_->p2p(
      snap->csr, record.source, record.target, &p2p_workspace_, &stats);
  pe.charge(config_.landmarks.astar_settle_cost_us *
            static_cast<double>(stats.settled));
  record.admit_us = pe.now();
  record.epoch = snap->epoch;
  results_[record.id] = QueryResult{ResultMode::kPointToPoint, {}, d};
  complete_record(pe, record_index, ServeTier::kGoalDirected, nullptr);
  return true;
}

void QueryService::on_arrival(runtime::Pe& pe, std::size_t record_index) {
  const runtime::ScopedSpan span(tracer_, pe, "server/arrival");
  QueryRecord& record = pending_records_[record_index];
  // Front-end cache check: the one counted lookup this query makes.
  pe.charge(config_.cache_lookup_cost_us);
  const std::uint64_t prevented_before = cache_.stats().stale_hits_prevented;
  if (cache_.lookup(record.source) != nullptr) {
    serve_from_cache(pe, record_index);
    sample_queue(pe.now());
    return;
  }
  if (registry_ != nullptr && owned_graph_ == nullptr &&
      cache_.stats().stale_hits_prevented > prevented_before) {
    registry_->add(obs_stale_prevented_, pe.id(), 1, pe.now());
  }
  if (record.mode == ResultMode::kPointToPoint &&
      serve_p2p_frontend(pe, record_index)) {
    sample_queue(pe.now());
    return;
  }
  wait_queue_.push_back(
      Pending{record.id, record.source, record_index});
  try_admit(pe);
  sample_queue(pe.now());
}

void QueryService::try_admit(runtime::Pe& pe) {
  while (running_.size() < config_.max_inflight && !wait_queue_.empty()) {
    // Gather a FIFO prefix into one admission.  Three query classes
    // leave the queue here without consuming batch slots or break the
    // gather early:
    //   * results cached while waiting (a hot source admitted ahead
    //     completed) are served engine-free — peek() keeps the hit/miss
    //     accounting at one lookup per query;
    //   * a query whose source has a parked stale state runs *solo*
    //     (the warm-repair path seeds one engine from the old answer;
    //     mixing warm and cold lanes in one pass is not supported), so
    //     it either heads this admission alone or ends the gather;
    //   * everything else joins the batch, up to batching.max_batch.
    std::vector<Pending> members;
    while (!wait_queue_.empty() &&
           members.size() < config_.batching.max_batch) {
      const Pending pending = wait_queue_.front();
      if (cache_.peek(pending.source) != nullptr) {
        wait_queue_.erase(wait_queue_.begin());
        serve_from_cache(pe, pending.record_index);
        continue;
      }
      const bool warm = stale_states_.count(pending.source) > 0;
      if (warm && !members.empty()) break;  // heads the next admission
      wait_queue_.erase(wait_queue_.begin());
      members.push_back(pending);
      if (warm) break;  // runs solo
    }
    if (members.empty()) break;
    if (members.size() == 1) {
      start_engine(pe, members.front());
    } else {
      start_batch(pe, members);
    }
  }
}

bool QueryService::start_engine(runtime::Pe& pe, const Pending& pending) {
  QueryRecord& record = pending_records_[pending.record_index];
  record.admit_us = pe.now();

  core::AcicEngineOptions options;
  options.start_time_us = pe.now();
  const std::uint64_t id = pending.id;
  options.on_complete = [this, id](runtime::Pe& done_pe) {
    on_engine_complete(done_pe, id);
  };

  InFlight inflight;
  inflight.key = id;
  inflight.members.push_back(
      BatchMember{id, pending.record_index, /*lane=*/0});
  inflight.lane_sources.push_back(pending.source);

  // Pin the current snapshot for the engine's lifetime — the answer is
  // exact for this epoch no matter how the graph moves.
  inflight.snap = dynamic_->snapshot_ptr();
  record.epoch = inflight.snap->epoch;

  const auto stale_it = stale_states_.find(pending.source);
  if (stale_it != stale_states_.end()) {
    StaleState stale = std::move(stale_it->second);
    stale_states_.erase(stale_it);
    stale_order_.erase(std::find(stale_order_.begin(), stale_order_.end(),
                                 pending.source));
    pe.charge(config_.dynamics.repair_plan_cost_us);

    dynamic::SsspState state;
    state.source = pending.source;
    state.epoch = stale.epoch;
    state.dist = std::move(stale.dist);
    state.parent =
        dynamic::compute_parents(*stale.snap, pending.source, state.dist);
    const dynamic::RepairPlan plan = dynamic::plan_repair(
        *inflight.snap, state, dynamic_->applied_since(stale.epoch));
    if (registry_ != nullptr) {
      registry_->append(obs_subtree_size_, pe.now(),
                        static_cast<double>(plan.affected.size()));
    }

    if (plan.touches_nothing()) {
      // The mutations that evicted this entry turned out not to change
      // this source's distances (the eviction test is conservative):
      // the parked answer is exact for the current epoch.  Serve it
      // with no engine at all.
      record.repaired = true;
      if (registry_ != nullptr) {
        registry_->add(obs_repair_queries_, pe.id(), 1, pe.now());
      }
      complete_record(pe, pending.record_index, ServeTier::kRepairFree,
                      &state.dist);
      cache_.insert(pending.source, std::move(state.dist),
                    inflight.snap->epoch);
      return false;
    }

    const double affected_fraction =
        static_cast<double>(plan.affected.size()) /
        static_cast<double>(graph_view().num_vertices());
    if (affected_fraction <= config_.dynamics.recompute_fraction) {
      record.repaired = true;
      options.warm_dist = &plan.warm_dist;  // copied by the constructor
      options.seeds = plan.seeds;
      if (registry_ != nullptr) {
        registry_->add(obs_repair_queries_, pe.id(), 1, pe.now());
      }
      inflight.engine = std::make_unique<core::AcicEngine>(
          machine_, inflight.snap->csr, partition_, pending.source,
          config_.engine, std::move(options));
      running_.push_back(std::move(inflight));
      return true;
    }
    // Repair would touch most of the graph: fall through to a cold run.
  }

  if (registry_ != nullptr && owned_graph_ == nullptr) {
    registry_->add(obs_recompute_queries_, pe.id(), 1, pe.now());
  }
  inflight.engine = std::make_unique<core::AcicEngine>(
      machine_, inflight.snap->csr, partition_, pending.source,
      config_.engine, std::move(options));
  running_.push_back(std::move(inflight));
  return true;
}

void QueryService::start_batch(runtime::Pe& pe,
                               const std::vector<Pending>& members) {
  InFlight inflight;
  inflight.key = members.front().id;
  inflight.snap = dynamic_->snapshot_ptr();

  // Distinct sources become frontier lanes; duplicate sources share.
  for (const Pending& pending : members) {
    QueryRecord& record = pending_records_[pending.record_index];
    record.admit_us = pe.now();
    record.epoch = inflight.snap->epoch;
    std::uint32_t lane = 0;
    const auto it = std::find(inflight.lane_sources.begin(),
                              inflight.lane_sources.end(), pending.source);
    if (it == inflight.lane_sources.end()) {
      lane = static_cast<std::uint32_t>(inflight.lane_sources.size());
      inflight.lane_sources.push_back(pending.source);
    } else {
      lane = static_cast<std::uint32_t>(it - inflight.lane_sources.begin());
    }
    inflight.members.push_back(
        BatchMember{pending.id, pending.record_index, lane});
  }

  core::AcicEngineOptions options;
  options.start_time_us = pe.now();
  options.sources = inflight.lane_sources;
  const std::uint64_t key = inflight.key;
  options.on_complete = [this, key](runtime::Pe& done_pe) {
    on_engine_complete(done_pe, key);
  };

  ++batches_started_;
  if (registry_ != nullptr) {
    registry_->add(obs_batches_, pe.id(), 1, pe.now());
    registry_->add(obs_batched_queries_, pe.id(),
                   inflight.members.size(), pe.now());
  }
  inflight.engine = std::make_unique<core::AcicEngine>(
      machine_, inflight.snap->csr, partition_, inflight.lane_sources[0],
      config_.engine, std::move(options));
  running_.push_back(std::move(inflight));
}

void QueryService::on_engine_complete(runtime::Pe& pe, std::uint64_t key) {
  const runtime::ScopedSpan span(tracer_, pe, "server/complete");
  const auto it =
      std::find_if(running_.begin(), running_.end(),
                   [key](const InFlight& f) { return f.key == key; });
  ACIC_ASSERT_MSG(it != running_.end(),
                  "completion for a pass that is not running");

  core::AcicRunResult result = it->engine->collect();
  const bool batch = it->members.size() > 1;
  const bool epoch_current = it->snap->epoch == dynamic_->epoch();
  const ServeTier tier = batch ? ServeTier::kBatch : ServeTier::kEngine;

  // Per-lane distance vectors: a solo pass carries its single vector in
  // sssp.dist, a multi-source pass one per lane in lane_dist.
  std::vector<std::vector<graph::Dist>> lanes;
  if (batch) {
    ACIC_ASSERT(result.lane_dist.size() == it->lane_sources.size());
    lanes = std::move(result.lane_dist);
  } else {
    lanes.push_back(std::move(result.sssp.dist));
  }

  for (const BatchMember& member : it->members) {
    complete_record(pe, member.record_index, tier, &lanes[member.lane]);
  }
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    if (epoch_current) {
      cache_.insert(it->lane_sources[lane], std::move(lanes[lane]),
                    it->snap->epoch);
    } else {
      // The graph moved on mid-run: the answers are exact for their own
      // epoch (served as such) but caching them would poison
      // current-epoch hits.
      ++stale_results_dropped_;
      if (registry_ != nullptr) {
        registry_->add(obs_stale_dropped_, pe.id(), 1, pe.now());
      }
    }
  }

  // The engine's broadcast handler is below us on the stack: park the
  // engine and destroy it from a fresh task once this one unwinds.
  retiring_.push_back(std::move(it->engine));
  running_.erase(it);
  schedule_retirement_sweep(pe);

  try_admit(pe);
  sample_queue(pe.now());
}

void QueryService::complete_record(runtime::Pe& pe,
                                   std::size_t record_index,
                                   ServeTier tier,
                                   const std::vector<graph::Dist>* dist) {
  QueryRecord& record = pending_records_[record_index];
  record.complete_us = pe.now();
  record.tier = tier;
  if (dist != nullptr) {
    if (record.mode == ResultMode::kPointToPoint) {
      results_[record.id] = QueryResult{ResultMode::kPointToPoint,
                                        {},
                                        (*dist)[record.target]};
    } else if (config_.retain_full_results) {
      results_[record.id] =
          QueryResult{ResultMode::kFullDistances, *dist, graph::kInfDist};
    }
  }
  if (registry_ != nullptr) {
    registry_->add(obs_completed_, pe.id(), 1, pe.now());
    switch (tier) {
      case ServeTier::kCache:
        registry_->add(obs_cache_hits_, pe.id(), 1, pe.now());
        break;
      case ServeTier::kLandmark:
        registry_->add(obs_landmark_exact_, pe.id(), 1, pe.now());
        break;
      case ServeTier::kGoalDirected:
        registry_->add(obs_goal_directed_, pe.id(), 1, pe.now());
        break;
      default:
        break;
    }
  }
  metrics_.record(record);
}

void QueryService::sample_queue(runtime::SimTime time_us) {
  metrics_.sample_queue(time_us,
                        static_cast<std::uint32_t>(wait_queue_.size()),
                        static_cast<std::uint32_t>(running_.size()));
  if (registry_ != nullptr) {
    registry_->append(obs_wait_depth_, time_us,
                      static_cast<double>(wait_queue_.size()));
    registry_->append(obs_running_, time_us,
                      static_cast<double>(running_.size()));
  }
}

void QueryService::schedule_retirement_sweep(runtime::Pe& pe) {
  if (sweep_scheduled_) return;
  sweep_scheduled_ = true;
  machine_.schedule_at(pe.now(), config_.frontend_pe,
                       [this](runtime::Pe&) {
                         retiring_.clear();
                         sweep_scheduled_ = false;
                       });
}

runtime::RunStats QueryService::run(runtime::SimTime time_limit_us) {
  const runtime::RunStats stats = machine_.run(time_limit_us);
  // The machine drained (or stopped at the limit with no task running):
  // no engine frame can be on the stack, so reclamation is safe here
  // even if a sweep task never got to run.
  retiring_.clear();
  sweep_scheduled_ = false;
  return stats;
}

std::uint64_t QueryService::completed_count() const {
  return metrics_.records().size();
}

const std::vector<QueryRecord>& QueryService::records() const {
  return metrics_.records();
}

const std::vector<QueueDepthSample>& QueryService::queue_samples() const {
  return metrics_.queue_samples();
}

ServiceSummary QueryService::summary() const {
  return metrics_.summarize(cache_.stats(), batches_started_);
}

const QueryResult* QueryService::result_of(std::uint64_t id) const {
  const auto it = results_.find(id);
  return it != results_.end() ? &it->second : nullptr;
}

const QueryRecord* QueryService::record_of(std::uint64_t id) const {
  const auto it = record_of_id_.find(id);
  return it != record_of_id_.end() ? &pending_records_[it->second] : nullptr;
}

}  // namespace acic::server
