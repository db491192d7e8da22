#include "src/baselines/delta_stepping.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/baselines/sequential.hpp"
#include "src/runtime/collectives.hpp"
#include "src/sssp/update.hpp"
#include "src/util/assert.hpp"
#include "src/util/prefetch.hpp"

namespace acic::baselines {

DeltaController::Decision DeltaController::decide(const Summary& summary) {
  switch (mode_) {
    case Mode::kLight:
      settled_this_bucket_ += summary.newly_settled;
      if (summary.bucket_count > 0.0) {
        // Vertices fell back into the current bucket: another light
        // subphase.
        return {DeltaCmd::kLight, current_bucket_};
      }
      mode_ = Mode::kHeavy;
      return {DeltaCmd::kHeavy, current_bucket_};

    case Mode::kHeavy: {
      ++buckets_processed_;
      // Hybrid heuristic: once the settled-per-bucket curve passes its
      // peak, the remaining work is the sparse tail — switch to
      // Bellman-Ford sweeps which need no bucket bookkeeping.
      if (hybrid_ && buckets_processed_ >= 2 &&
          settled_this_bucket_ < max_settled_per_bucket_ &&
          max_settled_per_bucket_ > 0.0) {
        switched_to_bf_ = true;
        mode_ = Mode::kBellman;
        return {DeltaCmd::kBellman, 0};
      }
      max_settled_per_bucket_ =
          std::max(max_settled_per_bucket_, settled_this_bucket_);
      settled_this_bucket_ = 0.0;
      if (!summary.has_next_bucket) {
        return {DeltaCmd::kDone, 0};
      }
      current_bucket_ = static_cast<std::uint64_t>(summary.min_next_bucket);
      mode_ = Mode::kLight;
      return {DeltaCmd::kLight, current_bucket_};
    }

    case Mode::kBellman:
      if (summary.dirty_count > 0.0) {
        return {DeltaCmd::kBellman, 0};
      }
      return {DeltaCmd::kDone, 0};
  }
  return {DeltaCmd::kDone, 0};
}

namespace {

using graph::Dist;
using graph::VertexId;
using runtime::Pe;
using runtime::PeId;
using runtime::ReduceOp;
using runtime::Superstep;
using sssp::Update;

constexpr double kNoBucket = std::numeric_limits<double>::infinity();

/// Spacing between barrier re-contributions while in-flight messages
/// drain.
constexpr runtime::SimTime kBarrierIntervalUs = 10.0;

// Barrier payload layout.
enum Slot : std::size_t {
  kSent = 0,         // cumulative items sent (SUM)
  kRecv = 1,         // cumulative items received (SUM)
  kBucketCount = 2,  // vertices in the current bucket (SUM)
  kMinNext = 3,      // smallest non-empty bucket index (MIN)
  kSettled = 4,      // vertices settled since last contribution (SUM)
  kDirty = 5,        // pending Bellman-Ford vertices (SUM)
  kSlots = 6,
};

/// Which out-edges of its frontier a phase relaxes.
enum class EdgeKind : std::uint8_t { kLight, kHeavy, kAll };

/// Owner-side state: the vertex range a PE owns.
struct PeState {
  VertexId first = 0;
  VertexId last = 0;
  std::vector<Dist> dist;
  /// queued[v - first]: v currently sits in some bucket list.
  std::vector<bool> queued;
  /// in_settled[v - first]: v already recorded in `settled` this bucket.
  std::vector<bool> in_settled;
  std::vector<bool> dirty_flag;

  std::vector<std::vector<VertexId>> buckets;
  std::vector<VertexId> settled;  // R set for the heavy phase
  std::vector<VertexId> dirty;    // Bellman-Ford work list

  /// Items on the wire: relaxations (1-D); frontier entries and combined
  /// candidates (2-D).
  std::uint64_t sent = 0;
  std::uint64_t recv = 0;
  std::uint64_t created = 0;  // edge relaxations performed
  std::uint64_t processed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t touched = 0;
  std::uint64_t settled_delta = 0;

  // Phase counters, kept per PE (under the parallel engine each node's
  // PEs run on their own shard) and folded into the result after run().
  std::uint64_t light_phases = 0;
  std::uint64_t heavy_phases = 0;
  std::uint64_t bf_sweeps = 0;

  DeltaCmd mode = DeltaCmd::kLight;
  std::uint64_t current_bucket = 0;
};

/// The Δ-stepping schedule both partitions share: owner-side state and
/// apply, each phase's frontier selection, the barrier contribution, the
/// controller and the result.  A partition supplies relax(): how a
/// frontier's edges reach the owners of their targets.
///
/// A step selects its whole frontier before relaxing any of it.  2-D
/// needs that, since it applies its own row's candidates synchronously.
/// 1-D loses nothing by it: its sends are asynchronous, so no distance
/// on the PE changes inside a step.
class DeltaEngine {
 public:
  DeltaEngine(runtime::Machine& machine, const graph::Csr& csr,
              VertexId source, const DeltaConfig& config)
      : machine_(machine),
        csr_(csr),
        config_(config),
        delta_(config.delta > 0.0 ? config.delta : default_delta(csr)),
        pes_(machine.num_pes()),
        source_(source),
        controller_(config.hybrid_bellman_ford),
        superstep_(
            machine,
            {ReduceOp::kSum, ReduceOp::kMin, ReduceOp::kSum, ReduceOp::kSum},
            kBarrierIntervalUs,
            [this](const std::vector<double>& sums, bool drained) {
              return on_root(sums, drained);
            },
            [this](Pe& pe, const Superstep::Command* cmd) {
              return step(pe, cmd);
            }) {
    ACIC_ASSERT(source < csr.num_vertices());
  }
  virtual ~DeltaEngine() = default;

  DeltaEngine(const DeltaEngine&) = delete;
  DeltaEngine& operator=(const DeltaEngine&) = delete;

  /// Seeds the source at `source_owner` and runs the schedule.
  DeltaRunResult run(PeId source_owner, runtime::SimTime time_limit_us) {
    // The source at distance 0 sits in bucket 0 at its owner; then every
    // PE runs the light phase of bucket 0.
    machine_.schedule_at(0.0, source_owner, [this](Pe& pe) {
      PeState& state = pes_[pe.id()];
      const VertexId local = source_ - state.first;
      state.dist[local] = 0.0;
      ++state.touched;
      state.queued[local] = true;
      place_in_bucket(state, source_, 0.0);
    });
    superstep_.start({static_cast<int>(DeltaCmd::kLight), 0.0});
    const runtime::RunStats stats = machine_.run(time_limit_us);

    DeltaRunResult result;
    result.hit_time_limit = stats.hit_time_limit;
    result.barrier_rounds = superstep_.rounds();
    result.buckets_processed = controller_.buckets_processed();
    result.switched_to_bf = controller_.switched_to_bf();

    result.sssp.dist.assign(csr_.num_vertices(), graph::kInfDist);
    for (const PeState& state : pes_) {
      std::copy(state.dist.begin(), state.dist.end(),
                result.sssp.dist.begin() + state.first);
      result.sssp.metrics.updates_created += state.created;
      result.sssp.metrics.updates_processed += state.processed;
      result.sssp.metrics.updates_rejected += state.rejected;
      result.sssp.metrics.vertices_touched += state.touched;
      result.light_phases += state.light_phases;
      result.heavy_phases += state.heavy_phases;
      result.bf_sweeps += state.bf_sweeps;
    }
    result.sssp.metrics.collective_cycles = superstep_.rounds();
    sssp::fill_machine_fields(machine_, stats, result.sssp.metrics,
                              result.pe_busy_us);
    return result;
  }

 protected:
  /// Gives PE `p` the vertices [first, last).
  void own(PeId p, VertexId first, VertexId last) {
    PeState& state = pes_[p];
    state.first = first;
    state.last = last;
    const std::size_t n = last - first;
    state.dist.assign(n, graph::kInfDist);
    state.queued.assign(n, false);
    state.in_settled.assign(n, false);
    state.dirty_flag.assign(n, false);
  }

  /// Relaxes the `kind` out-edges of every frontier vertex, each entry
  /// carrying the vertex's distance.
  virtual void relax(Pe& pe, const std::vector<Update>& frontier,
                     EdgeKind kind) = 0;
  /// Runs at the end of every round on `pe`, no-op rounds included,
  /// before it contributes.
  virtual void end_round(Pe& /*pe*/) {}

  bool keeps(EdgeKind kind, graph::Weight w) const {
    switch (kind) {
      case EdgeKind::kLight:
        return w <= delta_;
      case EdgeKind::kHeavy:
        return w > delta_;
      case EdgeKind::kAll:
        return true;
    }
    return true;
  }

  /// Owner-side application of a candidate distance.
  void apply(Pe& pe, const Update& u) {
    PeState& state = pes_[pe.id()];
    pe.charge(config_.costs.update_apply_us);
    ++state.processed;
    const VertexId local = u.vertex - state.first;
    ACIC_ASSERT(u.vertex >= state.first && u.vertex < state.last);

    if (u.dist >= state.dist[local]) {
      ++state.rejected;
      return;
    }
    if (state.dist[local] == graph::kInfDist) ++state.touched;
    state.dist[local] = u.dist;

    if (state.mode == DeltaCmd::kBellman) {
      mark_dirty(state, u.vertex);
      return;
    }
    // Bucketed modes: push an entry at the vertex's new bucket on every
    // improvement.  Invariant: while queued[v] is set, at least one list
    // entry for v exists in bucket_of(dist[v]); entries left behind in
    // higher buckets are recognized as stale at pop time and skipped.
    state.queued[local] = true;
    pe.charge(config_.costs.pq_op_us);
    place_in_bucket(state, u.vertex, u.dist);
  }

  runtime::Machine& machine_;
  const graph::Csr& csr_;
  const DeltaConfig config_;
  const double delta_;
  std::vector<PeState> pes_;

 private:
  std::size_t bucket_of(Dist d) const {
    return static_cast<std::size_t>(d / delta_);
  }

  void place_in_bucket(PeState& state, VertexId v, Dist d) const {
    const std::size_t b = bucket_of(d);
    if (b >= state.buckets.size()) state.buckets.resize(b + 1);
    state.buckets[b].push_back(v);
  }

  static void mark_dirty(PeState& state, VertexId v) {
    const VertexId local = v - state.first;
    if (!state.dirty_flag[local]) {
      state.dirty_flag[local] = true;
      state.dirty.push_back(v);
    }
  }

  /// Selection lookahead: warms the distance slot of item i+N, whose read
  /// is the loops' one random access.
  static void prefetch_dist(const PeState& state,
                            const std::vector<VertexId>& list,
                            std::size_t i) {
    if (i + util::kExpandPrefetchLookahead < list.size()) {
      const VertexId ahead = list[i + util::kExpandPrefetchLookahead];
      util::prefetch_read(state.dist.data() + (ahead - state.first));
    }
  }

  // ---- phase work --------------------------------------------------------

  /// Light-edge subphase of bucket `b`: drain the local bucket list and
  /// relax light out-edges of every vertex that truly belongs to `b`.
  void do_light(Pe& pe, std::uint64_t b) {
    PeState& state = pes_[pe.id()];
    ++state.light_phases;
    std::vector<Update> frontier;
    if (b < state.buckets.size()) {
      std::vector<VertexId> entries;
      entries.swap(state.buckets[b]);
      for (std::size_t i = 0; i < entries.size(); ++i) {
        prefetch_dist(state, entries, i);
        const VertexId v = entries[i];
        const VertexId local = v - state.first;
        if (!state.queued[local]) continue;  // already processed
        // Stale entry: the vertex was improved into a different bucket,
        // where a fresher entry already exists (see the queue invariant
        // in apply).
        if (bucket_of(state.dist[local]) != b) continue;
        state.queued[local] = false;
        if (!state.in_settled[local]) {
          state.in_settled[local] = true;
          state.settled.push_back(v);
          ++state.settled_delta;
        }
        frontier.push_back(Update{v, state.dist[local]});
      }
    }
    relax(pe, frontier, EdgeKind::kLight);
  }

  /// Heavy-edge phase: relax heavy out-edges of every vertex settled in
  /// the current bucket, then reset the settled set.
  void do_heavy(Pe& pe) {
    PeState& state = pes_[pe.id()];
    ++state.heavy_phases;
    std::vector<Update> frontier;
    frontier.reserve(state.settled.size());
    for (std::size_t i = 0; i < state.settled.size(); ++i) {
      prefetch_dist(state, state.settled, i);
      const VertexId v = state.settled[i];
      const VertexId local = v - state.first;
      state.in_settled[local] = false;
      frontier.push_back(Update{v, state.dist[local]});
    }
    state.settled.clear();
    relax(pe, frontier, EdgeKind::kHeavy);
  }

  /// Bellman-Ford sweep (hybrid tail mode): relax all out-edges of every
  /// dirty vertex.  On the first sweep, migrate any still-bucketed
  /// vertices into the dirty list.
  void do_bellman(Pe& pe) {
    PeState& state = pes_[pe.id()];
    ++state.bf_sweeps;
    if (state.mode != DeltaCmd::kBellman) {
      state.mode = DeltaCmd::kBellman;
      for (auto& bucket : state.buckets) {
        for (const VertexId v : bucket) {
          const VertexId local = v - state.first;
          if (!state.queued[local]) continue;
          state.queued[local] = false;
          mark_dirty(state, v);
        }
        bucket.clear();
      }
      // Settled vertices from the interrupted bucket still owe their
      // heavy-edge relaxations; fold them into the sweep as well.
      for (const VertexId v : state.settled) {
        state.in_settled[v - state.first] = false;
        mark_dirty(state, v);
      }
      state.settled.clear();
    }
    std::vector<VertexId> sweep;
    sweep.swap(state.dirty);
    std::vector<Update> frontier;
    frontier.reserve(sweep.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      prefetch_dist(state, sweep, i);
      const VertexId v = sweep[i];
      const VertexId local = v - state.first;
      state.dirty_flag[local] = false;
      frontier.push_back(Update{v, state.dist[local]});
    }
    relax(pe, frontier, EdgeKind::kAll);
  }

  // ---- barrier / controller ----------------------------------------------

  /// One round on `pe`: the broadcast phase (none on a no-op round), then
  /// this PE's contribution.
  std::vector<double> step(Pe& pe, const Superstep::Command* cmd) {
    if (cmd != nullptr) {
      const auto phase = static_cast<DeltaCmd>(cmd->op);
      PeState& state = pes_[pe.id()];
      if (phase == DeltaCmd::kBellman) {
        do_bellman(pe);
      } else {
        state.mode = phase;
        state.current_bucket = static_cast<std::uint64_t>(cmd->arg);
        if (phase == DeltaCmd::kLight) {
          do_light(pe, state.current_bucket);
        } else {
          do_heavy(pe);
        }
      }
    }
    end_round(pe);
    return contribution(pes_[pe.id()]);
  }

  std::vector<double> contribution(PeState& state) const {
    std::vector<double> payload(kSlots, 0.0);
    payload[kSent] = static_cast<double>(state.sent);
    payload[kRecv] = static_cast<double>(state.recv);
    const std::uint64_t b = state.current_bucket;
    payload[kBucketCount] =
        (b < state.buckets.size())
            ? static_cast<double>(count_live(state, b))
            : 0.0;
    payload[kMinNext] = min_nonempty_bucket(state);
    payload[kSettled] = static_cast<double>(state.settled_delta);
    state.settled_delta = 0;
    payload[kDirty] = static_cast<double>(state.dirty.size());
    return payload;
  }

  /// Live entries in bucket b: queued vertices whose distance still maps
  /// to b (duplicates possible; they only cost a harmless extra
  /// subphase).
  std::size_t count_live(const PeState& state, std::uint64_t b) const {
    std::size_t live = 0;
    for (const VertexId v : state.buckets[b]) {
      const VertexId local = v - state.first;
      if (state.queued[local] && bucket_of(state.dist[local]) == b) ++live;
    }
    return live;
  }

  /// Smallest bucket holding a live entry.  The queue invariant (an entry
  /// always exists at a queued vertex's actual bucket) makes the first
  /// live hit the true minimum.
  double min_nonempty_bucket(const PeState& state) const {
    for (std::size_t b = 0; b < state.buckets.size(); ++b) {
      if (count_live(state, b) > 0) return static_cast<double>(b);
    }
    return kNoBucket;
  }

  /// Root: the settled count adds up over every round of a phase; the
  /// schedule controller decides once the barrier has drained.
  std::optional<Superstep::Command> on_root(const std::vector<double>& sum,
                                            bool drained) {
    pending_settled_ += sum[kSettled];
    if (!drained) return std::nullopt;

    DeltaController::Summary summary;
    summary.bucket_count = sum[kBucketCount];
    summary.has_next_bucket = sum[kMinNext] != kNoBucket;
    summary.min_next_bucket =
        summary.has_next_bucket ? sum[kMinNext] : 0.0;
    summary.newly_settled = pending_settled_;
    summary.dirty_count = sum[kDirty];
    pending_settled_ = 0.0;

    const DeltaController::Decision decision = controller_.decide(summary);
    if (decision.cmd == DeltaCmd::kDone) return std::nullopt;
    return Superstep::Command{static_cast<int>(decision.cmd),
                              static_cast<double>(decision.bucket)};
  }

  VertexId source_;
  DeltaController controller_;
  runtime::Superstep superstep_;
  double pending_settled_ = 0.0;  // root-side
};

/// 1-D block vertex partition: a PE owns a vertex range with its
/// out-edges and sends each relaxation as one update through the tram.
class Delta1D final : public DeltaEngine {
 public:
  Delta1D(runtime::Machine& machine, const graph::Csr& csr,
          const graph::Partition1D& partition, VertexId source,
          const DeltaConfig& config)
      : DeltaEngine(machine, csr, source, config),
        partition_(partition),
        tram_(machine, config.tram, Deliver{this}) {
    ACIC_ASSERT(partition.num_parts() == machine.num_pes());
    for (PeId p = 0; p < machine.num_pes(); ++p) {
      own(p, partition.begin(p), partition.end(p));
    }
  }

 private:
  /// Concrete delivery functor (no std::function type erasure): the tram
  /// inlines on_deliver, derives entry targets (16-byte buffer entries)
  /// and prefetches the distance slot a few items ahead of dispatch.
  struct Deliver {
    Delta1D* engine;
    void operator()(Pe& pe, const Update& u) const {
      ++engine->pes_[pe.id()].recv;
      engine->apply(pe, u);
    }
    PeId target_of(const Update& u) const {
      return engine->partition_.owner(u.vertex);
    }
    void prefetch(Pe& pe, const Update& u) const {
      const PeState& state = engine->pes_[pe.id()];
      util::prefetch_read(state.dist.data() + (u.vertex - state.first));
    }
  };

  /// One tram insert per kept out-edge.  Each iteration walks a whole
  /// adjacency row, so warming item i+N's CSR offsets overlaps their
  /// misses with N rows of relaxation work.
  void relax(Pe& pe, const std::vector<Update>& frontier,
             EdgeKind kind) override {
    PeState& state = pes_[pe.id()];
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      if (i + util::kExpandPrefetchLookahead < frontier.size()) {
        util::prefetch_read(
            csr_.offsets().data() +
            frontier[i + util::kExpandPrefetchLookahead].vertex);
      }
      const Update& f = frontier[i];
      for (const graph::Neighbor& nb : csr_.out_neighbors(f.vertex)) {
        if (!keeps(kind, nb.weight)) continue;
        ++state.sent;
        ++state.created;
        pe.charge(config_.costs.edge_relax_us);
        tram_.insert(pe, partition_.owner(nb.dst),
                     Update{nb.dst, f.dist + nb.weight});
      }
    }
  }

  void end_round(Pe& pe) override { tram_.flush_all(pe); }

  const graph::Partition1D& partition_;
  tram::Tram<Update, Deliver> tram_;
};

/// 2-D grid edge partition: each cell owns one vertex group's state and
/// one block of the edges.  A frontier goes down the owner's column;
/// each cell min-combines its candidates and sends them along its row.
class Delta2D final : public DeltaEngine {
 public:
  Delta2D(runtime::Machine& machine, const graph::Csr& csr,
          const graph::Partition2D& partition, VertexId source,
          const DeltaConfig& config)
      : DeltaEngine(machine, csr, source, config), partition_(partition) {
    ACIC_ASSERT_MSG(partition.num_cells() == machine.num_pes(),
                    "grid cells must equal worker PE count");
    for (PeId p = 0; p < machine.num_pes(); ++p) {
      const std::uint32_t group = partition.group_owned_by(p);
      own(p, partition.group_begin(group), partition.group_end(group));
    }
  }

 private:
  static std::size_t wire_bytes(std::size_t items) {
    return 32 + items * sssp::kUpdateWireBytes;
  }

  /// Sends `frontier` from owner `pe` to every cell in its column (self
  /// included, locally) for relaxation of `kind` edges.
  void relax(Pe& pe, const std::vector<Update>& frontier,
             EdgeKind kind) override {
    if (frontier.empty()) return;
    PeState& state = pes_[pe.id()];
    const std::uint32_t my_col = partition_.col_of(pe.id());
    for (std::uint32_t i = 0; i < partition_.rows(); ++i) {
      const PeId target = partition_.cell(i, my_col);
      state.sent += frontier.size();
      if (target == pe.id()) {
        relax_block(pe, frontier, kind);
        continue;
      }
      pe.send(target, wire_bytes(frontier.size()),
              [this, frontier, kind](Pe& dst) {
                pes_[dst.id()].recv += frontier.size();
                relax_block(dst, frontier, kind);
              });
    }
    // Items handled locally count as received too (keeps sent == recv at
    // quiescence).
    state.recv += frontier.size();
  }

  /// Relaxes `frontier` against this cell's edge block; min-combines
  /// candidates per destination vertex and ships one message per
  /// destination owner along this row.
  void relax_block(Pe& pe, const std::vector<Update>& frontier,
                   EdgeKind kind) {
    PeState& state = pes_[pe.id()];
    // Candidates per destination owner cell, min-combined per vertex.
    std::map<PeId, std::map<VertexId, Dist>> combined;
    for (const Update& f : frontier) {
      for (const graph::Edge& e :
           partition_.cell_out_edges(pe.id(), f.vertex)) {
        if (!keeps(kind, e.weight)) continue;
        pe.charge(config_.costs.edge_relax_us);
        ++state.created;
        const Dist candidate = f.dist + e.weight;
        const PeId owner = partition_.state_owner_of_vertex(e.dst);
        auto [it, inserted] = combined[owner].try_emplace(e.dst, candidate);
        if (!inserted) {
          // Min-combining eliminates one of the two candidates locally:
          // it is processed (and wasted) without ever travelling.
          ++state.processed;
          ++state.rejected;
          it->second = std::min(it->second, candidate);
        }
      }
    }
    for (const auto& [owner, candidates] : combined) {
      std::vector<Update> batch;
      batch.reserve(candidates.size());
      for (const auto& [v, d] : candidates) batch.push_back(Update{v, d});
      state.sent += batch.size();
      if (owner == pe.id()) {
        state.recv += batch.size();
        for (const Update& u : batch) apply(pe, u);
        continue;
      }
      // Sized first: the capture below moves `batch` out.
      const std::size_t bytes = wire_bytes(batch.size());
      pe.send(owner, bytes, [this, batch = std::move(batch)](Pe& dst) {
        pes_[dst.id()].recv += batch.size();
        for (const Update& u : batch) apply(dst, u);
      });
    }
  }

  const graph::Partition2D& partition_;
};

}  // namespace

DeltaRunResult delta_stepping_dist(runtime::Machine& machine,
                                   const graph::Csr& csr,
                                   const graph::Partition1D& partition,
                                   VertexId source,
                                   const DeltaConfig& config,
                                   runtime::SimTime time_limit_us) {
  Delta1D engine(machine, csr, partition, source, config);
  return engine.run(partition.owner(source), time_limit_us);
}

DeltaRunResult delta_stepping_2d(runtime::Machine& machine,
                                 const graph::Csr& csr,
                                 const graph::Partition2D& partition,
                                 VertexId source, const DeltaConfig& config,
                                 runtime::SimTime time_limit_us) {
  Delta2D engine(machine, csr, partition, source, config);
  return engine.run(partition.state_owner_of_vertex(source), time_limit_us);
}

}  // namespace acic::baselines
