#include "src/baselines/delta_stepping_dist.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/baselines/sequential.hpp"
#include "src/runtime/collectives.hpp"
#include "src/sssp/update.hpp"
#include "src/tram/tram.hpp"
#include "src/util/assert.hpp"
#include "src/util/prefetch.hpp"

namespace acic::baselines {

namespace {

using graph::Dist;
using graph::VertexId;
using runtime::Pe;
using runtime::PeId;
using runtime::ReduceOp;
using sssp::Update;

constexpr double kNoBucket = std::numeric_limits<double>::infinity();

// Barrier payload layout.
enum Slot : std::size_t {
  kSent = 0,        // cumulative relaxations sent (SUM)
  kRecv = 1,        // cumulative relaxations received (SUM)
  kBucketCount = 2, // vertices in the current bucket (SUM)
  kMinNext = 3,     // smallest non-empty bucket index (MIN)
  kSettled = 4,     // vertices settled since last contribution (SUM)
  kDirty = 5,       // pending Bellman-Ford vertices (SUM)
  kSlots = 6,
};

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

  std::uint64_t sent = 0;
  std::uint64_t recv = 0;
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
  bool done = false;
};

class DeltaEngine {
 public:
  DeltaEngine(runtime::Machine& machine, const graph::Csr& csr,
              const graph::Partition1D& partition, VertexId source,
              const DeltaConfig& config)
      : machine_(machine),
        csr_(csr),
        partition_(partition),
        source_(source),
        config_(config),
        delta_(config.delta > 0.0 ? config.delta : default_delta(csr)),
        controller_(config.hybrid_bellman_ford),
        pes_(machine.num_pes()) {
    ACIC_ASSERT(partition.num_parts() == machine.num_pes());
    ACIC_ASSERT(source < csr.num_vertices());

    for (PeId p = 0; p < machine_.num_pes(); ++p) {
      PeState& state = pes_[p];
      state.first = partition.begin(p);
      state.last = partition.end(p);
      const std::size_t n = state.last - state.first;
      state.dist.assign(n, graph::kInfDist);
      state.queued.assign(n, false);
      state.in_settled.assign(n, false);
      state.dirty_flag.assign(n, false);
    }

    tram_ = std::make_unique<UpdateTram>(machine_, config_.tram,
                                         Deliver{this});

    build_reducer();

    // Seed: the source at distance 0 sits in bucket 0 at its owner.
    const PeId owner = partition_.owner(source_);
    machine_.schedule_at(0.0, owner, [this](Pe& pe) {
      PeState& state = pes_[pe.id()];
      const VertexId local = source_ - state.first;
      state.dist[local] = 0.0;
      ++state.touched;
      state.queued[local] = true;
      place_in_bucket(state, source_, 0.0);
    });

    // First superstep: every PE runs the light phase of bucket 0.
    for (PeId p = 0; p < machine_.num_pes(); ++p) {
      machine_.schedule_at(0.0, p, [this](Pe& pe) {
        execute(pe, DeltaCmd::kLight, 0);
      });
    }
  }

  DeltaRunResult run(runtime::SimTime time_limit_us) {
    const runtime::RunStats stats = machine_.run(time_limit_us);

    DeltaRunResult result;
    result.hit_time_limit = stats.hit_time_limit;
    result.barrier_rounds = reducer_->cycles_completed();
    result.buckets_processed = controller_.buckets_processed();
    result.switched_to_bf = controller_.switched_to_bf();

    result.sssp.dist.assign(csr_.num_vertices(), graph::kInfDist);
    for (const PeState& state : pes_) {
      std::copy(state.dist.begin(), state.dist.end(),
                result.sssp.dist.begin() + state.first);
      result.sssp.metrics.updates_created += state.sent;
      result.sssp.metrics.updates_processed += state.recv;
      result.sssp.metrics.updates_rejected += state.rejected;
      result.sssp.metrics.vertices_touched += state.touched;
      result.light_phases += state.light_phases;
      result.heavy_phases += state.heavy_phases;
      result.bf_sweeps += state.bf_sweeps;
    }
    result.sssp.metrics.network_messages = stats.messages_sent;
    result.sssp.metrics.network_bytes = stats.bytes_sent;
    result.sssp.metrics.collective_cycles = reducer_->cycles_completed();
    result.sssp.metrics.sim_time_us = stats.end_time_us;

    result.pe_busy_us.resize(machine_.num_pes());
    for (PeId p = 0; p < machine_.num_pes(); ++p) {
      result.pe_busy_us[p] = machine_.pe_busy_us(p);
    }
    return result;
  }

 private:
  /// Concrete delivery functor (no std::function type erasure): the tram
  /// inlines on_deliver, derives entry targets (16-byte buffer entries)
  /// and prefetches the distance slot a few items ahead of dispatch.
  struct Deliver {
    DeltaEngine* engine;
    void operator()(Pe& pe, const Update& u) const {
      engine->on_deliver(pe, u);
    }
    PeId target_of(const Update& u) const {
      return engine->partition_.owner(u.vertex);
    }
    void prefetch(Pe& pe, const Update& u) const {
      const PeState& state = engine->pes_[pe.id()];
      util::prefetch_read(state.dist.data() + (u.vertex - state.first));
    }
  };
  using UpdateTram = tram::Tram<Update, Deliver>;

  std::size_t bucket_of(Dist d) const {
    return static_cast<std::size_t>(d / delta_);
  }

  static void place_in(std::vector<std::vector<VertexId>>& buckets,
                       std::size_t b, VertexId v) {
    if (b >= buckets.size()) buckets.resize(b + 1);
    buckets[b].push_back(v);
  }
  void place_in_bucket(PeState& state, VertexId v, Dist d) {
    place_in(state.buckets, bucket_of(d), v);
  }

  // ---- relaxation traffic ----------------------------------------------

  void send_relax(Pe& pe, VertexId target, Dist candidate) {
    PeState& state = pes_[pe.id()];
    ++state.sent;
    pe.charge(config_.costs.edge_relax_us);
    tram_->insert(pe, partition_.owner(target), Update{target, candidate});
  }

  void on_deliver(Pe& pe, const Update& u) {
    PeState& state = pes_[pe.id()];
    ++state.recv;
    pe.charge(config_.costs.update_apply_us);
    const VertexId local = u.vertex - state.first;
    ACIC_ASSERT(u.vertex >= state.first && u.vertex < state.last);

    if (u.dist >= state.dist[local]) {
      ++state.rejected;
      return;
    }
    if (state.dist[local] == graph::kInfDist) ++state.touched;
    state.dist[local] = u.dist;

    if (state.mode == DeltaCmd::kBellman) {
      if (!state.dirty_flag[local]) {
        state.dirty_flag[local] = true;
        state.dirty.push_back(u.vertex);
      }
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

  /// Worklist lookahead for the phase loops below: each iteration walks
  /// a whole adjacency row, so warming item i+N's CSR offsets and
  /// distance slot overlaps their misses with N rows of relaxation work.
  void prefetch_frontier(const PeState& state,
                         const std::vector<VertexId>& list,
                         std::size_t i) const {
    if (i + util::kExpandPrefetchLookahead < list.size()) {
      const VertexId ahead = list[i + util::kExpandPrefetchLookahead];
      util::prefetch_read(csr_.offsets().data() + ahead);
      util::prefetch_read(state.dist.data() + (ahead - state.first));
    }
  }

  // ---- phase work --------------------------------------------------------

  /// Light-edge subphase of bucket `b`: drain the local bucket list,
  /// relaxing light out-edges of every vertex that truly belongs to `b`.
  void do_light(Pe& pe, std::uint64_t b) {
    PeState& state = pes_[pe.id()];
    ++state.light_phases;
    if (b >= state.buckets.size()) return;
    std::vector<VertexId> frontier;
    frontier.swap(state.buckets[b]);
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      prefetch_frontier(state, frontier, i);
      const VertexId v = frontier[i];
      const VertexId local = v - state.first;
      if (!state.queued[local]) continue;  // already processed
      const std::size_t actual = bucket_of(state.dist[local]);
      // Stale entry: the vertex was improved into a different bucket,
      // where a fresher entry already exists (see the queue invariant in
      // on_deliver).
      if (actual != b) continue;
      state.queued[local] = false;
      if (!state.in_settled[local]) {
        state.in_settled[local] = true;
        state.settled.push_back(v);
        ++state.settled_delta;
      }
      for (const graph::Neighbor& nb : csr_.out_neighbors(v)) {
        if (nb.weight <= delta_) {
          send_relax(pe, nb.dst, state.dist[local] + nb.weight);
        }
      }
    }
  }

  /// Heavy-edge phase: relax heavy out-edges of every vertex settled in
  /// the current bucket, then reset the settled set.
  void do_heavy(Pe& pe) {
    PeState& state = pes_[pe.id()];
    ++state.heavy_phases;
    for (std::size_t i = 0; i < state.settled.size(); ++i) {
      prefetch_frontier(state, state.settled, i);
      const VertexId v = state.settled[i];
      const VertexId local = v - state.first;
      state.in_settled[local] = false;
      for (const graph::Neighbor& nb : csr_.out_neighbors(v)) {
        if (nb.weight > delta_) {
          send_relax(pe, nb.dst, state.dist[local] + nb.weight);
        }
      }
    }
    state.settled.clear();
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
          if (!state.dirty_flag[local]) {
            state.dirty_flag[local] = true;
            state.dirty.push_back(v);
          }
        }
        bucket.clear();
      }
      // Settled vertices from the interrupted bucket still owe their
      // heavy-edge relaxations; fold them into the sweep as well.
      for (const VertexId v : state.settled) {
        const VertexId local = v - state.first;
        state.in_settled[local] = false;
        if (!state.dirty_flag[local]) {
          state.dirty_flag[local] = true;
          state.dirty.push_back(v);
        }
      }
      state.settled.clear();
    }
    std::vector<VertexId> sweep;
    sweep.swap(state.dirty);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      prefetch_frontier(state, sweep, i);
      const VertexId v = sweep[i];
      const VertexId local = v - state.first;
      state.dirty_flag[local] = false;
      for (const graph::Neighbor& nb : csr_.out_neighbors(v)) {
        send_relax(pe, nb.dst, state.dist[local] + nb.weight);
      }
    }
  }

  // ---- barrier / controller ----------------------------------------------

  void execute(Pe& pe, DeltaCmd cmd, std::uint64_t bucket) {
    PeState& state = pes_[pe.id()];
    if (cmd == DeltaCmd::kLight || cmd == DeltaCmd::kHeavy) {
      state.mode = cmd;
      state.current_bucket = bucket;
    }
    switch (cmd) {
      case DeltaCmd::kLight:
        do_light(pe, bucket);
        break;
      case DeltaCmd::kHeavy:
        do_heavy(pe);
        break;
      case DeltaCmd::kBellman:
        do_bellman(pe);
        break;
      case DeltaCmd::kNoop:
        break;
      case DeltaCmd::kDone:
        state.done = true;
        return;
    }
    tram_->flush_all(pe);
    contribute(pe);
  }

  void contribute(Pe& pe) {
    PeState& state = pes_[pe.id()];
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
    reducer_->contribute(pe, payload);
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

  void build_reducer() {
    std::vector<ReduceOp> ops(kSlots, ReduceOp::kSum);
    ops[kMinNext] = ReduceOp::kMin;
    reducer_ = std::make_unique<runtime::Reducer>(
        machine_, kSlots,
        [this](Pe&, std::uint64_t, const std::vector<double>& sum)
            -> std::optional<std::vector<double>> {
          return on_root(sum);
        },
        [this](Pe& pe, std::uint64_t, const std::vector<double>& payload) {
          on_broadcast(pe, payload);
        },
        /*fanout=*/4, std::move(ops));
  }

  /// Root: require a drained barrier (sent == recv, stable across two
  /// rounds) before consulting the schedule controller.
  std::optional<std::vector<double>> on_root(const std::vector<double>& sum) {
    const bool stable = drain_.observe(sum[kSent], sum[kRecv]);
    pending_settled_ += sum[kSettled];

    if (!stable) {
      return std::vector<double>{
          static_cast<double>(static_cast<int>(DeltaCmd::kNoop)), 0.0};
    }

    DeltaController::Summary summary;
    summary.bucket_count = sum[kBucketCount];
    summary.has_next_bucket = sum[kMinNext] != kNoBucket;
    summary.min_next_bucket =
        summary.has_next_bucket ? sum[kMinNext] : 0.0;
    summary.newly_settled = pending_settled_;
    summary.dirty_count = sum[kDirty];
    pending_settled_ = 0.0;

    const DeltaController::Decision decision = controller_.decide(summary);
    return std::vector<double>{
        static_cast<double>(static_cast<int>(decision.cmd)),
        static_cast<double>(decision.bucket)};
  }

  void on_broadcast(Pe& pe, const std::vector<double>& payload) {
    const auto cmd = static_cast<DeltaCmd>(static_cast<int>(payload[0]));
    const auto bucket = static_cast<std::uint64_t>(payload[1]);
    if (cmd == DeltaCmd::kDone) {
      pes_[pe.id()].done = true;
      return;
    }
    if (cmd == DeltaCmd::kNoop) {
      // Drain round: wait a beat for in-flight messages, then re-report.
      const PeId id = pe.id();
      machine_.schedule_at(
          pe.now() + config_.barrier_interval_us, id,
          [this, bucket](Pe& next) { execute(next, DeltaCmd::kNoop, bucket); });
      return;
    }
    execute(pe, cmd, bucket);
  }

  runtime::Machine& machine_;
  const graph::Csr& csr_;
  const graph::Partition1D& partition_;
  VertexId source_;
  DeltaConfig config_;
  double delta_;
  DeltaController controller_;

  std::vector<PeState> pes_;
  std::unique_ptr<UpdateTram> tram_;
  std::unique_ptr<runtime::Reducer> reducer_;

  // Root-side drain state.
  runtime::DrainRule drain_;
  double pending_settled_ = 0.0;
};

}  // namespace

DeltaRunResult delta_stepping_dist(runtime::Machine& machine,
                                   const graph::Csr& csr,
                                   const graph::Partition1D& partition,
                                   VertexId source,
                                   const DeltaConfig& config,
                                   runtime::SimTime time_limit_us) {
  DeltaEngine engine(machine, csr, partition, source, config);
  return engine.run(time_limit_us);
}

}  // namespace acic::baselines
