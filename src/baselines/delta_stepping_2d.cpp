#include "src/baselines/delta_stepping_2d.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/baselines/sequential.hpp"
#include "src/runtime/collectives.hpp"
#include "src/sssp/update.hpp"
#include "src/util/assert.hpp"

namespace acic::baselines {

namespace {

using graph::Dist;
using graph::VertexId;
using runtime::Pe;
using runtime::PeId;
using runtime::ReduceOp;
using sssp::Update;

constexpr double kNoBucket = std::numeric_limits<double>::infinity();

enum Slot : std::size_t {
  kSent = 0,
  kRecv = 1,
  kBucketCount = 2,
  kMinNext = 3,
  kSettled = 4,
  kDirty = 5,
  kSlots = 6,
};

/// Which edges a frontier chunk should relax at the receiving cell.
enum class RelaxKind : std::uint8_t { kLightOnly, kHeavyOnly, kAll };

/// Owner-side vertex state: each cell owns exactly one vertex group.
struct PeState {
  VertexId first = 0;  // owned group range
  VertexId last = 0;
  std::vector<Dist> dist;
  std::vector<bool> queued;
  std::vector<bool> in_settled;
  std::vector<bool> dirty_flag;
  std::vector<std::vector<VertexId>> buckets;
  std::vector<VertexId> settled;
  std::vector<VertexId> dirty;

  std::uint64_t sent = 0;       // wire items (frontier + candidates)
  std::uint64_t recv = 0;
  std::uint64_t created = 0;    // edge relaxations performed
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
  bool done = false;
};

class Delta2DEngine {
 public:
  Delta2DEngine(runtime::Machine& machine, const graph::Csr& csr,
                const graph::Partition2D& partition, VertexId source,
                const DeltaConfig& config)
      : machine_(machine),
        csr_(csr),
        partition_(partition),
        source_(source),
        config_(config),
        delta_(config.delta > 0.0 ? config.delta : default_delta(csr)),
        controller_(config.hybrid_bellman_ford),
        pes_(machine.num_pes()) {
    ACIC_ASSERT_MSG(partition.num_cells() == machine.num_pes(),
                    "grid cells must equal worker PE count");
    ACIC_ASSERT(source < csr.num_vertices());

    for (PeId p = 0; p < machine_.num_pes(); ++p) {
      PeState& state = pes_[p];
      const std::uint32_t group = partition_.group_owned_by(p);
      state.first = partition_.group_begin(group);
      state.last = partition_.group_end(group);
      const std::size_t n = state.last - state.first;
      state.dist.assign(n, graph::kInfDist);
      state.queued.assign(n, false);
      state.in_settled.assign(n, false);
      state.dirty_flag.assign(n, false);
    }

    build_reducer();

    const PeId owner = partition_.state_owner_of_vertex(source_);
    machine_.schedule_at(0.0, owner, [this](Pe& pe) {
      PeState& state = pes_[pe.id()];
      const VertexId local = source_ - state.first;
      state.dist[local] = 0.0;
      ++state.touched;
      state.queued[local] = true;
      place_in(state.buckets, 0, source_);
    });
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
      result.sssp.metrics.updates_created += state.created;
      result.sssp.metrics.updates_processed += state.processed;
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
  std::size_t bucket_of(Dist d) const {
    return static_cast<std::size_t>(d / delta_);
  }
  static void place_in(std::vector<std::vector<VertexId>>& buckets,
                       std::size_t b, VertexId v) {
    if (b >= buckets.size()) buckets.resize(b + 1);
    buckets[b].push_back(v);
  }
  static std::size_t wire_bytes(std::size_t items) {
    return 32 + items * sssp::kUpdateWireBytes;
  }

  // ---- column broadcast of a frontier ------------------------------------

  /// Sends `frontier` from owner `pe` to every cell in its column (self
  /// included, locally) for relaxation of `kind` edges.
  void broadcast_frontier(Pe& pe, const std::vector<Update>& frontier,
                          RelaxKind kind) {
    if (frontier.empty()) return;
    PeState& state = pes_[pe.id()];
    const std::uint32_t my_col = partition_.col_of(pe.id());
    for (std::uint32_t i = 0; i < partition_.rows(); ++i) {
      const PeId target = partition_.cell(i, my_col);
      state.sent += frontier.size();
      if (target == pe.id()) {
        relax_frontier(pe, frontier, kind);
        continue;
      }
      pe.send(target, wire_bytes(frontier.size()),
              [this, frontier, kind](Pe& dst) {
                pes_[dst.id()].recv += frontier.size();
                relax_frontier(dst, frontier, kind);
              });
    }
    // Items handled locally count as received too (keeps sent == recv at
    // quiescence).
    state.recv += frontier.size();
  }

  /// Relaxes `frontier` against this cell's edge block; min-combines
  /// candidates per destination vertex and ships one message per
  /// destination owner along this row.
  void relax_frontier(Pe& pe, const std::vector<Update>& frontier,
                      RelaxKind kind) {
    PeState& state = pes_[pe.id()];
    // Candidates per destination owner cell, min-combined per vertex.
    std::map<PeId, std::map<VertexId, Dist>> combined;
    for (const Update& f : frontier) {
      for (const graph::Edge& e :
           partition_.cell_out_edges(pe.id(), f.vertex)) {
        const bool is_light = e.weight <= delta_;
        if (kind == RelaxKind::kLightOnly && !is_light) continue;
        if (kind == RelaxKind::kHeavyOnly && is_light) continue;
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
      if (!state.dirty_flag[local]) {
        state.dirty_flag[local] = true;
        state.dirty.push_back(u.vertex);
      }
      return;
    }
    state.queued[local] = true;
    pe.charge(config_.costs.pq_op_us);
    place_in(state.buckets, bucket_of(u.dist), u.vertex);
  }

  // ---- phase work ---------------------------------------------------------

  void do_light(Pe& pe, std::uint64_t b) {
    PeState& state = pes_[pe.id()];
    ++state.light_phases;
    std::vector<Update> frontier;
    if (b < state.buckets.size()) {
      std::vector<VertexId> entries;
      entries.swap(state.buckets[b]);
      for (const VertexId v : entries) {
        const VertexId local = v - state.first;
        if (!state.queued[local]) continue;
        if (bucket_of(state.dist[local]) != b) continue;  // stale entry
        state.queued[local] = false;
        if (!state.in_settled[local]) {
          state.in_settled[local] = true;
          state.settled.push_back(v);
          ++state.settled_delta;
        }
        frontier.push_back(Update{v, state.dist[local]});
      }
    }
    broadcast_frontier(pe, frontier, RelaxKind::kLightOnly);
  }

  void do_heavy(Pe& pe) {
    PeState& state = pes_[pe.id()];
    ++state.heavy_phases;
    std::vector<Update> frontier;
    frontier.reserve(state.settled.size());
    for (const VertexId v : state.settled) {
      const VertexId local = v - state.first;
      state.in_settled[local] = false;
      frontier.push_back(Update{v, state.dist[local]});
    }
    state.settled.clear();
    broadcast_frontier(pe, frontier, RelaxKind::kHeavyOnly);
  }

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
    std::vector<Update> frontier;
    std::vector<VertexId> sweep;
    sweep.swap(state.dirty);
    frontier.reserve(sweep.size());
    for (const VertexId v : sweep) {
      const VertexId local = v - state.first;
      state.dirty_flag[local] = false;
      frontier.push_back(Update{v, state.dist[local]});
    }
    broadcast_frontier(pe, frontier, RelaxKind::kAll);
  }

  // ---- barrier / controller -----------------------------------------------

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

  std::size_t count_live(const PeState& state, std::uint64_t b) const {
    std::size_t live = 0;
    for (const VertexId v : state.buckets[b]) {
      const VertexId local = v - state.first;
      if (state.queued[local] && bucket_of(state.dist[local]) == b) ++live;
    }
    return live;
  }

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

  std::optional<std::vector<double>> on_root(const std::vector<double>& sum) {
    const bool equal = sum[kSent] == sum[kRecv];
    const bool stable = equal && drained_armed_ && sum[kSent] == last_sent_;
    drained_armed_ = equal;
    last_sent_ = sum[kSent];
    pending_settled_ += sum[kSettled];

    if (!stable) {
      return std::vector<double>{
          static_cast<double>(static_cast<int>(DeltaCmd::kNoop)), 0.0};
    }

    DeltaController::Summary summary;
    summary.bucket_count = sum[kBucketCount];
    summary.has_next_bucket = sum[kMinNext] != kNoBucket;
    summary.min_next_bucket = summary.has_next_bucket ? sum[kMinNext] : 0.0;
    summary.newly_settled = pending_settled_;
    summary.dirty_count = sum[kDirty];
    pending_settled_ = 0.0;
    drained_armed_ = false;

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
  const graph::Partition2D& partition_;
  VertexId source_;
  DeltaConfig config_;
  double delta_;
  DeltaController controller_;

  std::vector<PeState> pes_;
  std::unique_ptr<runtime::Reducer> reducer_;

  bool drained_armed_ = false;
  double last_sent_ = -1.0;
  double pending_settled_ = 0.0;
};

}  // namespace

DeltaRunResult delta_stepping_2d(runtime::Machine& machine,
                                 const graph::Csr& csr,
                                 const graph::Partition2D& partition,
                                 VertexId source, const DeltaConfig& config,
                                 runtime::SimTime time_limit_us) {
  Delta2DEngine engine(machine, csr, partition, source, config);
  return engine.run(time_limit_us);
}

}  // namespace acic::baselines
