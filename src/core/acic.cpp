#include "src/core/acic.hpp"

#include <memory>
#include <algorithm>
#include <deque>
#include <span>
#include <utility>

#include "src/core/histogram.hpp"
#include "src/core/hold.hpp"
#include "src/obs/registry.hpp"
#include "src/runtime/collectives.hpp"
#include "src/sssp/update.hpp"
#include "src/tram/tram.hpp"
#include "src/util/assert.hpp"
#include "src/util/dary_heap.hpp"
#include "src/util/prefetch.hpp"

namespace acic::core {

using graph::Dist;
using graph::VertexId;
using runtime::Pe;
using runtime::PeId;
using sssp::Update;

namespace {

/// The in-flight form of an update inside this engine: the wire pair
/// (vertex, dist) plus a meta word — the distance's histogram bucket
/// (low 24 bits, computed once at creation time and carried along) and
/// the distance lane (high 8 bits; always 0 outside batched multi-source
/// runs).  Every PE buckets with the same width, so the receiver-side
/// bucket is identical — carrying it replaces an fp divide per delivery,
/// per pq pop and per expansion.  The meta word packs into Update's
/// existing alignment padding: sizeof(UpdateMsg) == sizeof(Update), so
/// tram buffer footprints are unchanged (and the simulated wire size
/// comes from TramConfig::item_bytes regardless).
constexpr std::uint32_t kLaneShift = 24;
constexpr std::uint32_t kBucketMask = (1u << kLaneShift) - 1;
constexpr std::size_t kMaxLanes = 256;  // 32 - kLaneShift tag bits

struct UpdateMsg {
  VertexId vertex = 0;
  std::uint32_t meta = 0;  // bucket | lane << kLaneShift
  Dist dist = 0.0;
};
static_assert(sizeof(UpdateMsg) == sizeof(Update));

inline std::uint32_t make_meta(std::size_t bucket, std::uint32_t lane) {
  ACIC_HOT_ASSERT(bucket <= kBucketMask);
  return static_cast<std::uint32_t>(bucket) | (lane << kLaneShift);
}
inline std::size_t bucket_of(const UpdateMsg& u) {
  return u.meta & kBucketMask;
}
inline std::uint32_t lane_of(const UpdateMsg& u) {
  return u.meta >> kLaneShift;
}

/// Same ordering as sssp::UpdateMinOrder on the (dist, vertex) key, with
/// the meta word as the final tie-break: equal distances mean equal
/// buckets (the bucket is a function of dist), so the meta comparison
/// reduces to the lane — single-lane pop order is bit-identical to the
/// pre-lane engine, and multi-lane ties between distinct queries resolve
/// deterministically by lane index.
struct UpdateMsgMinOrder {
  bool operator()(const UpdateMsg& a, const UpdateMsg& b) const {
    if (a.dist != b.dist) return a.dist > b.dist;
    if (a.vertex != b.vertex) return a.vertex > b.vertex;
    return a.meta > b.meta;
  }
};

/// Per-PE algorithm state.  Only tasks running on the owning PE touch it
/// (message-passing discipline; the simulation is single-threaded but the
/// code is written as if each PE were a separate address space).
/// Cache-line aligned: its counters are written on every update, and
/// under the parallel engine neighbouring PEs can belong to nodes run
/// by different host threads.
struct alignas(64) PeState {
  VertexId first = 0;  // owned vertex range [first, last)
  VertexId last = 0;
  std::size_t width = 0;   // last - first, hoisted for lane indexing
  /// Lane-major distance slots: lanes × width, indexed by
  /// (lane * width + (v - first)).  Single-lane runs see the exact
  /// pre-lane layout (lane 0 at offset 0).
  std::vector<Dist> dist;

  // By value (not unique_ptr): bucketing touches it once per
  // created and once per processed update, so the extra pointer
  // chase was visible at wall-clock scale.
  UpdateHistogram histogram{1, 1.0, 1};
  /// Holds keep the full UpdateMsg so the lane tag (and the
  /// creation-time bucket) survive the wait; releases re-emit the held
  /// message verbatim, which equals the old recompute bit-for-bit
  /// because the bucket is a pure function of the distance.
  BucketedHoldT<UpdateMsg> tram_hold{1};
  BucketedHoldT<UpdateMsg> pq_hold{1};
  /// 4-ary min-heap of pending expansions (pop order identical to the
  /// former std::priority_queue: the order ties only between
  /// bit-identical updates).  reserve() keeps steady-state push/pop off
  /// the allocator.
  util::DaryHeap<UpdateMsg, UpdateMsgMinOrder> pq;

  std::size_t t_tram = 0;
  std::size_t t_pq = 0;

  std::uint64_t created = 0;
  std::uint64_t processed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t superseded = 0;
  std::uint64_t touched = 0;

  // Lifecycle stage counters (fig. 2).
  std::uint64_t sent_directly = 0;
  std::uint64_t held_in_tram = 0;
  std::uint64_t entered_pq_directly = 0;
  std::uint64_t held_in_pq_hold = 0;
  std::uint64_t expanded = 0;

  /// Reusable contribution payload (histogram counts + 3 scalars).
  std::vector<double> payload_scratch;
  /// Reusable hold-release scratch for on_broadcast (per-PE, not shared:
  /// under the parallel engine broadcasts on different nodes run
  /// concurrently).
  std::vector<UpdateMsg> release_scratch;

  bool terminated = false;
};

/// A stolen expansion chunk waiting on a process's shared work queue:
/// relax edges [begin, end) of `vertex` at distance `dist` on behalf of
/// the lane packed in `meta` (alongside the histogram bucket of `dist`).
struct StealChunk {
  VertexId vertex = 0;
  Dist dist = 0.0;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint32_t meta = 0;
};

}  // namespace

class AcicEngine::Impl {
 public:
  Impl(runtime::Machine& machine, const graph::Csr& csr,
       const graph::Partition1D& partition, VertexId source,
       const AcicConfig& config, AcicEngineOptions options)
      : machine_(machine),
        registry_(machine.registry()),
        csr_(csr),
        partition_(partition),
        source_(source),
        config_(config),
        options_(std::move(options)),
        pes_(machine.num_pes()) {
    ACIC_ASSERT_MSG(partition.num_parts() == machine.num_pes(),
                    "partition parts must equal worker PE count");
    ACIC_ASSERT(source < csr.num_vertices());

    ACIC_ASSERT_MSG(options_.warm_dist == nullptr ||
                        options_.warm_dist->size() == csr.num_vertices(),
                    "warm_dist must cover every vertex");
    if (!options_.sources.empty()) {
      ACIC_ASSERT_MSG(options_.sources.size() <= kMaxLanes,
                      "at most 256 lanes (8-bit lane tag)");
      ACIC_ASSERT_MSG(options_.sources.front() == source,
                      "sources[0] must equal the primary source");
      ACIC_ASSERT_MSG(options_.warm_dist == nullptr,
                      "multi-source lanes and warm start are exclusive");
      ACIC_ASSERT(config_.num_buckets <= kBucketMask + 1);
      for (const VertexId s : options_.sources) {
        ACIC_ASSERT(s < csr.num_vertices());
      }
      num_lanes_ = static_cast<std::uint32_t>(options_.sources.size());
    }
    for (PeId p = 0; p < machine_.num_pes(); ++p) {
      PeState& state = pes_[p];
      state.first = partition.begin(p);
      state.last = partition.end(p);
      state.width = state.last - state.first;
      if (options_.warm_dist != nullptr) {
        state.dist.assign(
            options_.warm_dist->begin() + state.first,
            options_.warm_dist->begin() + state.last);
      } else {
        state.dist.assign(state.width * num_lanes_, graph::kInfDist);
      }
      state.histogram = UpdateHistogram(
          config_.num_buckets, config_.bucket_width, csr.num_vertices());
      state.tram_hold = BucketedHoldT<UpdateMsg>(config_.num_buckets);
      state.pq_hold = BucketedHoldT<UpdateMsg>(config_.num_buckets);
      state.pq.reserve(std::min<std::size_t>(
          state.last - state.first, 4096));
      // Before the first broadcast the activity is trivially low, so the
      // thresholds start fully open (Algorithm 1's low-activity branch).
      state.t_tram = config_.num_buckets - 1;
      state.t_pq = config_.num_buckets - 1;
    }

    if (registry_ != nullptr) {
      obs::Registry& reg = *registry_;
      obs_t_tram_ = reg.series("acic/t_tram");
      obs_t_pq_ = reg.series("acic/t_pq");
      obs_active_updates_ = reg.series("acic/active_updates");
      obs_histogram_ = reg.histogram_series("acic/update_histogram");
      obs_held_tram_ = reg.counter("acic/updates_held_tram");
      obs_released_tram_ = reg.counter("acic/updates_released_tram");
      obs_held_pq_ = reg.counter("acic/updates_held_pq");
      obs_released_pq_ = reg.counter("acic/updates_released_pq");
    }

    tram_ = std::make_unique<UpdateTram>(machine_, config_.tram,
                                         Deliver{this});

    node_term_.resize(machine_.topology().nodes);
    pes_per_node_ = machine_.num_pes() / machine_.topology().nodes;

    build_reducer();

    steal_queues_.resize(machine_.topology().num_procs());
    idle_handler_ids_.reserve(machine_.num_pes());
    for (PeId p = 0; p < machine_.num_pes(); ++p) {
      // add (not set): concurrent queries each register their own drain
      // and the machine polls them round-robin (src/server/ relies on
      // this to multiplex engines on shared PEs).
      idle_handler_ids_.push_back(machine_.add_idle_handler(
          p, [this](Pe& pe) {
            // Pull-based stealing first (shared process queue), then the
            // PE's own priority queue.
            return drain_steal_queue(pe) || drain_pq(pe);
          }));
    }

    // Inject the initial updates before the first contributions are
    // scheduled so the initial reduction can never observe a spurious
    // created == processed (a cold run terminating at 0 == 0 before the
    // source update lands would be wrong; a warm run with no seeds is
    // *correctly* quiescent, so its empty injection is fine).  The seeds
    // are a warm repair's in vector order, or each lane's (source, 0) in
    // lane order, one lane being the single-source run.  Each owner
    // creates its seeds in list order: one deterministic schedule however
    // many seeds there are and wherever they live.
    struct Seed {
      VertexId vertex;
      Dist dist;
      std::uint32_t lane;
    };
    std::vector<std::vector<Seed>> by_owner(machine_.num_pes());
    if (options_.warm_dist != nullptr) {
      for (const Update& seed : options_.seeds) {
        ACIC_ASSERT(seed.vertex < csr.num_vertices());
        by_owner[partition_.owner(seed.vertex)].push_back(
            Seed{seed.vertex, seed.dist, /*lane=*/0});
      }
    } else {
      for (std::uint32_t lane = 0; lane < num_lanes_; ++lane) {
        // sources[0] == source_; a single-source run may leave it empty.
        const VertexId s = lane == 0 ? source_ : options_.sources[lane];
        by_owner[partition_.owner(s)].push_back(Seed{s, 0.0, lane});
      }
    }
    const runtime::SimTime start = options_.start_time_us;
    for (PeId p = 0; p < machine_.num_pes(); ++p) {
      if (by_owner[p].empty()) continue;
      machine_.schedule_at(
          start, p, [this, seeds = std::move(by_owner[p])](Pe& pe) {
            for (const Seed& seed : seeds) {
              create_seed(pe, seed.vertex, seed.dist, seed.lane);
            }
          });
    }
    for (PeId p = 0; p < machine_.num_pes(); ++p) {
      machine_.schedule_at(start, p, [this](Pe& pe) { contribute(pe); });
    }
  }

  ~Impl() {
    for (PeId p = 0; p < machine_.num_pes(); ++p) {
      machine_.remove_idle_handler(p, idle_handler_ids_[p]);
    }
  }

  bool complete() const {
    return nodes_done_ == machine_.topology().nodes;
  }
  VertexId source() const { return source_; }

  AcicRunResult collect() const {
    AcicRunResult result;
    result.reduction_cycles = reducer_->cycles_completed();
    result.histograms = snapshots_;

    result.sssp.dist.assign(csr_.num_vertices(), graph::kInfDist);
    if (!options_.sources.empty()) {
      result.lane_dist.assign(
          num_lanes_,
          std::vector<Dist>(csr_.num_vertices(), graph::kInfDist));
      for (const PeState& state : pes_) {
        for (std::uint32_t lane = 0; lane < num_lanes_; ++lane) {
          std::copy(state.dist.begin() + lane * state.width,
                    state.dist.begin() + (lane + 1) * state.width,
                    result.lane_dist[lane].begin() + state.first);
        }
      }
    }
    for (const PeState& state : pes_) {
      std::copy(state.dist.begin(), state.dist.begin() + state.width,
                result.sssp.dist.begin() + state.first);
      result.sssp.metrics.updates_created += state.created;
      result.sssp.metrics.updates_processed += state.processed;
      result.sssp.metrics.updates_rejected += state.rejected;
      result.sssp.metrics.updates_superseded += state.superseded;
      result.sssp.metrics.vertices_touched += state.touched;
      result.lifecycle.created += state.created;
      result.lifecycle.sent_directly += state.sent_directly;
      result.lifecycle.held_in_tram += state.held_in_tram;
      result.lifecycle.rejected_on_arrival += state.rejected;
      result.lifecycle.entered_pq_directly += state.entered_pq_directly;
      result.lifecycle.held_in_pq_hold += state.held_in_pq_hold;
      result.lifecycle.superseded_in_pq += state.superseded;
      result.lifecycle.expanded += state.expanded;
    }
    result.sssp.metrics.collective_cycles = reducer_->cycles_completed();
    return result;
  }

 private:
  /// Concrete (non-type-erased) delivery functor handed to the tram.  It
  /// takes whole batches, so one loop holds the PE clock in a Pe::Meter
  /// across a batch (see Impl::deliver_batch).
  struct Deliver {
    Impl* impl;
    void deliver_batch(Pe& pe, const UpdateMsg* items, std::size_t count,
                       runtime::SimTime cost) const {
      impl->deliver_batch(pe, items, count, cost);
    }
    /// Lets the tram store bare 16-byte UpdateMsgs (no per-entry target
    /// field): an update's destination is always its vertex's owner, and
    /// owner() on the uniform block partition is a shift.
    PeId target_of(const UpdateMsg& u) const {
      return impl->partition_.owner(u.vertex);
    }
  };
  using UpdateTram = tram::Tram<UpdateMsg, Deliver>;

  PeState& state_of(const Pe& pe) { return pes_[pe.id()]; }

  // ---- update lifecycle -------------------------------------------------
  //
  // The two per-update loops — relax_row on the create side and
  // deliver_batch on the arrival side — hold the PE clock in a Pe::Meter
  // and their loop invariants (scaled costs, thresholds) and counters in
  // locals, so each update costs register additions rather than
  // round-trips through the PE and the PeState.  Observed and unobserved
  // runs share them: registry stamps read the meter's time.

  static constexpr std::size_t kNoHold = ~std::size_t{0};

  /// Bucket at or below which a created update goes straight to the
  /// tram (every bucket when tram holds are off).
  std::size_t tram_threshold(const PeState& state) const {
    return config_.use_tram_hold ? state.t_tram : kNoHold;
  }

  /// Creates update (target, d) on `lane` with `pe`'s clock held in
  /// `meter` (paper fig. 2, green "create" block): adds it to the local
  /// histogram, then appends it to the tram — within t_tram — or holds
  /// it.  Returns true if it went to the tram; the caller counts it.
  [[gnu::always_inline]] bool create(Pe& pe, Pe::Meter& meter,
                                     PeState& state,
                                     runtime::SimTime insert_us,
                                     std::size_t t_tram, VertexId target,
                                     Dist d, std::uint32_t lane) {
    const std::size_t bucket = state.histogram.bucket_of(d);
    state.histogram.increment(bucket);
    const std::uint32_t meta = make_meta(bucket, lane);
    if (bucket <= t_tram) {
      meter.add(insert_us);
      const PeId owner = partition_.owner(target);
      if (tram_->append(pe, owner, meter.now(), target, meta, d)) {
        meter.commit();
        tram_->flush_full(pe, owner);
        meter.reload();
      }
      return true;
    }
    state.tram_hold.put(bucket, UpdateMsg{target, meta, d});
    if (registry_ != nullptr) {
      registry_->add(obs_held_tram_, pe.id(), 1, meter.now());
    }
    return false;
  }

  static void count_created(PeState& state, std::uint64_t created,
                            std::uint64_t sent) {
    state.created += created;
    state.sent_directly += sent;
    state.held_in_tram += created - sent;
  }

  /// Relaxes every edge of `row` from distance `base` on `lane`: one
  /// created update per edge, each charged edge_relax_us.  Expansions,
  /// hub-split chunks and stolen chunks all come through here.
  void relax_row(Pe& pe, PeState& state, std::span<const graph::Neighbor> row,
                 Dist base, std::uint32_t lane) {
    util::prefetch_row(row.data(), row.size_bytes());
    Pe::Meter meter(pe);
    const runtime::SimTime relax_us = pe.scaled(config_.costs.edge_relax_us);
    const runtime::SimTime insert_us = pe.scaled(tram_->insert_charge_us());
    const std::size_t t_tram = tram_threshold(state);
    std::uint64_t sent = 0;
    for (const graph::Neighbor& nb : row) {
      meter.add(relax_us);
      sent += create(pe, meter, state, insert_us, t_tram, nb.dst,
                     base + nb.weight, lane);
    }
    meter.commit();
    count_created(state, row.size(), sent);
  }

  /// Creates one initial update (the source, a repair seed, a lane's
  /// source) through the same body as relax_row.
  void create_seed(Pe& pe, VertexId target, Dist d, std::uint32_t lane) {
    PeState& state = state_of(pe);
    Pe::Meter meter(pe);
    const bool sent =
        create(pe, meter, state, pe.scaled(tram_->insert_charge_us()),
               tram_threshold(state), target, d, lane);
    meter.commit();
    count_created(state, 1, sent ? 1 : 0);
  }

  /// Warms the distance slot an update will be compared against and the
  /// CSR offsets entry its expansion reads first.  A hint only: the
  /// simulation is bit-identical with or without it.
  void prefetch_update(const PeState& state, const UpdateMsg& u) const {
    util::prefetch_read(state.dist.data() + lane_of(u) * state.width +
                        (u.vertex - state.first));
    util::prefetch_read(csr_.offsets().data() + u.vertex);
  }

  /// A tram batch arrived at the owner of its updates' vertices (purple
  /// "process arrival" block); each update is charged `deliver_us`
  /// first.  Better distances are applied immediately; the expansion is
  /// deferred through pq so a still-better update can supersede it (the
  /// paper's optimal-update generation).
  void deliver_batch(Pe& pe, const UpdateMsg* items, std::size_t count,
                     runtime::SimTime deliver_us) {
    PeState& state = state_of(pe);
    // Termination needs created == processed, so no update is in flight.
    ACIC_ASSERT_MSG(!state.terminated, "update batch reached a retired PE");
    Pe::Meter meter(pe);
    const runtime::SimTime deliver = pe.scaled(deliver_us);
    const runtime::SimTime apply = pe.scaled(config_.costs.update_apply_us);
    const runtime::SimTime pq_op = pe.scaled(config_.costs.pq_op_us);
    const bool use_pq = config_.use_pq;
    const std::size_t t_pq = config_.use_pq_hold ? state.t_pq : kNoHold;
    std::uint64_t rejected = 0;
    std::uint64_t touched = 0;
    std::uint64_t to_pq = 0;
    std::uint64_t held = 0;
    constexpr std::size_t kLook = util::kDeliverPrefetchLookahead;
    for (std::size_t i = 0; i < count; ++i) {
      if (i + kLook < count) prefetch_update(state, items[i + kLook]);
      const UpdateMsg& u = items[i];
      ACIC_HOT_ASSERT(u.vertex >= state.first && u.vertex < state.last);
      // The update carries its creation-time bucket: the same value
      // serves the rejection decrement and the pq/hold routing below.
      const std::size_t bucket = bucket_of(u);
      meter.add(deliver);
      meter.add(apply);
      const std::size_t slot =
          lane_of(u) * state.width + (u.vertex - state.first);
      if (u.dist >= state.dist[slot]) {
        state.histogram.decrement(bucket);
        ++rejected;
        continue;
      }
      touched += state.dist[slot] == graph::kInfDist;
      state.dist[slot] = u.dist;

      if (!use_pq) {
        // Baseline behaviour: relax out-edges immediately.
        meter.commit();
        expand(pe, u);
        meter.reload();
        continue;
      }
      if (bucket <= t_pq) {
        ++to_pq;
        meter.add(pq_op);
        state.pq.push(u);
      } else {
        ++held;
        state.pq_hold.put(bucket, u);
        if (registry_ != nullptr) {
          registry_->add(obs_held_pq_, pe.id(), 1, meter.now());
        }
      }
    }
    meter.commit();
    state.processed += rejected;
    state.rejected += rejected;
    state.touched += touched;
    state.entered_pq_directly += to_pq;
    state.held_in_pq_hold += held;
  }

  /// Idle-time drain: pop improving updates in increasing distance order
  /// and expand only those still current (dist(v) == d).
  bool drain_pq(Pe& pe) {
    PeState& state = state_of(pe);
    bool any = false;
    for (std::size_t i = 0;
         i < config_.pq_drain_batch && !state.pq.empty(); ++i) {
      pe.charge(config_.costs.pq_op_us);
      const UpdateMsg u = state.pq.pop_top();
      // The heap's new top is almost always the next pop of this batch:
      // start its distance-slot and CSR-row loads now, behind the
      // expansion of u below (PrefEdge-style lookahead-1).
      if (!state.pq.empty()) prefetch_update(state, state.pq.top());
      any = true;
      const std::size_t slot =
          lane_of(u) * state.width + (u.vertex - state.first);
      if (state.dist[slot] == u.dist) {
        expand(pe, u);
      } else {
        // A better update arrived while this one sat in pq: it is wasted.
        mark_processed_bucket(state, bucket_of(u));
        ++state.superseded;
      }
    }
    return any;
  }

  /// Relaxes every out-edge of u.vertex at distance u.dist, then marks u
  /// processed.  High-degree vertices may be stolen: the edge range is
  /// split across the process's worker PEs, which relax their chunks
  /// against the shared-memory CSR (future work §V).
  void expand(Pe& pe, const UpdateMsg& u) {
    const auto row = csr_.out_neighbors(u.vertex);
    const std::uint32_t workers =
        machine_.topology().pes_per_proc;
    PeState& state = state_of(pe);
    if (config_.hub_split_degree != 0 && machine_.num_pes() > 1 &&
        row.size() >= config_.hub_split_degree) {
      expand_hub_split(pe, u, row);
    } else if (config_.steal_threshold_degree != 0 && workers > 1 &&
               row.size() >= config_.steal_threshold_degree) {
      expand_stolen(pe, u, row);
    } else {
      relax_row(pe, state, row, u.dist, lane_of(u));
    }
    ++state.expanded;
    mark_processed_bucket(state, bucket_of(u));
  }

  /// Work-stealing expansion: split the row into chunks on the shared
  /// per-process work queue; whichever process PE goes idle first pulls
  /// and relaxes them.  Each chunk is itself accounted as an update
  /// (created here, processed by the puller) so the quiescence counters
  /// observe in-flight chunks.
  void expand_stolen(Pe& pe, const UpdateMsg& u,
                     std::span<const graph::Neighbor> row) {
    PeState& owner = state_of(pe);
    const runtime::Topology& topo = machine_.topology();
    const std::uint32_t proc = topo.proc_of(pe.id());
    const std::size_t request_bucket = bucket_of(u);

    std::size_t begin = 0;
    while (begin < row.size()) {
      const std::size_t end =
          std::min(begin + config_.steal_chunk_edges, row.size());
      ++owner.created;
      owner.histogram.increment(request_bucket);
      pe.charge(config_.steal_queue_op_us);
      steal_queues_[proc].push_back(
          StealChunk{u.vertex, u.dist, begin, end, u.meta});
      begin = end;
    }

    // Wake sleeping siblings: an empty message lands in their task
    // queue, after which their idle handler finds the shared queue.
    const PeId first = topo.first_pe_of_proc(proc);
    for (std::uint32_t w = 0; w < topo.pes_per_proc; ++w) {
      const PeId sibling = first + w;
      if (sibling != pe.id()) {
        pe.send(sibling, 8, [](Pe&) {});
      }
    }
  }

  /// 1.5-D-style hub split: scatter the hub's edge chunks round-robin
  /// across every worker PE; each recipient relaxes its chunk against
  /// the shared CSR (the graph is replicated read-only in the
  /// simulation, standing in for a 1.5-D edge distribution).  Chunks
  /// are accounted exactly like stolen chunks.
  void expand_hub_split(Pe& pe, const UpdateMsg& u,
                        std::span<const graph::Neighbor> row) {
    PeState& owner = state_of(pe);
    const std::size_t request_bucket = bucket_of(u);
    const std::uint32_t lane = lane_of(u);
    const std::uint32_t pes = machine_.num_pes();
    const std::size_t chunk_len =
        std::max<std::size_t>(config_.steal_chunk_edges,
                              (row.size() + pes - 1) / pes);

    std::size_t begin = 0;
    std::uint32_t next = pe.id();
    while (begin < row.size()) {
      const std::size_t end = std::min(begin + chunk_len, row.size());
      ++owner.created;
      owner.histogram.increment(request_bucket);

      const PeId target = next % pes;
      next = target + 1;
      auto relax_chunk = [this, d = u.dist, request_bucket, lane, begin,
                          end, vertex = u.vertex](Pe& worker) {
        PeState& state = state_of(worker);
        relax_row(worker, state,
                  csr_.out_neighbors(vertex).subspan(begin, end - begin), d,
                  lane);
        mark_processed_bucket(state, request_bucket);
      };
      if (target == pe.id()) {
        relax_chunk(pe);
      } else {
        pe.send(target, 24, std::move(relax_chunk));
      }
      begin = end;
    }
  }

  /// Pulls up to one chunk from this process's shared work queue and
  /// relaxes it.  Returns true if a chunk was processed.
  bool drain_steal_queue(Pe& pe) {
    if (config_.steal_threshold_degree == 0) return false;
    auto& queue = steal_queues_[machine_.topology().proc_of(pe.id())];
    if (queue.empty()) return false;
    pe.charge(config_.steal_queue_op_us);
    const StealChunk chunk = queue.front();
    queue.pop_front();
    PeState& state = state_of(pe);
    relax_row(pe, state,
              csr_.out_neighbors(chunk.vertex)
                  .subspan(chunk.begin, chunk.end - chunk.begin),
              chunk.dist, chunk.meta >> kLaneShift);
    mark_processed_bucket(state, chunk.meta & kBucketMask);
    return true;
  }

  /// Every caller carries the creation-time bucket in its UpdateMsg meta
  /// word (the bucket_of divide once per update was visible at
  /// wall-clock scale), so processing never re-buckets.
  void mark_processed_bucket(PeState& state, std::size_t bucket) {
    ++state.processed;
    state.histogram.decrement(bucket);
  }

  // ---- introspection cycle ----------------------------------------------

  /// Payload layout: [created, processed, finalized, bucket 0, ...].
  /// The scalars lead so a contribution can end at its highest non-zero
  /// bucket (the Reducer treats missing slots as zero); on the benchmark
  /// graphs that is bucket ~50 of 512.  `finalized` is always 0: it is
  /// the slot of the finalized-vertex termination the paper abandoned
  /// (§II.D), kept so the payload's simulated size and combine charges
  /// stay as recorded.
  static constexpr std::size_t kPayloadHead = 3;
  std::size_t payload_width() const {
    return kPayloadHead + config_.num_buckets;
  }

  void contribute(Pe& pe) {
    PeState& state = state_of(pe);
    if (state.terminated) return;
    // Reused per-PE scratch: contribute runs every reduction cycle and
    // the Reducer only reads the payload during the call.
    std::vector<double>& payload = state.payload_scratch;
    payload.clear();
    payload.reserve(payload_width());
    payload.push_back(static_cast<double>(state.created));
    payload.push_back(static_cast<double>(state.processed));
    payload.push_back(0.0);  // finalized
    state.histogram.append_to(&payload);
    reducer_->contribute(pe, payload);
  }

  void build_reducer() {
    reducer_ = std::make_unique<runtime::Reducer>(
        machine_, payload_width(),
        [this](Pe& pe, std::uint64_t cycle,
               const std::vector<double>& sum)
            -> std::optional<std::vector<double>> {
          return on_root(pe, cycle, sum);
        },
        [this](Pe& pe, std::uint64_t cycle,
               const std::vector<double>& payload) {
          on_broadcast(pe, cycle, payload);
        });
  }

  /// Root handler: Algorithm 1 — check quiescence, else walk the global
  /// histogram for the two thresholds; always broadcast.
  std::optional<std::vector<double>> on_root(
      Pe& pe, std::uint64_t cycle, const std::vector<double>& sum) {
    const double created = sum[0];
    const double processed = sum[1];
    if (root_drain_.observe(created, processed)) {
      return std::vector<double>{0.0, 0.0, 1.0, 0.0};  // terminate
    }

    const std::vector<double> histogram(sum.begin() + kPayloadHead,
                                        sum.end());
    Thresholds t;
    if (config_.threshold_policy == ThresholdPolicyKind::kWorkWindow) {
      t = compute_thresholds_work_window(histogram, machine_.num_pes(),
                                         config_.work_window);
    } else {
      const ThresholdPolicy policy{config_.p_tram, config_.p_pq,
                                   config_.low_activity_factor};
      t = compute_thresholds(histogram, machine_.num_pes(), policy);
    }

    if (config_.record_histograms) {
      HistogramSnapshot snap;
      snap.cycle = cycle;
      snap.time_us = pe.now();
      snap.counts = histogram;
      snap.active_updates = created - processed;
      snap.t_tram = t.t_tram;
      snap.t_pq = t.t_pq;
      snapshots_.push_back(std::move(snap));
    }

    // Per-cycle introspection stream: the chosen thresholds, the global
    // active-update count, and the full distance histogram, stamped at
    // the root's current time.
    if (registry_ != nullptr) {
      obs::Registry& reg = *registry_;
      reg.append(obs_t_tram_, pe.now(), static_cast<double>(t.t_tram));
      reg.append(obs_t_pq_, pe.now(), static_cast<double>(t.t_pq));
      reg.append(obs_active_updates_, pe.now(), created - processed);
      reg.append_histogram(obs_histogram_, cycle, pe.now(), histogram);
    }

    // Slot 3 is unused; the broadcast keeps its recorded width.
    return std::vector<double>{static_cast<double>(t.t_tram),
                               static_cast<double>(t.t_pq), 0.0, 0.0};
  }

  /// Broadcast handler: adopt the new thresholds, release holds in
  /// increasing bucket order, flush tramlib, and re-contribute.
  void on_broadcast(Pe& pe, std::uint64_t /*cycle*/,
                    const std::vector<double>& payload) {
    PeState& state = state_of(pe);
    if (payload[2] != 0.0) {
      // Quiescence: every created update was processed, so none waits.
      ACIC_ASSERT_MSG(state.pq.empty() && state.pq_hold.empty() &&
                          state.tram_hold.empty(),
                      "updates pending at termination");
      state.terminated = true;
      // Retirement counting is per simulated node (each node owns its
      // own counter — under the parallel engine PEs of different nodes
      // retire concurrently).  The last PE of each node reports "node
      // done" to PE 0 with an ordinary message; PE 0 counts nodes and
      // completes the query when the last report lands.  By then the
      // created == processed quiescence means no update message still
      // references this engine, so the owner may schedule retirement
      // (in a *separate* task — our frames are on the stack here).
      const std::uint32_t node = machine_.topology().node_of(pe.id());
      if (++node_term_[node].terminated == pes_per_node_) {
        pe.send(0, 8, [this](Pe& root) {
          if (++nodes_done_ == machine_.topology().nodes &&
              options_.on_complete) {
            options_.on_complete(root);
          }
        });
      }
      return;
    }
    state.t_tram = static_cast<std::size_t>(payload[0]);
    state.t_pq = static_cast<std::size_t>(payload[1]);

    std::vector<UpdateMsg>& release_buffer = state.release_scratch;
    release_buffer.clear();
    state.tram_hold.release_up_to(state.t_tram, &release_buffer);
    if (registry_ != nullptr && !release_buffer.empty()) {
      registry_->add(obs_released_tram_, pe.id(),
                     release_buffer.size(), pe.now());
    }
    for (const UpdateMsg& u : release_buffer) {
      // The held message already carries its bucket and lane; re-emit it
      // verbatim (bit-identical to the old release-time re-bucketing —
      // the bucket is a pure function of the distance).
      tram_->insert(pe, partition_.owner(u.vertex), u);
    }

    release_buffer.clear();
    state.pq_hold.release_up_to(state.t_pq, &release_buffer);
    if (registry_ != nullptr && !release_buffer.empty()) {
      registry_->add(obs_released_pq_, pe.id(),
                     release_buffer.size(), pe.now());
    }
    for (const UpdateMsg& u : release_buffer) {
      pe.charge(config_.costs.pq_op_us);
      state.pq.push(u);
    }

    // The paper's manual flush: guarantees buffered updates eventually
    // move even when the tail has too little traffic to fill buffers.
    tram_->flush_all(pe);

    const PeId id = pe.id();
    machine_.schedule_at(pe.now() + config_.reduction_interval_us, id,
                         [this](Pe& next) { contribute(next); });
  }

  runtime::Machine& machine_;
  obs::Registry* const registry_;  // the machine's, read at construction
  const graph::Csr& csr_;
  const graph::Partition1D& partition_;
  VertexId source_;
  AcicConfig config_;
  AcicEngineOptions options_;

  std::vector<PeState> pes_;
  /// Distance lanes carried by this engine (1 outside batched
  /// multi-source mode; == options_.sources.size() inside it).
  std::uint32_t num_lanes_ = 1;
  std::vector<runtime::IdleHandlerId> idle_handler_ids_;
  /// Per-node retirement counters (cache-line padded: each node's PEs
  /// retire on their own shard under the parallel engine).
  struct alignas(64) NodeTermination {
    std::uint32_t terminated = 0;
  };
  std::vector<NodeTermination> node_term_;
  std::uint32_t pes_per_node_ = 0;
  /// Nodes whose "node done" report has reached PE 0.  Written only by
  /// PE 0's tasks; read by complete() after run() returns.
  std::uint32_t nodes_done_ = 0;
  std::unique_ptr<UpdateTram> tram_;
  std::unique_ptr<runtime::Reducer> reducer_;

  runtime::DrainRule root_drain_;  // termination: created == processed

  std::vector<HistogramSnapshot> snapshots_;

  // Registry handles; valid iff registry_ != nullptr.
  obs::SeriesId obs_t_tram_;
  obs::SeriesId obs_t_pq_;
  obs::SeriesId obs_active_updates_;
  obs::HistogramSeriesId obs_histogram_;
  obs::CounterId obs_held_tram_;
  obs::CounterId obs_released_tram_;
  obs::CounterId obs_held_pq_;
  obs::CounterId obs_released_pq_;
  /// Shared per-process work-stealing queues (shared-memory structures;
  /// pushes/pops charge an atomic-operation cost).
  std::vector<std::deque<StealChunk>> steal_queues_;
};

AcicEngine::AcicEngine(runtime::Machine& machine, const graph::Csr& csr,
                       const graph::Partition1D& partition, VertexId source,
                       const AcicConfig& config, AcicEngineOptions options)
    : impl_(std::make_unique<Impl>(machine, csr, partition, source, config,
                                   std::move(options))) {}

AcicEngine::~AcicEngine() = default;

bool AcicEngine::complete() const { return impl_->complete(); }
VertexId AcicEngine::source() const { return impl_->source(); }
AcicRunResult AcicEngine::collect() const { return impl_->collect(); }

AcicRunResult acic_sssp(runtime::Machine& machine, const graph::Csr& csr,
                        const graph::Partition1D& partition,
                        VertexId source, const AcicConfig& config,
                        runtime::SimTime time_limit_us) {
  AcicEngine engine(machine, csr, partition, source, config);
  const runtime::RunStats stats = machine.run(time_limit_us);

  // Per-query counters come from the engine; machine-level accounting
  // (network totals, end time, per-PE busy time) from this run().
  AcicRunResult result = engine.collect();
  result.hit_time_limit = stats.hit_time_limit;
  sssp::fill_machine_fields(machine, stats, result.sssp.metrics,
                            result.pe_busy_us);
  return result;
}

}  // namespace acic::core
