#pragma once
// tramlib — the message aggregation library from the paper (§II.D),
// reimplemented over the discrete-event runtime.
//
// SSSP sends an enormous number of tiny update messages; sending each one
// individually pays the per-message overhead every time.  Tramlib holds
// outgoing items in buffers and ships a whole buffer as one message when
// it fills (an *automatic flush*) or when the application asks (a
// *manual flush* — ACIC issues one during the broadcast after every
// reduction so the low-concurrency "tail" of the graph still advances).
//
// Buffer organization uses the paper's two-letter designations: the first
// letter says who owns a buffer *set* (W = one set per worker/PE, P = one
// set per process, written by all its PEs — which costs an atomic-access
// penalty per insert), the second says the destination granularity of the
// buffers inside a set (P = one buffer per destination process, W = one
// per destination PE).  The paper's library offers PP, WP and WW and
// finds WP best for SSSP; we also provide PW for completeness.
//
// Process-destined aggregates are addressed to the destination process's
// communication thread, which fans the items out to their target worker
// PEs over intra-process messages — the Charm++ SMP delivery path.

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/obs/registry.hpp"
#include "src/runtime/machine.hpp"
#include "src/util/assert.hpp"
#include "src/util/prefetch.hpp"

namespace acic::tram {

/// First letter: buffer-set owner; second: destination granularity.
enum class Aggregation : std::uint8_t { kPP, kWP, kWW, kPW };

const char* aggregation_name(Aggregation mode);

struct TramConfig {
  Aggregation mode = Aggregation::kWP;
  /// Automatic flush threshold, in items (the paper sweeps 512/1024/2048).
  std::size_t buffer_items = 1024;
  /// Serialized size of one item on the wire.
  std::size_t item_bytes = 16;

  /// Fault injection for tests: every Nth delivered item is delivered a
  /// second time (at-least-once semantics, as after a network-level
  /// retransmission).  Label-correcting algorithms must tolerate this —
  /// duplicate updates are simply rejected.  0 disables.
  std::uint64_t debug_duplicate_every = 0;

  /// Fault injection for tests: reverse the item order of every flushed
  /// buffer (adversarial reordering — high-distance updates arrive
  /// before low-distance ones).  Correctness must be order-independent;
  /// only wasted-work counts may change.
  bool debug_reverse_batches = false;
};

struct TramStats {
  std::uint64_t items_inserted = 0;
  std::uint64_t items_delivered = 0;
  std::uint64_t aggregate_messages = 0;
  std::uint64_t auto_flushes = 0;
  std::uint64_t manual_flushes = 0;
  std::uint64_t flushed_empty = 0;  // manual flushes that found no items
  std::uint64_t items_duplicated = 0;  // fault-injection duplicates
};

/// Sender CPU per inserted item (copy into the buffer).
inline constexpr runtime::SimTime kInsertCostUs = 0.008;
/// Extra per-insert cost for process-shared sets (atomic operations,
/// paper §II.D).
inline constexpr runtime::SimTime kAtomicPenaltyUs = 0.012;
/// Receiver CPU per delivered item (deserialize + dispatch).
inline constexpr runtime::SimTime kDeliverCostUs = 0.01;
/// Comm-thread CPU per item when routing a process-destined aggregate.
inline constexpr runtime::SimTime kRouteCostUs = 0.004;

/// Aggregating channel for items of type T.  The delivery handler runs on
/// the destination PE once per item, in buffer order — or once per batch,
/// when it offers `deliver_batch` (see kDeliversBatches).
///
/// Observability: when the machine has a registry attached at
/// construction, the tram publishes "tram/*" counters (inserts,
/// deliveries, aggregate messages, auto vs manual flushes) and a
/// "tram/flush_occupancy" series recording buffer fill at every flush.
/// Families are shared by name, so several tram instances (e.g. one per
/// concurrent query) merge into machine-wide totals.  Publishing is not
/// sharded per node: it relies on an observed machine running as one
/// shard.
///
/// `DeliverFn` defaults to std::function for call-site convenience; hot
/// consumers pass a concrete functor type instead, so the per-item
/// dispatch in deliver_batch inlines rather than going through type
/// erasure — at millions of items per query the indirect call is real
/// money.  ACIC's functor takes whole batches (kDeliversBatches).
template <typename T,
          typename DeliverFn = std::function<void(runtime::Pe&, const T&)>>
class Tram {
 public:
  Tram(runtime::Machine& machine, TramConfig config, DeliverFn deliver)
      : machine_(machine),
        config_(config),
        deliver_(std::move(deliver)),
        topo_(machine.topology()),
        registry_(machine.registry()) {
    const std::size_t sets = set_owned_by_pe()
                                 ? topo_.num_pes()
                                 : topo_.num_procs();
    dests_ = dest_is_pe() ? topo_.num_pes() : topo_.num_procs();
    buffers_.assign(sets * dests_, Buffer{});
    // insert() runs once per relaxed edge; precompute everything it
    // would otherwise derive from the topology (integer divisions) or
    // the mode (branches) per call.
    proc_of_.resize(topo_.num_entities());
    node_of_.resize(topo_.num_entities());
    for (runtime::PeId p = 0; p < topo_.num_entities(); ++p) {
      proc_of_[p] = topo_.proc_of(p);
      node_of_[p] = topo_.node_of(p);
    }
    node_.resize(topo_.nodes);
    insert_charge_us_ =
        kInsertCostUs + (set_owned_by_pe() ? 0.0 : kAtomicPenaltyUs);
    if (registry_ != nullptr) {
      obs::Registry& reg = *registry_;
      obs_items_inserted_ = reg.counter("tram/items_inserted", true);
      obs_items_delivered_ = reg.counter("tram/items_delivered", true);
      obs_aggregate_messages_ =
          reg.counter("tram/aggregate_messages", true);
      obs_auto_flushes_ = reg.counter("tram/auto_flushes");
      obs_manual_flushes_ = reg.counter("tram/manual_flushes");
      obs_flush_occupancy_ = reg.series("tram/flush_occupancy");
    }
  }

  Tram(const Tram&) = delete;
  Tram& operator=(const Tram&) = delete;

  /// Queues `item` for delivery on `dst_pe`; flushes the buffer if full.
  void insert(runtime::Pe& src, runtime::PeId dst_pe, const T& item) {
    src.charge(insert_charge_us_);
    if (append(src, dst_pe, src.now(), item)) flush_full(src, dst_pe);
  }

  /// The body of insert() for a caller that holds `src`'s clock in a
  /// Pe::Meter and has already added insert_charge_us() to it: builds
  /// the entry in place from `args` (T's fields), counts it, and
  /// publishes it at `stamp`.  Returns true when the buffer has reached
  /// the flush threshold; the caller then commits its meter and calls
  /// flush_full(src, dst_pe).
  template <typename... Args>
  bool append(runtime::Pe& src, runtime::PeId dst_pe,
              runtime::SimTime stamp, Args&&... args) {
    ACIC_HOT_ASSERT(dst_pe < topo_.num_pes());
    std::vector<Entry>& items = buffer_of(src.id(), dst_pe).items;
    // First touch of a cold buffer: size it to the flush threshold once;
    // from then on it swaps with pooled, already-sized backing stores.
    if (items.capacity() == 0) items.reserve(config_.buffer_items);
    if constexpr (kDerivesTarget) {
      items.emplace_back(std::forward<Args>(args)...);
    } else {
      items.push_back(
          EntryWithTarget{dst_pe, T{std::forward<Args>(args)...}});
    }
    ++node_[node_of_[src.id()]].stats.items_inserted;
    if (registry_ != nullptr) [[unlikely]] {
      registry_->add(obs_items_inserted_, src.id(), 1, stamp);
    }
    return items.size() >= config_.buffer_items;
  }

  /// The automatic flush of the buffer append() reported full.
  void flush_full(runtime::Pe& src, runtime::PeId dst_pe) {
    ++node_[node_of_[src.id()]].stats.auto_flushes;
    if (registry_ != nullptr) {
      registry_->add(obs_auto_flushes_, src.id(), 1, src.now());
    }
    flush_buffer(src, set_index(src.id()), dest_index(dst_pe));
  }

  /// Sender CPU charged per insert (mode-dependent).
  runtime::SimTime insert_charge_us() const { return insert_charge_us_; }

  /// Flushes every non-empty buffer in the set `pe` writes to — the
  /// paper's explicit flush call, issued after each reduction broadcast.
  void flush_all(runtime::Pe& pe) {
    const std::size_t set = set_index(pe.id());
    bool any = false;
    for (std::size_t dest = 0; dest < dests_; ++dest) {
      if (!buffers_[set * dests_ + dest].items.empty()) {
        any = true;
        flush_buffer(pe, set, dest);
      }
    }
    NodeLocal& nl = node_[node_of_[pe.id()]];
    ++nl.stats.manual_flushes;
    if (!any) ++nl.stats.flushed_empty;
    if (registry_ != nullptr) {
      registry_->add(obs_manual_flushes_, pe.id(), 1, pe.now());
    }
  }

  /// Items currently waiting in buffers writable by `pe` (test hook).
  std::size_t pending_items(runtime::PeId pe) const {
    const std::size_t set = set_index(pe);
    std::size_t count = 0;
    for (std::size_t dest = 0; dest < dests_; ++dest) {
      count += buffers_[set * dests_ + dest].items.size();
    }
    return count;
  }

  /// Folded totals across the per-node shards (by value: under the
  /// parallel engine each simulated node accumulates into its own
  /// cache-line-padded counters, summed here on demand).
  TramStats stats() const {
    TramStats total;
    for (const NodeLocal& nl : node_) {
      total.items_inserted += nl.stats.items_inserted;
      total.items_delivered += nl.stats.items_delivered;
      total.aggregate_messages += nl.stats.aggregate_messages;
      total.auto_flushes += nl.stats.auto_flushes;
      total.manual_flushes += nl.stats.manual_flushes;
      total.flushed_empty += nl.stats.flushed_empty;
      total.items_duplicated += nl.stats.items_duplicated;
    }
    return total;
  }
  const TramConfig& config() const { return config_; }

 private:
  /// When the deliver functor can recompute an item's target PE
  /// (`target_of`), buffers store bare items — for ACIC that is 16
  /// instead of 24 bytes per entry, a third less write traffic on the
  /// hottest store stream in the simulator.  Otherwise entries carry
  /// the target alongside the item.
  static constexpr bool kDerivesTarget =
      requires(const DeliverFn& d, const T& t) {
        { d.target_of(t) } -> std::convertible_to<runtime::PeId>;
      };
  /// Optional second hook on concrete deliver functors: `prefetch(pe,
  /// item)` is called kDeliverPrefetchLookahead items before the item is
  /// dispatched, so the functor can issue software prefetches for the
  /// state the dispatch will touch (distance slot, CSR offsets row).
  /// Prefetches are pure hints — a functor with this hook delivers
  /// bit-identical simulations.
  static constexpr bool kHasPrefetch =
      requires(const DeliverFn& d, runtime::Pe& pe, const T& t) {
        d.prefetch(pe, t);
      };
  /// Optional batch hook: `deliver_batch(pe, items, count, cost)` takes
  /// a whole delivered batch and charges `cost` per item itself, so its
  /// loop can hold the PE clock in a Pe::Meter.  Unobserved, fault-free
  /// deliveries hand over the batch; otherwise the tram charges, counts
  /// and publishes each item and hands it over as a batch of one with
  /// cost 0 — exact, since adding +0.0 to a clock changes nothing.
  /// Needs bare-item buffers (kDerivesTarget).
  static constexpr bool kDeliversBatches =
      requires(const DeliverFn& d, runtime::Pe& pe, const T* items,
               std::size_t count, runtime::SimTime cost) {
        d.deliver_batch(pe, items, count, cost);
      };
  static_assert(!kDeliversBatches || kDerivesTarget);
  struct EntryWithTarget {
    runtime::PeId target;
    T item;
  };
  using Entry = std::conditional_t<kDerivesTarget, T, EntryWithTarget>;
  /// One buffer per cache line: a PE's buffer row is then whole lines,
  /// so rows written by PEs of different nodes (different host threads
  /// under the parallel engine) never share one.
  struct alignas(64) Buffer {
    std::vector<Entry> items;
  };

  /// Mutable scratch a delivery or flush touches outside its own buffer
  /// set, sharded per simulated node so the parallel engine's shards
  /// never share a cache line: batch pool, fan_out scratch, stats.
  /// (`buffers_` itself needs no sharding — a buffer set is written only
  /// by its owning PE/process, and a process never spans nodes.)
  struct alignas(64) NodeLocal {
    std::vector<std::vector<Entry>> pool;  // recycled batch stores
    std::vector<runtime::PeId> fanout_targets;      // fan_out scratch
    std::vector<std::vector<Entry>> fanout_groups;  // fan_out scratch
    std::vector<std::uint32_t> fanout_lane;         // PE lane -> group
    TramStats stats;
  };

  runtime::PeId entry_target(const Entry& entry) const {
    if constexpr (kDerivesTarget) {
      return deliver_.target_of(entry);
    } else {
      return entry.target;
    }
  }
  static const T& entry_item(const Entry& entry) {
    if constexpr (kDerivesTarget) {
      return entry;
    } else {
      return entry.item;
    }
  }

  bool set_owned_by_pe() const {
    return config_.mode == Aggregation::kWP ||
           config_.mode == Aggregation::kWW;
  }
  bool dest_is_pe() const {
    return config_.mode == Aggregation::kWW ||
           config_.mode == Aggregation::kPW;
  }
  std::size_t set_index(runtime::PeId pe) const {
    return set_owned_by_pe() ? pe : proc_of_[pe];
  }
  std::size_t dest_index(runtime::PeId dst_pe) const {
    return dest_is_pe() ? dst_pe : proc_of_[dst_pe];
  }
  Buffer& buffer_of(runtime::PeId src, runtime::PeId dst_pe) {
    return buffers_[set_index(src) * dests_ + dest_index(dst_pe)];
  }

  std::size_t wire_bytes(std::size_t items) const {
    return 32 + items * config_.item_bytes;  // 32-byte envelope
  }

  /// Hands out a flat batch vector from the executing node's recycling
  /// pool (capacity pre-grown to the flush threshold), so steady-state
  /// flushes never touch the allocator.
  std::vector<Entry> acquire_vec(NodeLocal& nl, std::size_t reserve_hint) {
    std::vector<Entry> v;
    if (!nl.pool.empty()) {
      v = std::move(nl.pool.back());
      nl.pool.pop_back();
    }
    if (v.capacity() < reserve_hint) v.reserve(reserve_hint);
    return v;
  }

  /// Returns a drained batch to the executing node's pool.  Delivery
  /// tasks call this after their last item is dispatched; a batch that
  /// crossed nodes simply moves its backing store from the sender's pool
  /// to the receiver's.
  void recycle_vec(NodeLocal& nl, std::vector<Entry>&& v) {
    if (nl.pool.size() >= kMaxPooledBuffers) return;  // let it free
    v.clear();
    nl.pool.push_back(std::move(v));
  }

  void flush_buffer(runtime::Pe& src, std::size_t set, std::size_t dest) {
    Buffer& buffer = buffers_[set * dests_ + dest];
    ACIC_ASSERT(!buffer.items.empty());
    NodeLocal& nl = node_[node_of_[src.id()]];
    // The full buffer moves into the delivery task wholesale; the buffer
    // slot gets a recycled backing store in exchange.
    std::vector<Entry> batch = std::move(buffer.items);
    buffer.items = acquire_vec(nl, config_.buffer_items);
    if (config_.debug_reverse_batches) {
      std::reverse(batch.begin(), batch.end());
    }
    ++nl.stats.aggregate_messages;
    if (registry_ != nullptr) {
      registry_->add(obs_aggregate_messages_, src.id(), 1, src.now());
      // Occupancy at flush: how full the buffer was relative to the
      // auto-flush threshold (1.0 = full, i.e. an automatic flush).
      registry_->append(
          obs_flush_occupancy_, src.now(),
          static_cast<double>(batch.size()) /
              static_cast<double>(config_.buffer_items));
    }

    // Sized before each send: the task's capture moves `batch` out, and
    // the argument order of the send call is unspecified.
    const std::size_t bytes = wire_bytes(batch.size());
    if (dest_is_pe()) {
      // All items share one destination PE: one aggregate straight there.
      const auto target = static_cast<runtime::PeId>(dest);
      src.send(target, bytes,
               [this, batch = std::move(batch)](runtime::Pe& pe) mutable {
                 deliver_batch(pe, batch);
                 recycle_vec(node_[node_of_[pe.id()]], std::move(batch));
               });
      return;
    }

    // Process-destined aggregate: ship to the destination process's comm
    // thread, which fans items out to their worker PEs.  Local (same
    // process) aggregates skip the comm thread and deliver directly.
    const auto dst_proc = static_cast<std::uint32_t>(dest);
    if (dst_proc == topo_.proc_of(src.id())) {
      fan_out(src, batch);
      recycle_vec(nl, std::move(batch));
      return;
    }
    const runtime::PeId comm = topo_.comm_thread_of_proc(dst_proc);
    src.send(comm, bytes,
             [this, batch = std::move(batch)](runtime::Pe& comm_pe) mutable {
               comm_pe.charge(kRouteCostUs *
                              static_cast<double>(batch.size()));
               fan_out(comm_pe, batch);
               recycle_vec(node_[node_of_[comm_pe.id()]],
                           std::move(batch));
             });
  }

  /// Delivers `batch` by grouping items per target PE (preserving each
  /// target's item order) and sending each group as one intra-process
  /// message.
  void fan_out(runtime::Pe& from, const std::vector<Entry>& batch) {
    // Targets within one process-destined buffer are the PEs of a single
    // process, so each target maps to a lane [0, pes_per_proc) and the
    // group is found by direct indexing.  Groups are still created in
    // first-appearance order, preserving the send sequence the ordered
    // scan produced.  The scratch vectors live in the executing node's
    // shard (fan_out never reenters: sends only park tasks); group
    // backing stores come from — and return to — the batch pool.
    NodeLocal& nl = node_[node_of_[from.id()]];
    nl.fanout_targets.clear();
    nl.fanout_groups.clear();
    const runtime::PeId base =
        topo_.first_pe_of_proc(proc_of_[entry_target(batch.front())]);
    constexpr std::uint32_t kNoGroup = 0xffffffffu;
    nl.fanout_lane.assign(topo_.pes_per_proc, kNoGroup);
    for (const Entry& entry : batch) {
      const runtime::PeId target = entry_target(entry);
      const std::uint32_t lane = target - base;
      ACIC_HOT_ASSERT(lane < nl.fanout_lane.size());
      std::uint32_t g = nl.fanout_lane[lane];
      if (g == kNoGroup) {
        g = static_cast<std::uint32_t>(nl.fanout_targets.size());
        nl.fanout_lane[lane] = g;
        nl.fanout_targets.push_back(target);
        nl.fanout_groups.push_back(acquire_vec(nl, 0));
      }
      nl.fanout_groups[g].push_back(entry);
    }
    for (std::size_t g = 0; g < nl.fanout_targets.size(); ++g) {
      const std::size_t bytes = wire_bytes(nl.fanout_groups[g].size());
      from.send(nl.fanout_targets[g], bytes,
                [this, group = std::move(nl.fanout_groups[g])](
                    runtime::Pe& pe) mutable {
                  deliver_batch(pe, group);
                  recycle_vec(node_[node_of_[pe.id()]], std::move(group));
                });
    }
    nl.fanout_groups.clear();
  }

  void deliver_batch(runtime::Pe& pe, const std::vector<Entry>& batch) {
    NodeLocal& nl = node_[node_of_[pe.id()]];
    // Steady-state fast path (no registry, no fault injection): the whole
    // batch to a batch hook, else one charge and one handler call per
    // item, nothing else in the loop.
    if (registry_ == nullptr &&
        config_.debug_duplicate_every == 0) [[likely]] {
      const runtime::SimTime cost = kDeliverCostUs;
      const std::size_t count = batch.size();
      if constexpr (kDeliversBatches) {
        deliver_.deliver_batch(pe, batch.data(), count, cost);
      } else {
        constexpr std::size_t kLook = util::kDeliverPrefetchLookahead;
        for (std::size_t i = 0; i < count; ++i) {
          if constexpr (kHasPrefetch) {
            if (i + kLook < count) {
              deliver_.prefetch(pe, entry_item(batch[i + kLook]));
            }
          }
          const Entry& entry = batch[i];
          ACIC_HOT_ASSERT(entry_target(entry) == pe.id());
          pe.charge(cost);
          deliver_(pe, entry_item(entry));
        }
      }
      nl.stats.items_delivered += count;
      return;
    }
    for (const Entry& entry : batch) {
      ACIC_HOT_ASSERT(entry_target(entry) == pe.id());
      pe.charge(kDeliverCostUs);
      ++nl.stats.items_delivered;
      if (registry_ != nullptr) [[unlikely]] {
        registry_->add(obs_items_delivered_, pe.id(), 1, pe.now());
      }
      deliver_one(pe, entry_item(entry));
      // Fault injection counts per receiving node (every node duplicates
      // its own Nth delivered item), so behavior is thread-agnostic.
      if (config_.debug_duplicate_every != 0 &&
          nl.stats.items_delivered % config_.debug_duplicate_every == 0) {
        pe.charge(kDeliverCostUs);
        ++nl.stats.items_duplicated;
        deliver_one(pe, entry_item(entry));
      }
    }
  }

  /// Dispatches one already-charged item.
  void deliver_one(runtime::Pe& pe, const T& item) {
    if constexpr (kDeliversBatches) {
      deliver_.deliver_batch(pe, &item, 1, 0.0);
    } else {
      deliver_(pe, item);
    }
  }

  /// Bound on parked batch backing stores per node; beyond this, drained
  /// batches just free (keeps worst-case WW fan-outs from pinning
  /// memory).
  static constexpr std::size_t kMaxPooledBuffers = 256;

  runtime::Machine& machine_;
  TramConfig config_;
  DeliverFn deliver_;
  const runtime::Topology& topo_;
  obs::Registry* const registry_;  // the machine's, read at construction
  std::vector<Buffer> buffers_;  // flat [set * dests_ + dest]
  std::size_t dests_ = 0;
  std::vector<std::uint32_t> proc_of_;        // PeId -> process (by table)
  std::vector<std::uint32_t> node_of_;        // PeId -> simulated node
  runtime::SimTime insert_charge_us_ = 0.0;   // per-insert CPU, mode-fixed
  std::vector<NodeLocal> node_;               // per-node mutable scratch

  // Registry handles; valid iff registry_ != nullptr.
  obs::CounterId obs_items_inserted_;
  obs::CounterId obs_items_delivered_;
  obs::CounterId obs_aggregate_messages_;
  obs::CounterId obs_auto_flushes_;
  obs::CounterId obs_manual_flushes_;
  obs::SeriesId obs_flush_occupancy_;
};

}  // namespace acic::tram
