#pragma once
// The discrete-event machine: a deterministic simulation of a
// message-driven multi-node runtime in the style of Charm++ SMP mode.
//
// Execution model
// ---------------
// Each PE executes *tasks* (entry-method invocations) strictly one at a
// time, in arrival order; a task consumes simulated CPU by calling
// Pe::charge().  Messages between PEs pay the NetworkModel costs by
// locality.  When a PE's task queue drains, the machine invokes the PE's
// idle handler — the exact hook Charm++ gives applications, and the one
// ACIC uses to pull work from its priority queue (paper §II.C: "When a PE
// becomes idle ... the runtime system triggers a method that pulls
// updates in pq in increasing distance order").
//
// Hot-path layout (docs/performance.md)
// -------------------------------------
// Tasks are `runtime::Task` (src/runtime/task.hpp): move-only with
// inline capture storage, so scheduling a message allocates nothing for
// typical closures.  The event heap holds 24-byte POD `Event`s ordered
// in a 4-ary heap; an arrival's task is parked in a per-node slot store
// (`slots_` + free list) and referenced by index, so heap sift
// operations move plain integers, never closures.  Receive overhead is
// charged by a flag bit on the queued-task word instead of a wrapping
// closure, and per-PE run queues are power-of-two rings of those words.
//
// Determinism
// -----------
// The event queue orders by (time, sequence number).  The sequence
// number is a composite key: the id of the simulated node that created
// the event in its top 16 bits, a per-node monotone counter below.
// Ties on time therefore break by (creating node, creation order on that
// node) — a total order that does not depend on how the events were
// interleaved across host threads, so serial and parallel execution
// replay the identical simulation.  Slot and pool reuse recycles
// *memory*, never ordering: indices take no part in event comparison.
//
// Parallel execution (docs/performance.md, "Parallel engine")
// -----------------------------------------------------------
// set_threads(N) with N > 1 runs the event loop with one shard (event
// heap) per simulated node, advanced in conservative time windows: no
// message crosses nodes faster than the inter-node wire latency L, so
// within a window each shard can execute its own node's events
// independently.  Host thread t owns the fixed shard range
// [t*nodes/N, (t+1)*nodes/N) for the whole run, and each window costs
// one barrier:
//   * Cross-node sends buffer into double-buffered per-(src,dst)
//     outboxes (window k writes parity k % 2) and record the earliest
//     arrival per destination.  At the start of window k+1 the owner of
//     each destination merges the previous parity's mail into its heap
//     while the senders already write the other parity.  Events order
//     by the composite key above, so the merged interleaving is
//     bit-identical to the serial engine's at any thread count.
//   * The barrier's completion step plans the next window from each
//     shard's effective minimum E_d = min(heap minimum, earliest mail
//     addressed to d): the arg-min shard may run to the second-smallest
//     E + L, every other shard to the smallest E + L, and a shard that
//     buffers mail arriving at A shrinks its own limit to A + L on the
//     spot.  Both bounds are provably conservative (see
//     docs/performance.md for the argument), so sparse cross-node
//     traffic yields windows of hundreds of events instead of one
//     latency sliver.
// Runs fall back to the serial loop when a registry or span hook is
// attached (observation streams are inherently ordered), on single-node
// topologies, or when the network model has no inter-node lookahead.
// Arrival tasks park in their destination node's slot store on both
// loops, so a run stopped at a time limit may resume on either loop.
//
// Ownership discipline (per the HPC guides: message passing, no shared
// mutable state): a task scheduled on PE p may mutate only state owned by
// p; all cross-PE effects must travel through send()/enqueue_local().
// Under parallel execution this is a hard requirement, not just a design
// rule: a task's shard only owns the state of its own simulated node,
// and the ThreadSanitizer CI job enforces it as a data-race matter.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/runtime/network.hpp"
#include "src/runtime/task.hpp"
#include "src/runtime/topology.hpp"
#include "src/util/assert.hpp"
#include "src/util/dary_heap.hpp"

namespace acic::obs {
class Registry;
struct RuntimeCounters;
}  // namespace acic::obs

namespace acic::runtime {

class Machine;
class Pe;

/// Idle handler: invoked when the PE has no pending tasks.  Returns true
/// if it performed work (it will then be invoked again once that work's
/// simulated time has elapsed), false to let the PE sleep until the next
/// message arrives.
using IdleHandler = std::function<bool(Pe&)>;

/// Handle returned by Machine::add_idle_handler, used to deregister.
using IdleHandlerId = std::uint64_t;

inline constexpr SimTime kNoTimeLimit =
    std::numeric_limits<SimTime>::infinity();

/// Aggregate statistics for one run() invocation.
///
/// The first block is simulated-side and bit-identical across thread
/// counts.  The fields after `hit_time_limit` are host-side engine
/// diagnostics: they describe how the host executed the schedule, not
/// the schedule itself, and legitimately vary with set_threads.
struct RunStats {
  SimTime end_time_us = 0.0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t idle_polls = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  /// Heap pops (arrivals + exec steps) — the event loop's raw unit of
  /// work, the denominator of the wall-clock benches' events/sec.
  std::uint64_t events_processed = 0;
  bool hit_time_limit = false;

  /// Effective worker-thread count: run_parallel clamps the requested
  /// set_threads value to the node count, and observed/serial runs use
  /// 1 — this is the number a scaling claim must cite.
  unsigned threads_used = 1;
  /// Conservative windows executed (0 under the serial loop).
  std::uint64_t windows = 0;
  /// Windows that buffered cross-node mail (merged into the receiving
  /// shards at the start of the next window).
  std::uint64_t window_merges = 0;
};

/// Per-PE execution context handed to every task and idle handler.
/// Cache-line aligned: every charge writes the PE's clock and busy
/// total, and under the parallel engine neighbouring PEs can belong to
/// nodes run by different host threads.
class alignas(64) Pe {
 public:
  PeId id() const { return id_; }
  Machine& machine() { return *machine_; }

  /// Consumes `us` microseconds of simulated CPU on this PE (scaled by
  /// the PE's speed factor; a factor of 0.5 makes everything take twice
  /// as long — see Machine::set_speed_factor).  Defined inline: this is
  /// the most-called function in the simulator (one or more calls per
  /// relaxed edge), and the full-speed case skips the divide — exact,
  /// since x / 1.0 == x bit for bit.
  void charge(SimTime us) {
    ACIC_HOT_ASSERT_MSG(us >= 0.0, "cannot charge negative time");
    const SimTime scaled =
        speed_factor_ == 1.0 ? us : us / speed_factor_;
    current_time_ += scaled;
    busy_us_ += scaled;
  }

  /// Current simulated time on this PE (advances within a task as CPU is
  /// charged).
  SimTime now() const { return current_time_; }

  /// Sends a message of `bytes` bytes to PE `to`; `task` runs there after
  /// network latency + transfer time.  Charges the sender's overhead.
  void send(PeId to, std::size_t bytes, Task task);

  /// Enqueues a continuation on this PE with no messaging cost.
  void enqueue_local(Task task);

 private:
  friend class Machine;

  /// FIFO of queued-task words (slot index plus the receive-overhead
  /// flag, packed as in Event).  A power-of-two ring: push_back and
  /// pop_front are an index mask each, and the backing store never
  /// moves in the steady state (a deque pays block bookkeeping per
  /// operation; this queue cycles ~10^5 times per SSSP query).
  class TaskRing {
   public:
    bool empty() const noexcept { return count_ == 0; }
    void push_back(std::uint32_t v) {
      if (count_ == buf_.size()) grow();
      buf_[(head_ + count_) & (buf_.size() - 1)] = v;
      ++count_;
    }
    std::uint32_t pop_front() {
      const std::uint32_t v = buf_[head_];
      head_ = (head_ + 1) & (buf_.size() - 1);
      --count_;
      return v;
    }

   private:
    void grow() {
      const std::size_t old_cap = buf_.size();
      std::vector<std::uint32_t> grown(old_cap == 0 ? 64 : old_cap * 2);
      for (std::size_t i = 0; i < count_; ++i) {
        grown[i] = buf_[(head_ + i) & (old_cap - 1)];
      }
      head_ = 0;
      buf_.swap(grown);
    }

    std::vector<std::uint32_t> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  PeId id_ = 0;
  Machine* machine_ = nullptr;

  // Scheduler state.
  TaskRing fifo_;
  SimTime avail_time_ = 0.0;     // when the PE finishes its current task
  SimTime current_time_ = 0.0;   // time inside the running task
  bool exec_scheduled_ = false;

  // Registered idle handlers, polled round-robin (multi-tenant engines
  // each register one; see Machine::add_idle_handler).
  struct IdleEntry {
    IdleHandlerId id;
    IdleHandler handler;
  };
  std::vector<IdleEntry> idle_handlers_;
  std::size_t idle_cursor_ = 0;  // next handler to poll (fairness)
  bool idle_polling_ = false;    // guards against mutation mid-poll

  // Per-PE accounting (read by load-imbalance analyses).
  SimTime busy_us_ = 0.0;
  std::uint64_t tasks_run_ = 0;
  double speed_factor_ = 1.0;
};

class Machine {
 public:
  Machine(Topology topology, NetworkModel network = {});
  ~Machine();  // out-of-line: obs::RuntimeCounters is incomplete here

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Worker PEs (the entities applications schedule work on).
  std::uint32_t num_pes() const { return topology_.num_pes(); }
  /// Workers plus per-process communication threads; any of these can be
  /// a message target.
  std::uint32_t num_entities() const { return topology_.num_entities(); }
  const Topology& topology() const { return topology_; }
  const NetworkModel& network() const { return network_; }

  /// Message send with full network costing.  Usable both from inside a
  /// running task (via Pe::send) and from setup code before run().
  void send(PeId from, PeId to, std::size_t bytes, Task task);

  /// Schedules `task` on `pe` at absolute simulated time `time` (used for
  /// initial work injection and timers).
  void schedule_at(SimTime time, PeId pe, Task task);

  /// Registers an additional idle handler for `pe` and returns a handle
  /// for deregistration.  When the PE goes idle, registered handlers are
  /// polled round-robin (one poll tries handlers in registration order,
  /// starting after the last one that did work) until one reports work —
  /// so concurrently active engines share the PE's idle time fairly and
  /// deterministically.  Handlers must not (de)register handlers on this
  /// PE from inside an idle poll.
  IdleHandlerId add_idle_handler(PeId pe, IdleHandler handler);

  /// Deregisters a handler previously returned by add_idle_handler.
  /// Asserts if `id` is not currently registered on `pe`.
  void remove_idle_handler(PeId pe, IdleHandlerId id);

  /// Number of idle handlers currently registered on `pe`.
  std::size_t num_idle_handlers(PeId pe) const;

  /// Runs the event loop until the queue drains or `time_limit` is
  /// reached.  May be called repeatedly; time continues monotonically.
  /// With set_threads(N > 1) on a multi-node topology the loop executes
  /// in parallel conservative time windows; results are bit-identical
  /// to the serial loop (see the header comment).
  RunStats run(SimTime time_limit = kNoTimeLimit);

  /// Host worker threads for run(): one shard per simulated node,
  /// clamped to the node count.  1 (the default) keeps the serial event
  /// loop.  Must not be called while run() is executing.
  void set_threads(unsigned threads) {
    ACIC_ASSERT_MSG(threads >= 1, "thread count must be >= 1");
    threads_ = threads;
  }
  unsigned threads() const { return threads_; }

  /// Host-side engine diagnostics accumulated across run() calls (the
  /// per-run values live in RunStats).  Windows and merges are
  /// deterministic for a given (schedule, threads).
  std::uint64_t total_windows() const { return windows_; }
  std::uint64_t total_window_merges() const { return window_merges_; }
  /// Always 0: each host thread runs a fixed range of shards, so no
  /// shard ever moves to another thread.  Kept because the benchmark
  /// driver reports it as `runtime.steals`.
  std::uint64_t total_shard_steals() const { return 0; }

  /// Effective worker count of the most recent run() (clamped to the
  /// node count; 1 for serial runs).
  unsigned last_threads_used() const { return last_threads_used_; }

  /// Time of the most recently processed event.
  SimTime current_time() const { return current_time_; }

  /// Per-PE busy time and task counts (for load-balance metrics).
  SimTime pe_busy_us(PeId pe) const { return pes_[pe].busy_us_; }
  std::uint64_t pe_tasks_run(PeId pe) const { return pes_[pe].tasks_run_; }

  std::uint64_t total_messages_sent() const { return messages_sent_; }
  std::uint64_t total_bytes_sent() const { return bytes_sent_; }
  std::uint64_t total_events_processed() const { return events_processed_; }

  /// Overhead charged per idle-handler poll (prevents zero-time idle
  /// loops; roughly the cost of the runtime scheduler's empty-queue
  /// check).
  void set_idle_poll_cost(SimTime us) { idle_poll_cost_us_ = us; }

  /// Observability hook: invoked after every executed task and idle
  /// poll with (pe, start_us, end_us, was_idle_poll).  Used by the
  /// Tracer (src/runtime/trace.hpp); at most one hook is active.
  using SpanHook =
      std::function<void(PeId, SimTime, SimTime, bool)>;
  void set_span_hook(SpanHook hook) { span_hook_ = std::move(hook); }

  /// Attaches an observability registry (src/obs/registry.hpp): the
  /// machine then publishes task/idle-poll counts, message and byte
  /// counters split by locality tier (attributed to the sending
  /// entity), and a machine-wide ready-task depth series, all stamped
  /// in simulated time.  Publishing never charges simulated CPU, so
  /// attaching a registry does not perturb a run.  Ready-depth samples
  /// are batched per distinct timestamp (intermediate same-time values
  /// are unobservable), keeping the attach cost low.  Pass nullptr to
  /// detach.  The registry must outlive the machine (or be detached
  /// first) and should share this machine's topology.
  void set_registry(obs::Registry* registry);
  obs::Registry* registry() const { return registry_; }

  /// Straggler injection: scales the speed of one PE.  A factor of 0.5
  /// halves its effective clock (every charge takes twice the simulated
  /// time).  Used by the load-imbalance experiments — a single slow PE
  /// is exactly the hazard the paper says bulk-synchronous algorithms
  /// amplify ("many processors may sit idle while waiting for one
  /// processor to reach the synchronization barrier", §I).
  void set_speed_factor(PeId pe, double factor);

 private:
  /// Event kind and the receive-overhead flag fold into the top two bits
  /// of the slot word: slot indices stay well under 2^30 (one live slot
  /// per parked arrival), and the fold shrinks Event from 32 to 24 bytes
  /// — one fewer cache line per 4-ary heap child group.
  static constexpr std::uint32_t kExecBit = 0x80000000u;
  static constexpr std::uint32_t kRecvBit = 0x40000000u;
  static constexpr std::uint32_t kSlotMask = 0x3fffffffu;
  static constexpr std::uint32_t kNoSlot = kSlotMask;

  /// 24-byte POD heap element.  The arrival payload lives in the slot
  /// store; sifting moves integers only.
  struct Event {
    SimTime time;
    std::uint64_t seq;
    PeId pe;
    std::uint32_t packed;  // kExecBit | kRecvBit | slot (slots_[node] index)

    bool is_exec() const { return (packed & kExecBit) != 0; }
    bool charge_recv() const { return (packed & kRecvBit) != 0; }
    std::uint32_t slot() const { return packed & kSlotMask; }
  };

  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;  // min-heap: earlier (node, counter) key first
    }
  };

  /// One event-loop shard (heap + outgoing mailboxes + run-stat
  /// deltas) per simulated node.  Defined in machine.cpp.
  struct Shard;
  /// Persistent parallel-run scratch (the shards and their mailbox
  /// capacities), reused across run() calls so steady-state serving
  /// workloads never reallocate per window or per run.
  struct ParallelState;
  /// A cross-node arrival buffered until the next window.  The seq was
  /// already assigned by the *sending* shard, so merge order is decided
  /// by the heap comparator alone.
  struct Mail;

  /// Composite event key: creating node in the top 16 bits, that node's
  /// monotone counter below.  Per-node counters are what let shards
  /// assign globally ordered keys without synchronizing.
  std::uint64_t next_seq(std::uint32_t node) {
    return (static_cast<std::uint64_t>(node) << 48) | node_seq_[node].next++;
  }

  void push_arrival(SimTime time, PeId pe, Task task, bool charge_recv);
  void push_exec(SimTime time, PeId pe);
  void ensure_exec_scheduled(Pe& pe, SimTime earliest);
  void handle_arrival(const Event& event);
  void handle_exec(const Event& event);

  RunStats run_parallel(SimTime time_limit);

  /// Parks `task` in `node`'s slot store (the node of the PE that will
  /// run it) and returns its index.
  std::uint32_t acquire_slot(std::uint32_t node, Task task);
  Task release_slot(std::uint32_t node, std::uint32_t slot);

  /// Records the ready-depth series sample for `time`, coalescing all
  /// same-timestamp changes into the final value (flushed when the
  /// timestamp advances or the run ends).
  void note_ready_depth(SimTime time);
  void flush_ready_sample();

  Topology topology_;
  NetworkModel network_;
  std::vector<Pe> pes_;
  util::DaryHeap<Event, EventOrder> queue_;
  /// Parked arrival tasks, one store per simulated node, indexed by
  /// Event::slot; `free` recycles indices LIFO.  Both loops park a task
  /// in its destination node's store, so the slot words queued in PE
  /// FIFOs stay valid when a run stopped at a time limit resumes on the
  /// other loop, and parallel shards never share a store.
  struct alignas(64) SlotStore {
    std::vector<Task> tasks;
    std::vector<std::uint32_t> free;
  };
  std::vector<SlotStore> slots_;
  /// entity id -> simulated node, precomputed (node_of costs two integer
  /// divisions; this table is hit once or more per event).
  std::vector<std::uint32_t> entity_node_;
  /// Per-node event counters, cache-line padded: under parallel
  /// execution each shard increments only its own node's counter.
  struct alignas(64) NodeSeq {
    std::uint64_t next = 0;
  };
  std::vector<NodeSeq> node_seq_;
  /// Node of the event being dispatched by the *serial* loop — the
  /// serial mirror of the parallel engine's "executing shard", so both
  /// assign identical composite keys.
  std::uint32_t current_node_ = 0;
  bool running_ = false;  // inside the serial run() loop
  unsigned threads_ = 1;
  std::unique_ptr<ParallelState> par_;  // lazily built by run_parallel
  /// The shard the calling host thread is executing (null outside
  /// parallel run()); routes pushes and stat updates to shard-local
  /// state.
  static thread_local Shard* tls_shard_;
  IdleHandlerId next_idle_handler_id_ = 1;
  SimTime current_time_ = 0.0;
  SimTime idle_poll_cost_us_ = 0.05;

  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t window_merges_ = 0;
  unsigned last_threads_used_ = 1;
  std::uint64_t ready_tasks_ = 0;  // tasks waiting in PE fifos
  RunStats* active_stats_ = nullptr;
  SpanHook span_hook_;

  obs::Registry* registry_ = nullptr;
  std::unique_ptr<obs::RuntimeCounters> obs_;  // valid iff registry_
  bool ready_sample_pending_ = false;
  SimTime ready_sample_time_ = 0.0;
  double ready_sample_value_ = 0.0;
};

}  // namespace acic::runtime
