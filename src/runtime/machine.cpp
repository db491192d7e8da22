#include "src/runtime/machine.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "src/obs/registry.hpp"
#include "src/util/assert.hpp"

namespace acic::runtime {

namespace {

/// Spin-wait hint: lets the sibling hyperthread run and saves power
/// while a waiter polls the barrier epoch.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Epoch-based (sense-reversing) spin barrier with a fused completion
/// step: the last thread to arrive runs `completion` — the window plan —
/// before releasing the others, so planning costs one scan per window
/// total instead of one per thread, and needs no second barrier.
/// Waiters spin with a pause hint, then yield; on an undersubscribed
/// host (fewer cores than workers) spinning only steals cycles from the
/// thread everyone is waiting on, so the spin budget is zero there.
///
/// Memory ordering: every arriving thread's acq_rel fetch_add on
/// `arrived_` forms a release sequence read by the last arrival, and
/// the epoch release-store / acquire-load pair publishes the completion
/// step's writes — so all pre-barrier writes happen-before all
/// post-barrier reads, on every thread.  This is the parallel engine's
/// only synchronization; ThreadSanitizer verifies the chain in CI.
template <typename Fn>
class SpinBarrier {
 public:
  SpinBarrier(unsigned parties, Fn completion)
      : parties_(parties), completion_(std::move(completion)) {}

  void arrive_and_wait() {
    const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      completion_();
      arrived_.store(0, std::memory_order_relaxed);
      epoch_.store(epoch + 1, std::memory_order_release);
      return;
    }
    int spins = spin_budget_;
    while (epoch_.load(std::memory_order_acquire) == epoch) {
      if (spins-- > 0) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }

 private:
  const unsigned parties_;
  Fn completion_;
  const int spin_budget_ =
      std::thread::hardware_concurrency() >= parties_ ? 256 : 0;
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint64_t> epoch_{0};
};

/// Eight times on one cache line, so a shard's per-destination mail
/// minima never share a line with another shard's.
struct alignas(64) TimeLine {
  SimTime t[8];
};

}  // namespace

/// A cross-node arrival buffered in its sending shard's outbox until the
/// next window.  Carries the seq the sender already assigned, so the
/// receiving heap's comparator alone decides the merge order —
/// (timestamp, src node, per-node sequence), independent of the order
/// in which the receiver drains its sources.
struct Machine::Mail {
  SimTime time;
  std::uint64_t seq;
  PeId pe;
  bool charge_recv;
  Task task;
};

/// One simulated node's slice of the event loop during a parallel run:
/// its own 4-ary heap, outgoing mailboxes and stat deltas.  Between two
/// barriers a shard is touched only by the host thread that owns it,
/// except that the owner of node d drains (and re-arms) the *previous*
/// window's `outbox[p][d]` / `mail_min[p]` entries while this shard
/// writes the other parity.
struct alignas(64) Machine::Shard {
  std::uint32_t node = 0;
  util::DaryHeap<Event, EventOrder> heap;
  /// outbox[p][d]: arrivals for node d buffered in a window of parity p.
  /// Boxes keep their capacity across windows and runs (ParallelState
  /// persists them), so steady-state merges never reallocate.
  std::vector<std::vector<Mail>> outbox[2];
  /// mail_min[p]: earliest arrival time in each outbox[p][d]
  /// (kNoTimeLimit when empty), eight destinations per line.
  std::vector<TimeLine> mail_min[2];
  /// Parity of the window this shard is executing (selects the outbox).
  unsigned parity = 0;
  /// Max event time processed on this shard — the shard-local mirror of
  /// current_time_ (identical inside a task: the executing PE's clock
  /// is always >= the current event's time on both paths).
  SimTime now = 0.0;
  /// Exclusive end of this shard's current window: the smallest other
  /// shard's effective minimum + lookahead, shrunk on the fly when this
  /// shard buffers a cross-node send (a reaction to mail arriving at A
  /// cannot land back here before A + lookahead).
  SimTime window_limit = 0.0;
  /// Floor other shards' windows rely on: no cross-node event created
  /// by this shard may land before (its effective minimum at the window
  /// start) + lookahead.  Sends satisfy it by the network model;
  /// cross-node schedule_at inside it is a causality bug (asserted).
  SimTime cross_floor = 0.0;
  /// Inter-node latency, copied per run so the send hot path never
  /// reaches back into the Machine.
  SimTime lookahead = 0.0;
  /// Heap minimum after this shard's window, read by the plan.
  SimTime heap_min = kNoTimeLimit;
  /// Effective minimum E = min(heap_min, earliest mail addressed here),
  /// written by the plan.
  SimTime next_min = kNoTimeLimit;
  RunStats stats;
  std::int64_t ready_delta = 0;  // folded into ready_tasks_ after the run

  SimTime& mail_min_for(unsigned p, std::uint32_t dest) {
    return mail_min[p][dest / 8].t[dest % 8];
  }
};

/// Parallel-run scratch that outlives a single run(): shard heaps and
/// mailboxes keep their capacity, so a serving workload that calls run()
/// per query batch stops paying setup/regrow per call.
struct Machine::ParallelState {
  std::vector<Shard> shards;
};

thread_local Machine::Shard* Machine::tls_shard_ = nullptr;

void Pe::send(PeId to, std::size_t bytes, Task task) {
  machine_->send(id_, to, bytes, std::move(task));
}

void Pe::enqueue_local(Task task) {
  // A local continuation bypasses the network entirely: it lands at the
  // back of this PE's queue at the current moment.
  machine_->schedule_at(current_time_, id_, std::move(task));
}

Machine::Machine(Topology topology, NetworkModel network)
    : topology_(topology), network_(network) {
  topology_.validate();
  ACIC_ASSERT_MSG(topology_.nodes < (1u << 16),
                  "composite event keys hold the node id in 16 bits");
  pes_.resize(topology_.num_entities());
  entity_node_.resize(topology_.num_entities());
  for (PeId p = 0; p < topology_.num_entities(); ++p) {
    pes_[p].id_ = p;
    pes_[p].machine_ = this;
    entity_node_[p] = topology_.node_of(p);
  }
  node_seq_.resize(topology_.nodes);
  // Steady-state queue depth is a small multiple of the PE count; seed the
  // backing stores so warm-up never reallocates mid-sift.
  const std::size_t hint =
      std::max<std::size_t>(1024, 4 * topology_.num_entities());
  queue_.reserve(hint);
  slots_.resize(topology_.nodes);
  for (SlotStore& store : slots_) {
    store.tasks.reserve(hint / topology_.nodes);
    store.free.reserve(hint / topology_.nodes);
  }
}

// Parked tasks (arrivals never executed because run() hit its time limit)
// are destroyed with slots_.
Machine::~Machine() = default;

void Machine::set_registry(obs::Registry* registry) {
  flush_ready_sample();  // pending sample belongs to the old registry
  registry_ = registry;
  if (registry_ == nullptr) {
    obs_.reset();
    return;
  }
  obs_ = std::make_unique<obs::RuntimeCounters>(
      obs::define_runtime_counters(*registry_));
}

void Machine::send(PeId from, PeId to, std::size_t bytes, Task task) {
  ACIC_ASSERT(from < num_entities() && to < num_entities());
  Pe& sender = pes_[from];
  const Locality loc = topology_.locality(from, to);

  // The sender pays its per-message overhead now (advancing its clock if
  // it is inside a task), then the message departs.
  sender.charge(network_.send_overhead_us);
  Shard* const sh = tls_shard_;
  // Inside a task the sender's clock always dominates this max (its
  // clock was set to >= the current event's time before the task ran),
  // so the shard-local floor and the global one yield the same bits.
  const SimTime floor_now = sh != nullptr ? sh->now : current_time_;
  const SimTime departure = std::max(sender.current_time_, floor_now);
  const SimTime arrival = departure + network_.transfer_time(loc, bytes);

  if (sh != nullptr) {
    ACIC_HOT_ASSERT(entity_node_[from] == sh->node);
    ++sh->stats.messages_sent;
    sh->stats.bytes_sent += bytes;
  } else {
    ++messages_sent_;
    bytes_sent_ += bytes;
    if (active_stats_ != nullptr) {
      ++active_stats_->messages_sent;
      active_stats_->bytes_sent += bytes;
    }
    if (registry_ != nullptr) [[unlikely]] {
      registry_->add(obs_->messages(loc), from, 1, departure);
      registry_->add(obs_->bytes(loc), from, bytes, departure);
    }
  }

  // The receiver pays its per-message overhead when it picks the task up
  // (flagged on the queued task; no wrapper closure).
  push_arrival(arrival, to, std::move(task), /*charge_recv=*/true);
}

void Machine::schedule_at(SimTime time, PeId pe, Task task) {
  ACIC_ASSERT(pe < num_entities());
  push_arrival(std::max(time, 0.0), pe, std::move(task),
               /*charge_recv=*/false);
}

IdleHandlerId Machine::add_idle_handler(PeId pe, IdleHandler handler) {
  ACIC_ASSERT(pe < num_entities());
  ACIC_ASSERT_MSG(!pes_[pe].idle_polling_,
                  "cannot register an idle handler from inside an idle "
                  "poll on the same PE");
  const IdleHandlerId id = next_idle_handler_id_++;
  pes_[pe].idle_handlers_.push_back(Pe::IdleEntry{id, std::move(handler)});
  // If the PE is already asleep, poke it so the new handler gets a chance
  // to run; an exec event on an empty queue degrades to an idle poll.
  const SimTime now = tls_shard_ != nullptr ? tls_shard_->now : current_time_;
  ensure_exec_scheduled(pes_[pe], std::max(now, pes_[pe].avail_time_));
  return id;
}

void Machine::remove_idle_handler(PeId pe, IdleHandlerId id) {
  ACIC_ASSERT(pe < num_entities());
  ACIC_ASSERT_MSG(!pes_[pe].idle_polling_,
                  "cannot deregister an idle handler from inside an idle "
                  "poll on the same PE");
  auto& handlers = pes_[pe].idle_handlers_;
  for (std::size_t i = 0; i < handlers.size(); ++i) {
    if (handlers[i].id == id) {
      handlers.erase(handlers.begin() + static_cast<std::ptrdiff_t>(i));
      if (pes_[pe].idle_cursor_ > i) --pes_[pe].idle_cursor_;
      return;
    }
  }
  ACIC_ASSERT_MSG(false, "idle handler id not registered on this PE");
}

std::size_t Machine::num_idle_handlers(PeId pe) const {
  ACIC_ASSERT(pe < num_entities());
  return pes_[pe].idle_handlers_.size();
}

void Machine::set_speed_factor(PeId pe, double factor) {
  ACIC_ASSERT(pe < num_entities());
  ACIC_ASSERT_MSG(factor > 0.0, "speed factor must be positive");
  pes_[pe].speed_factor_ = factor;
}

std::uint32_t Machine::acquire_slot(std::uint32_t node, Task task) {
  SlotStore& store = slots_[node];
  if (!store.free.empty()) {
    const std::uint32_t slot = store.free.back();
    store.free.pop_back();
    store.tasks[slot] = std::move(task);
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(store.tasks.size());
  ACIC_ASSERT_MSG(slot < kNoSlot, "task slot store exceeded 2^30 entries");
  store.tasks.push_back(std::move(task));
  return slot;
}

Task Machine::release_slot(std::uint32_t node, std::uint32_t slot) {
  SlotStore& store = slots_[node];
  Task task = std::move(store.tasks[slot]);
  store.tasks[slot] = nullptr;
  store.free.push_back(slot);
  return task;
}

void Machine::note_ready_depth(SimTime time) {
  // Same-timestamp changes coalesce: only the last value at a given
  // instant is observable, so one series append per distinct time.
  if (ready_sample_pending_ && ready_sample_time_ != time) {
    registry_->append(obs_->ready_tasks, ready_sample_time_,
                      ready_sample_value_);
  }
  ready_sample_pending_ = true;
  ready_sample_time_ = time;
  ready_sample_value_ = static_cast<double>(ready_tasks_);
}

void Machine::flush_ready_sample() {
  if (ready_sample_pending_) {
    registry_->append(obs_->ready_tasks, ready_sample_time_,
                      ready_sample_value_);
    ready_sample_pending_ = false;
  }
}

void Machine::push_arrival(SimTime time, PeId pe, Task task,
                           bool charge_recv) {
  const std::uint32_t dest = entity_node_[pe];
  Shard* const sh = tls_shard_;
  if (sh != nullptr) {
    const std::uint64_t seq = next_seq(sh->node);
    if (dest == sh->node) {
      const std::uint32_t slot = acquire_slot(dest, std::move(task));
      sh->heap.push(Event{time, seq, pe,
                          charge_recv ? (kRecvBit | slot) : slot});
      return;
    }
    // Conservative lookahead: a cross-node arrival must land at or after
    // the floor other shards' windows were computed against.  Sends
    // always satisfy this (inter-node transfer time >= the lookahead,
    // and the departure is at or after this shard's window-start
    // minimum); a cross-node schedule_at below it would be a causality
    // violation.
    ACIC_ASSERT_MSG(time >= sh->cross_floor,
                    "cross-node event scheduled inside the conservative "
                    "window (use a send, or run with --threads 1)");
    sh->outbox[sh->parity][dest].push_back(
        Mail{time, seq, pe, charge_recv, std::move(task)});
    SimTime& first = sh->mail_min_for(sh->parity, dest);
    if (time < first) first = time;
    // Feedback bound: a reaction to this mail cannot arrive here before
    // its delivery plus one more inter-node hop.  Always at or ahead of
    // the execution point (arrival >= event time + lookahead), so the
    // shrink never invalidates executed events.
    const SimTime feedback = time + sh->lookahead;
    if (feedback < sh->window_limit) sh->window_limit = feedback;
    return;
  }
  const std::uint32_t node = running_ ? current_node_ : dest;
  const std::uint32_t slot = acquire_slot(dest, std::move(task));
  queue_.push(Event{time, next_seq(node), pe,
                    charge_recv ? (kRecvBit | slot) : slot});
}

void Machine::push_exec(SimTime time, PeId pe) {
  Shard* const sh = tls_shard_;
  if (sh != nullptr) {
    ACIC_HOT_ASSERT(entity_node_[pe] == sh->node);
    sh->heap.push(Event{time, next_seq(sh->node), pe, kExecBit | kNoSlot});
    return;
  }
  const std::uint32_t node = running_ ? current_node_ : entity_node_[pe];
  queue_.push(Event{time, next_seq(node), pe, kExecBit | kNoSlot});
}

void Machine::ensure_exec_scheduled(Pe& pe, SimTime earliest) {
  if (pe.exec_scheduled_) return;
  pe.exec_scheduled_ = true;
  push_exec(std::max(earliest, pe.avail_time_), pe.id_);
}

void Machine::handle_arrival(const Event& event) {
  Pe& pe = pes_[event.pe];
  // The queued-task word reuses the event's packing (recv bit + slot).
  pe.fifo_.push_back(event.packed);
  Shard* const sh = tls_shard_;
  if (sh != nullptr) {
    ++sh->ready_delta;
  } else {
    ++ready_tasks_;
    if (registry_ != nullptr) [[unlikely]] {
      note_ready_depth(event.time);
    }
  }
  ensure_exec_scheduled(pe, event.time);
}

void Machine::handle_exec(const Event& event) {
  Pe& pe = pes_[event.pe];
  ACIC_ASSERT(pe.exec_scheduled_);
  pe.current_time_ = std::max(event.time, pe.avail_time_);
  Shard* const sh = tls_shard_;

  if (!pe.fifo_.empty()) {
    const std::uint32_t queued = pe.fifo_.pop_front();
    // Move the task out of its slot before running it: the task may
    // enqueue new arrivals, which can grow (reallocate) the slot store.
    Task task = release_slot(entity_node_[event.pe], queued & kSlotMask);
    ++pe.tasks_run_;
    if (sh != nullptr) {
      --sh->ready_delta;
      ++sh->stats.tasks_executed;
    } else {
      --ready_tasks_;
      if (active_stats_ != nullptr) ++active_stats_->tasks_executed;
      if (registry_ != nullptr) [[unlikely]] {
        registry_->add(obs_->tasks_executed, pe.id_, 1, pe.current_time_);
        note_ready_depth(pe.current_time_);
      }
    }
    const SimTime span_start = pe.current_time_;
    // The receiver's per-message overhead is part of the task's span,
    // charged exactly where the old wrapper closure charged it.
    if ((queued & kRecvBit) != 0) pe.charge(network_.recv_overhead_us);
    task(pe);
    if (span_hook_) {
      span_hook_(pe.id_, span_start, pe.current_time_, false);
    }
    pe.avail_time_ = pe.current_time_;
    // Stay scheduled: either more tasks are queued or the idle handler
    // deserves a poll once this task's simulated time has elapsed.
    push_exec(pe.avail_time_, pe.id_);
    return;
  }

  // Queue empty: poll the idle handlers (Charm++'s when-idle callback).
  // With several registered (multi-tenant engines sharing the PE), one
  // poll tries each in turn — starting after the handler that last did
  // work, so no engine can starve the others — and stops at the first
  // that reports work.
  if (!pe.idle_handlers_.empty()) {
    const SimTime span_start = pe.current_time_;
    pe.charge(idle_poll_cost_us_);
    if (sh != nullptr) {
      ++sh->stats.idle_polls;
    } else {
      if (active_stats_ != nullptr) ++active_stats_->idle_polls;
      if (registry_ != nullptr) [[unlikely]] {
        registry_->add(obs_->idle_polls, pe.id_, 1, pe.current_time_);
      }
    }
    bool did_work = false;
    pe.idle_polling_ = true;
    const std::size_t n = pe.idle_handlers_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = (pe.idle_cursor_ + i) % n;
      if (pe.idle_handlers_[idx].handler(pe)) {
        did_work = true;
        pe.idle_cursor_ = (idx + 1) % n;
        break;
      }
    }
    pe.idle_polling_ = false;
    if (span_hook_) {
      // Idle polls that found work count as busy spans.
      span_hook_(pe.id_, span_start, pe.current_time_, !did_work);
    }
    pe.avail_time_ = pe.current_time_;
    if (did_work || !pe.fifo_.empty()) {
      push_exec(pe.avail_time_, pe.id_);
      return;
    }
  }
  pe.exec_scheduled_ = false;  // sleep until the next arrival
}

RunStats Machine::run(SimTime time_limit) {
  if (threads_ > 1 && topology_.nodes > 1 && registry_ == nullptr &&
      !span_hook_ && network_.latency_inter_node_us > 0.0) {
    return run_parallel(time_limit);
  }
  RunStats stats;
  last_threads_used_ = 1;
  active_stats_ = &stats;
  running_ = true;
  while (!queue_.empty()) {
    if (queue_.top().time > time_limit) {
      stats.hit_time_limit = true;
      break;
    }
    const Event event = queue_.top();  // POD copy; payload stays parked
    queue_.pop();
    ++events_processed_;
    ++stats.events_processed;
    current_time_ = std::max(current_time_, event.time);
    // Pushes triggered by this event key on its node — the same node a
    // parallel shard would key them on.
    current_node_ = entity_node_[event.pe];
    if (event.is_exec()) {
      handle_exec(event);
    } else {
      handle_arrival(event);
    }
  }
  running_ = false;
  if (registry_ != nullptr) [[unlikely]] {
    flush_ready_sample();
  }
  stats.end_time_us = current_time_;
  active_stats_ = nullptr;
  return stats;
}

RunStats Machine::run_parallel(SimTime time_limit) {
  const std::uint32_t nodes = topology_.nodes;
  const unsigned nthreads = std::min<unsigned>(threads_, nodes);
  // Conservative lookahead: no message crosses nodes in less than the
  // inter-node wire latency (transfer_time = latency + bytes/bandwidth),
  // so no shard can be affected by another sooner than that.
  const SimTime lookahead = network_.latency_inter_node_us;
  last_threads_used_ = nthreads;

  if (par_ == nullptr) par_ = std::make_unique<ParallelState>();
  std::vector<Shard>& shards = par_->shards;
  if (shards.size() != nodes) {
    TimeLine none;
    std::fill(std::begin(none.t), std::end(none.t), kNoTimeLimit);
    shards.clear();
    shards.resize(nodes);
    for (std::uint32_t n = 0; n < nodes; ++n) {
      shards[n].node = n;
      for (unsigned p = 0; p < 2; ++p) {
        shards[n].outbox[p].resize(nodes);
        shards[n].mail_min[p].assign((nodes + 7) / 8, none);
      }
    }
  }
  for (Shard& sh : shards) {
    sh.now = current_time_;
    sh.lookahead = lookahead;
    sh.stats = RunStats{};
    sh.ready_delta = 0;
  }
  // Parks buffered mail's task in its destination node's store and
  // returns the arrival event that references it.
  const auto park = [this](std::uint32_t node, Mail& m) {
    const std::uint32_t slot = acquire_slot(node, std::move(m.task));
    return Event{m.time, m.seq, m.pe, m.charge_recv ? (kRecvBit | slot) : slot};
  };
  // Hand the global heap's events to their nodes' shards; the parked
  // tasks already sit in per-node slot stores.  Insertion order is
  // irrelevant: the comparator is a total order, so every heap pops the
  // same sequence regardless of how it was filled.
  while (!queue_.empty()) {
    const Event e = queue_.top();
    queue_.pop();
    shards[entity_node_[e.pe]].heap.push(e);
  }

  // The window plan, written by the barrier's completion step and read
  // by every thread after it.
  struct Plan {
    SimTime min1 = kNoTimeLimit;  // smallest effective minimum
    SimTime min2 = kNoTimeLimit;  // smallest on any shard != node1
    std::uint32_t node1 = 0;      // shard holding min1 (lowest id on ties)
    unsigned parity = 1;          // parity of the latest planned window
    bool run = false;             // execute another window?
    bool hit_limit = false;
  } plan;
  std::uint64_t windows = 0;
  std::uint64_t window_merges = 0;

  // Runs on the last thread into the barrier.  Shard d's effective
  // minimum E_d is its heap minimum lowered by the earliest mail
  // addressed to it in the window that just ended — exactly its heap
  // minimum once that mail is merged.  The next window follows from the
  // E values (min1/min2 with the arg-min shard, ties to the lowest node
  // id — deterministic, though results never depend on it).
  SpinBarrier barrier(nthreads, [&] {
    for (Shard& sh : shards) sh.next_min = sh.heap_min;
    bool mail = false;
    for (Shard& src : shards) {
      for (std::uint32_t d = 0; d < nodes; ++d) {
        const SimTime first = src.mail_min_for(plan.parity, d);
        if (first == kNoTimeLimit) continue;
        mail = true;
        shards[d].next_min = std::min(shards[d].next_min, first);
      }
    }
    if (mail) ++window_merges;
    SimTime min1 = kNoTimeLimit;
    SimTime min2 = kNoTimeLimit;
    std::uint32_t node1 = 0;
    for (std::uint32_t n = 0; n < nodes; ++n) {
      const SimTime v = shards[n].next_min;
      if (v < min1) {
        min2 = min1;
        min1 = v;
        node1 = n;
      } else if (v < min2) {
        min2 = v;
      }
    }
    plan.min1 = min1;
    plan.min2 = min2;
    plan.node1 = node1;
    plan.run = min1 != kNoTimeLimit && min1 <= time_limit;
    if (min1 != kNoTimeLimit && min1 > time_limit) plan.hit_limit = true;
    if (plan.run) {
      ++windows;
      plan.parity ^= 1;
    }
  });

  auto worker = [&](unsigned tid) {
    // Thread tid owns shards [lo, hi) for the whole run.
    const std::uint32_t lo = tid * nodes / nthreads;
    const std::uint32_t hi = (tid + 1) * nodes / nthreads;
    for (std::uint32_t d = lo; d < hi; ++d) {
      Shard& sh = shards[d];
      sh.heap_min = sh.heap.empty() ? kNoTimeLimit : sh.heap.top().time;
    }
    barrier.arrive_and_wait();
    // Every thread reads the same plan, so all leave together.
    while (plan.run) {
      const unsigned out = plan.parity;
      const unsigned in = out ^ 1;
      for (std::uint32_t d = lo; d < hi; ++d) {
        Shard& sh = shards[d];
        // Merge the previous window's mail for d, skipping sources that
        // sent none, and re-arm each drained source's minimum for its
        // next window of that parity.  The senders are meanwhile
        // writing the other parity.
        for (Shard& src : shards) {
          SimTime& first = src.mail_min_for(in, d);
          if (first == kNoTimeLimit) continue;
          first = kNoTimeLimit;
          std::vector<Mail>& box = src.outbox[in][d];
          for (Mail& m : box) sh.heap.push(park(d, m));
          box.clear();  // keeps capacity: boxes never regrow in steady state
        }
        // Shard d stops at (smallest E over OTHER shards) + lookahead:
        // for everyone but the arg-min shard that is min1 + lookahead;
        // the arg-min shard runs on to min2 + lookahead.  Safe because
        // no other shard can inject an event below its own E +
        // lookahead, and cascades through this shard's own sends are
        // cut off by the feedback shrink in push_arrival.
        sh.window_limit =
            (d == plan.node1 ? plan.min2 : plan.min1) + lookahead;
        sh.cross_floor = sh.next_min + lookahead;
        sh.parity = out;
        tls_shard_ = &sh;
        while (!sh.heap.empty()) {
          const Event& top = sh.heap.top();
          if (top.time >= sh.window_limit || top.time > time_limit) break;
          const Event e = top;
          sh.heap.pop();
          ++sh.stats.events_processed;
          sh.now = std::max(sh.now, e.time);
          if (e.is_exec()) {
            handle_exec(e);
          } else {
            handle_arrival(e);
          }
        }
        tls_shard_ = nullptr;
        sh.heap_min = sh.heap.empty() ? kNoTimeLimit : sh.heap.top().time;
      }
      barrier.arrive_and_wait();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(nthreads - 1);
  for (unsigned tid = 1; tid < nthreads; ++tid) {
    pool.emplace_back(worker, tid);
  }
  worker(0);
  for (std::thread& t : pool) t.join();

  // Fold shard deltas back into the machine, and hand unprocessed events
  // and undelivered mail (a hit time limit) back to the global queue.
  RunStats stats;
  stats.hit_time_limit = plan.hit_limit;
  stats.threads_used = nthreads;
  stats.windows = windows;
  stats.window_merges = window_merges;
  windows_ += windows;
  window_merges_ += window_merges;
  for (Shard& sh : shards) {
    stats.tasks_executed += sh.stats.tasks_executed;
    stats.idle_polls += sh.stats.idle_polls;
    stats.messages_sent += sh.stats.messages_sent;
    stats.bytes_sent += sh.stats.bytes_sent;
    stats.events_processed += sh.stats.events_processed;
    messages_sent_ += sh.stats.messages_sent;
    bytes_sent_ += sh.stats.bytes_sent;
    events_processed_ += sh.stats.events_processed;
    ready_tasks_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(ready_tasks_) + sh.ready_delta);
    current_time_ = std::max(current_time_, sh.now);
    while (!sh.heap.empty()) {
      queue_.push(sh.heap.top());
      sh.heap.pop();
    }
    for (unsigned p = 0; p < 2; ++p) {
      for (std::uint32_t d = 0; d < nodes; ++d) {
        for (Mail& m : sh.outbox[p][d]) queue_.push(park(d, m));
        sh.outbox[p][d].clear();
        sh.mail_min_for(p, d) = kNoTimeLimit;
      }
    }
  }
  stats.end_time_us = current_time_;
  return stats;
}

}  // namespace acic::runtime
