#pragma once
// Asynchronous, message-driven reductions and broadcasts — the machinery
// behind ACIC's "continuous concurrent introspection" (paper §I, §II.B).
//
// A Reducer owns a k-ary spanning tree over the PEs rooted at PE 0 (the
// paper's root PE).  Each PE contributes a vector of up to the Reducer's
// width per cycle (missing tail slots are the identity, so a contribution
// can stop at its last non-identity slot); interior tree nodes sum child
// contributions with their own and forward the partial sum to their
// parent.  When the root completes a cycle it
// invokes the root handler, which may return a payload to broadcast back
// down the same tree; every PE's broadcast handler then runs.  Cycles are
// pipelined: a PE may contribute to cycle n+1 before cycle n's broadcast
// has reached it, and interior nodes keep per-cycle partial sums.
//
// All tree traffic flows through the Machine as ordinary costed messages,
// so the overhead a reduction imposes on useful work is *measured*, not
// assumed — that is exactly what the paper's fig. 3 experiment examines.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/runtime/machine.hpp"

namespace acic::runtime {

/// Element-wise combine operation for one slot of a Reducer payload.
enum class ReduceOp : std::uint8_t { kSum, kMin, kMax };

class Reducer {
 public:
  /// Runs at the root when a cycle's global sum is complete.  Returning a
  /// vector broadcasts it to all PEs; returning nullopt ends the cycle
  /// without a broadcast (the tree then goes quiet unless PEs contribute
  /// again on their own).
  using RootHandler = std::function<std::optional<std::vector<double>>(
      Pe&, std::uint64_t cycle, const std::vector<double>&)>;

  /// Runs on every PE when a broadcast payload arrives.
  using BcastHandler =
      std::function<void(Pe&, std::uint64_t cycle, const std::vector<double>&)>;

  /// `width` is the per-PE contribution length (fixed for the Reducer's
  /// lifetime); `fanout` the tree arity.  `ops` selects the element-wise
  /// combine per slot; empty means all-sum.
  Reducer(Machine& machine, std::size_t width, RootHandler on_root,
          BcastHandler on_bcast, std::uint32_t fanout = 4,
          std::vector<ReduceOp> ops = {});

  Reducer(const Reducer&) = delete;
  Reducer& operator=(const Reducer&) = delete;

  /// Contributes this PE's vector for its next cycle.  Must be called at
  /// most once per cycle per PE; the Reducer tracks each PE's cycle
  /// counter internally.  Callable from inside a task on `pe`.
  ///
  /// `value` may be shorter than width(): the missing tail slots are the
  /// identity of their op.  A partial sum is as long as its longest
  /// contribution, and the root pads it to width() before the root
  /// handler runs.  Simulated costs are those of a full-width vector.
  /// For kSum slots holding integer counts the result is bit-identical
  /// to zero-padded contributions: the skipped additions are of +0.0,
  /// and no such sum is ever -0.0.
  void contribute(Pe& pe, const std::vector<double>& value);

  /// Per-PE CPU cost of combining one contribution (models the summation
  /// loop the paper's PEs execute during a reduction, over width()
  /// slots whatever the contribution's length).
  void set_combine_cost(SimTime us_per_element) {
    combine_cost_us_per_element_ = us_per_element;
  }

  std::size_t width() const { return width_; }
  std::uint64_t cycles_completed() const { return cycles_completed_; }

 private:
  struct PendingCycle {
    std::uint64_t cycle = 0;
    std::vector<double> sum;
    std::uint32_t received = 0;
  };

  struct NodeState {
    std::uint64_t next_contribute_cycle = 0;
    // Partial sums for cycles still in flight at this tree node: one or
    // two, since cycles pipeline only that deep, so a scanned vector.
    std::vector<PendingCycle> pending;
  };

  std::uint32_t parent_of(PeId pe) const { return (pe - 1) / fanout_; }
  std::uint32_t num_children(PeId pe) const;

  /// Folds `value` into `pe`'s pending state for `cycle`; forwards to the
  /// parent / fires the root when the subtree is complete.
  void absorb(Pe& pe, std::uint64_t cycle, const std::vector<double>& value);
  void forward_or_finish(Pe& pe, std::size_t index);
  /// Appends identity slots to `sum` up to `length`.
  void extend(std::vector<double>& sum, std::size_t length) const;
  void broadcast_down(Pe& pe, std::uint64_t cycle,
                      const std::vector<double>& payload);

  std::size_t payload_bytes() const { return width_ * sizeof(double) + 16; }

  /// Pooled payload backing stores (handed out empty, with room for
  /// width() slots): partial-sum vectors cycle through
  /// the tree once per reduction per node, so recycling them keeps the
  /// steady state allocation-free (ACIC reduces every few hundred
  /// microseconds of simulated time with 515-slot payloads).  Pools are
  /// sharded per simulated node (cache-line padded) so the parallel
  /// engine's shards never contend; a payload that crosses nodes simply
  /// migrates from the sender's pool to the receiver's.
  std::vector<double> acquire_payload(const Pe& pe);
  void recycle_payload(const Pe& pe, std::vector<double>&& v);

  Machine& machine_;
  std::size_t width_;
  std::uint32_t fanout_;
  RootHandler on_root_;
  BcastHandler on_bcast_;
  std::vector<ReduceOp> ops_;
  bool all_sum_ = false;  // every slot is kSum: combine is a flat += loop
  std::vector<NodeState> nodes_;
  struct alignas(64) NodePool {
    std::vector<std::vector<double>> pool;
  };
  std::vector<NodePool> pools_;           // one per simulated node
  std::vector<std::uint32_t> node_of_;    // PeId -> simulated node
  SimTime combine_cost_us_per_element_ = 0.002;
  std::uint64_t cycles_completed_ = 0;
};

/// The paper's quiescence rule (§II.D) over two global counter sums a
/// Reducer delivered at the root, (created, processed) or (sent,
/// received): the counters are drained when they are equal *and*
/// unchanged across two consecutive reductions — the double check guards
/// against the race where counters match while messages are in flight.
/// A drained observation disarms the rule, so the next drain needs two
/// fresh observations: a Superstep observes every barrier round and needs
/// a fresh drain per superstep, while a terminating engine never
/// observes again.
class DrainRule {
 public:
  /// Feeds one reduction's sums; true when the counters are drained.
  bool observe(double created, double processed) {
    const bool equal = created == processed;
    const bool drained = equal && armed_ && created == last_created_;
    armed_ = equal && !drained;
    last_created_ = created;
    return drained;
  }

 private:
  bool armed_ = false;  // the previous observation was equal
  double last_created_ = -1.0;
};

/// The continuous reduction cycle of the asynchronous engines (ACIC,
/// async CC, distributed control), built on an all-sum Reducer:
/// counter-based termination (§II.D) with the engine's introspection
/// riding along.  Each cycle every PE reports its created and processed
/// counts in slots 0 and 1 and the engine's slots after them.  The root
/// feeds slots 0 and 1 to a DrainRule.  While they have not drained, the
/// root hook turns the cycle's sums into a payload, every PE's tick hook
/// receives it (an engine adopts new thresholds and flushes its
/// aggregation buffers there), and the PE reports again `interval_us`
/// later.  Once they drain, the done hook runs once on every PE and no PE
/// reports again.
class TerminationDetector {
 public:
  /// Fills `report`, handed over empty, with the PE's created and
  /// processed counts and the engine's slots after them.  It may stop at
  /// its last non-zero slot.
  using ReportHook = std::function<void(Pe&, std::vector<double>& report)>;
  /// Runs at the root on every undrained cycle's sums; returns the
  /// payload the tick hooks receive.
  using RootHook = std::function<std::vector<double>(
      Pe&, std::uint64_t cycle, const std::vector<double>& sums)>;
  /// Runs on every PE with an undrained cycle's payload.
  using TickHook = std::function<void(Pe&, std::span<const double> payload)>;
  /// Runs once on every PE when the counters have drained.
  using DoneHook = std::function<void(Pe&)>;

  /// `engine_slots` counts the slots after created and processed.
  TerminationDetector(Machine& machine, std::size_t engine_slots,
                      SimTime interval_us, ReportHook report,
                      RootHook on_root, TickHook on_tick, DoneHook on_done);

  TerminationDetector(const TerminationDetector&) = delete;
  TerminationDetector& operator=(const TerminationDetector&) = delete;

  /// Schedules every PE's first report at `time`.
  void start(SimTime time = 0.0);

  bool terminated() const { return terminated_; }
  std::uint64_t cycles() const { return reducer_.cycles_completed(); }

 private:
  /// Fills `pe`'s scratch through the report hook and contributes it.
  void contribute(Pe& pe);

  Machine& machine_;
  SimTime interval_us_;
  ReportHook report_;
  RootHook on_root_;
  TickHook on_tick_;
  DoneHook on_done_;
  /// One report scratch per PE, reused every cycle: the Reducer reads a
  /// contribution only during the call.
  std::vector<std::vector<double>> reports_;
  DrainRule drain_;  // root-side
  bool terminated_ = false;
  Reducer reducer_;
};

/// The drained superstep barrier of the bulk-synchronous engines
/// (Δ-stepping, KLA, BSP connected components), built on a Reducer.
/// Each round every PE runs the engine's step hook and contributes what
/// it returns: its cumulative sent and received counts in slots 0 and 1,
/// the engine's own slots after them.  The root feeds slots 0
/// and 1 to a DrainRule.  While they are not drained, messages are still
/// in flight, so every PE runs the step hook again as a no-op
/// `interval_us` after the broadcast (an engine flushes its aggregation
/// buffers there) and contributes again.  Once drained, the root hook
/// names the next step, or ends the run: then no PE contributes again
/// and the machine goes quiet.
class Superstep {
 public:
  /// A step the root broadcasts.  `op` (at least 0) and `arg` are the
  /// engine's own, say a phase and its bucket; the barrier only carries
  /// them.
  struct Command {
    int op = 0;
    double arg = 0.0;
  };
  /// Runs at the root on every round's global sums, drained or not, so an
  /// engine can add up a slot across rounds.  `drained` is DrainRule's
  /// verdict on slots 0 and 1.  On a drained round the result is the next
  /// step, or nullopt to end the run; on any other round it is ignored.
  using RootHook = std::function<std::optional<Command>(
      const std::vector<double>& sums, bool drained)>;
  /// Runs one round on `pe`: the broadcast step, or a no-op when `cmd` is
  /// null.  Returns the PE's contribution.
  using StepHook =
      std::function<std::vector<double>(Pe&, const Command* cmd)>;

  /// `slots` holds the combine op of each engine slot after sent and
  /// received; the Reducer's width is their count plus two.
  Superstep(Machine& machine, const std::vector<ReduceOp>& slots,
            SimTime interval_us, RootHook on_root, StepHook step);

  Superstep(const Superstep&) = delete;
  Superstep& operator=(const Superstep&) = delete;

  /// Schedules the first round on every PE at time 0, running `first`.
  void start(Command first);

  /// Rounds completed at the root, no-op rounds included.
  std::uint64_t rounds() const { return reducer_.cycles_completed(); }

 private:
  /// Runs the step hook on `pe` and contributes its result.
  void run_step(Pe& pe, const Command* cmd);

  Machine& machine_;
  SimTime interval_us_;
  RootHook on_root_;
  StepHook step_;
  DrainRule drain_;  // root-side
  Reducer reducer_;
};

}  // namespace acic::runtime
