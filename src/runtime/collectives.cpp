#include "src/runtime/collectives.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "src/util/assert.hpp"

namespace acic::runtime {

namespace {

double identity_for(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
      return 0.0;
    case ReduceOp::kMin:
      return std::numeric_limits<double>::infinity();
    case ReduceOp::kMax:
      return -std::numeric_limits<double>::infinity();
  }
  return 0.0;
}

double combine(ReduceOp op, double a, double b) {
  switch (op) {
    case ReduceOp::kSum:
      return a + b;
    case ReduceOp::kMin:
      return std::min(a, b);
    case ReduceOp::kMax:
      return std::max(a, b);
  }
  return a + b;
}

}  // namespace

Reducer::Reducer(Machine& machine, std::size_t width, RootHandler on_root,
                 BcastHandler on_bcast, std::uint32_t fanout,
                 std::vector<ReduceOp> ops)
    : machine_(machine),
      width_(width),
      fanout_(fanout),
      on_root_(std::move(on_root)),
      on_bcast_(std::move(on_bcast)),
      ops_(std::move(ops)),
      nodes_(machine.num_pes()) {
  ACIC_ASSERT(fanout_ >= 1);
  if (ops_.empty()) ops_.assign(width_, ReduceOp::kSum);
  ACIC_ASSERT_MSG(ops_.size() == width_, "one ReduceOp per payload slot");
  all_sum_ = std::all_of(ops_.begin(), ops_.end(),
                         [](ReduceOp op) { return op == ReduceOp::kSum; });
  pools_.resize(machine_.topology().nodes);
  node_of_.resize(machine_.num_pes());
  for (PeId p = 0; p < machine_.num_pes(); ++p) {
    node_of_[p] = machine_.topology().node_of(p);
  }
}

std::vector<double> Reducer::acquire_payload(const Pe& pe) {
  auto& pool = pools_[node_of_[pe.id()]].pool;
  std::vector<double> v;
  if (pool.empty()) {
    v.reserve(width_);
    return v;
  }
  v = std::move(pool.back());
  pool.pop_back();
  v.clear();
  return v;
}

void Reducer::recycle_payload(const Pe& pe, std::vector<double>&& v) {
  auto& pool = pools_[node_of_[pe.id()]].pool;
  if (pool.size() >= 64 || v.capacity() < width_) return;
  pool.push_back(std::move(v));
}

std::uint32_t Reducer::num_children(PeId pe) const {
  const std::uint64_t first = std::uint64_t{pe} * fanout_ + 1;
  if (first >= machine_.num_pes()) return 0;
  const std::uint64_t last =
      std::min<std::uint64_t>(first + fanout_, machine_.num_pes());
  return static_cast<std::uint32_t>(last - first);
}

void Reducer::contribute(Pe& pe, const std::vector<double>& value) {
  ACIC_ASSERT_MSG(value.size() <= width_,
                  "contribution longer than the Reducer width");
  NodeState& node = nodes_[pe.id()];
  const std::uint64_t cycle = node.next_contribute_cycle++;
  absorb(pe, cycle, value);
}

void Reducer::extend(std::vector<double>& sum, std::size_t length) const {
  for (std::size_t i = sum.size(); i < length; ++i) {
    sum.push_back(identity_for(ops_[i]));
  }
}

void Reducer::absorb(Pe& pe, std::uint64_t cycle,
                     const std::vector<double>& value) {
  std::vector<PendingCycle>& pending = nodes_[pe.id()].pending;
  std::size_t index = 0;
  while (index < pending.size() && pending[index].cycle != cycle) ++index;
  if (index == pending.size()) {
    pending.push_back(PendingCycle{cycle, acquire_payload(pe), 0});
  }
  std::vector<double>& sum = pending[index].sum;
  const std::size_t n = value.size();
  extend(sum, n);
  pe.charge(combine_cost_us_per_element_ * static_cast<double>(width_));
  if (all_sum_) {
    // Same operation, same order as the general loop below — just
    // without the per-slot op dispatch, so the compiler vectorizes it.
    double* s = sum.data();
    const double* v = value.data();
    for (std::size_t i = 0; i < n; ++i) s[i] += v[i];
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      sum[i] = combine(ops_[i], sum[i], value[i]);
    }
  }
  ++pending[index].received;
  forward_or_finish(pe, index);
}

void Reducer::forward_or_finish(Pe& pe, std::size_t index) {
  std::vector<PendingCycle>& pending = nodes_[pe.id()].pending;
  // A subtree's sum is complete once this PE's own contribution plus one
  // message per child has arrived.
  if (pending[index].received < num_children(pe.id()) + 1) return;

  const std::uint64_t cycle = pending[index].cycle;
  std::vector<double> sum = std::move(pending[index].sum);
  std::swap(pending[index], pending.back());
  pending.pop_back();

  if (pe.id() == 0) {
    ++cycles_completed_;
    extend(sum, width_);
    const std::optional<std::vector<double>> payload =
        on_root_(pe, cycle, sum);
    recycle_payload(pe, std::move(sum));
    if (payload.has_value()) {
      broadcast_down(pe, cycle, *payload);
    }
    return;
  }

  const PeId parent = parent_of(pe.id());
  pe.send(parent, payload_bytes(),
          [this, cycle, sum = std::move(sum)](Pe& parent_pe) mutable {
            absorb(parent_pe, cycle, sum);
            recycle_payload(parent_pe, std::move(sum));
          });
}

void Reducer::broadcast_down(Pe& pe, std::uint64_t cycle,
                             const std::vector<double>& payload) {
  // Forward to children first so the sends overlap this PE's handler.
  const std::uint64_t first = std::uint64_t{pe.id()} * fanout_ + 1;
  for (std::uint32_t k = 0; k < num_children(pe.id()); ++k) {
    const PeId child = static_cast<PeId>(first + k);
    pe.send(child, payload_bytes(),
            [this, cycle, payload](Pe& child_pe) {
              broadcast_down(child_pe, cycle, payload);
            });
  }
  on_bcast_(pe, cycle, payload);
}

TerminationDetector::TerminationDetector(
    Machine& machine,
    std::function<std::pair<std::uint64_t, std::uint64_t>(Pe&)> counters,
    std::function<void(Pe&)> on_tick, std::function<void(Pe&)> on_terminate,
    SimTime interval_us)
    : machine_(machine),
      counters_(std::move(counters)),
      on_tick_(std::move(on_tick)),
      on_terminate_(std::move(on_terminate)),
      interval_us_(interval_us) {
  reducer_ = std::make_unique<Reducer>(
      machine_, 2,
      // Root handler: decide continue (payload {0}) vs terminate ({1}).
      [this](Pe&, std::uint64_t, const std::vector<double>& sum)
          -> std::optional<std::vector<double>> {
        if (drain_.observe(sum[0], sum[1])) {
          terminated_ = true;
          return std::vector<double>{1.0};
        }
        return std::vector<double>{0.0};
      },
      // Broadcast handler: tick the application, then either stop or
      // schedule the next contribution after the configured interval.
      [this](Pe& pe, std::uint64_t, const std::vector<double>& payload) {
        if (payload[0] != 0.0) {
          on_terminate_(pe);
          return;
        }
        on_tick_(pe);
        const PeId id = pe.id();
        machine_.schedule_at(pe.now() + interval_us_, id,
                             [this](Pe& next_pe) {
                               const auto [created, processed] =
                                   counters_(next_pe);
                               reducer_->contribute(
                                   next_pe,
                                   {static_cast<double>(created),
                                    static_cast<double>(processed)});
                             });
      });
}

void TerminationDetector::start() {
  for (PeId pe = 0; pe < machine_.num_pes(); ++pe) {
    machine_.schedule_at(0.0, pe, [this](Pe& ctx) {
      const auto [created, processed] = counters_(ctx);
      reducer_->contribute(ctx, {static_cast<double>(created),
                                 static_cast<double>(processed)});
    });
  }
}

namespace {

// Broadcast tags for the rounds that carry no engine step; a step's tag
// is its op.
constexpr double kNoopTag = -1.0;
constexpr double kDoneTag = -2.0;

/// Sent and received sum; the engine's slots follow.
std::vector<ReduceOp> superstep_ops(const std::vector<ReduceOp>& slots) {
  std::vector<ReduceOp> ops(slots.size() + 2, ReduceOp::kSum);
  std::copy(slots.begin(), slots.end(), ops.begin() + 2);
  return ops;
}

}  // namespace

Superstep::Superstep(Machine& machine, const std::vector<ReduceOp>& slots,
                     SimTime interval_us, RootHook on_root, StepHook step)
    : machine_(machine),
      interval_us_(interval_us),
      on_root_(std::move(on_root)),
      step_(std::move(step)),
      reducer_(
          machine, slots.size() + 2,
          [this](Pe&, std::uint64_t, const std::vector<double>& sums)
              -> std::optional<std::vector<double>> {
            const bool drained = drain_.observe(sums[0], sums[1]);
            const std::optional<Command> next = on_root_(sums, drained);
            if (!drained) return std::vector<double>{kNoopTag, 0.0};
            if (!next.has_value()) return std::vector<double>{kDoneTag, 0.0};
            ACIC_ASSERT_MSG(next->op >= 0, "a superstep op is at least 0");
            return std::vector<double>{static_cast<double>(next->op),
                                       next->arg};
          },
          [this](Pe& pe, std::uint64_t, const std::vector<double>& payload) {
            if (payload[0] == kDoneTag) return;
            if (payload[0] == kNoopTag) {
              // Drain round: wait a beat for in-flight messages, then
              // re-report.
              machine_.schedule_at(pe.now() + interval_us_, pe.id(),
                                   [this](Pe& next) {
                                     run_step(next, nullptr);
                                   });
              return;
            }
            const Command cmd{static_cast<int>(payload[0]), payload[1]};
            run_step(pe, &cmd);
          },
          /*fanout=*/4, superstep_ops(slots)) {}

void Superstep::start(Command first) {
  for (PeId pe = 0; pe < machine_.num_pes(); ++pe) {
    machine_.schedule_at(0.0, pe,
                         [this, first](Pe& ctx) { run_step(ctx, &first); });
  }
}

void Superstep::run_step(Pe& pe, const Command* cmd) {
  reducer_.contribute(pe, step_(pe, cmd));
}

}  // namespace acic::runtime
