#include "src/cc/async_cc.hpp"

#include <memory>
#include <queue>
#include <span>
#include <utility>

#include "src/core/hold.hpp"
#include "src/core/thresholds.hpp"
#include "src/runtime/collectives.hpp"
#include "src/sssp/cost_model.hpp"
#include "src/util/assert.hpp"

namespace acic::cc {

namespace {

using graph::VertexId;
using runtime::Pe;
using runtime::PeId;
using sssp::kCosts;

/// Label-histogram buckets over [0, |V|).
constexpr std::size_t kNumBuckets = 256;
/// Fraction of active label updates admitted to pq immediately (ACIC's
/// p_pq analogue; low values suppress propagation of labels that will
/// lose to a smaller one anyway).
constexpr double kPPq = 0.05;
/// Delay between a PE's tick and its next report.
constexpr runtime::SimTime kReductionIntervalUs = 10.0;
/// Label updates popped from pq per idle invocation.
constexpr std::size_t kPqDrainBatch = 32;

/// A label update: "vertex may belong to label's component".
struct LabelUpdate {
  VertexId vertex = 0;
  VertexId label = 0;
};

/// Min-heap ordering: smallest label first (lowest labels are final
/// soonest, mirroring lowest-distance-first in SSSP).
struct LabelMinOrder {
  bool operator()(const LabelUpdate& a, const LabelUpdate& b) const {
    if (a.label != b.label) return a.label > b.label;
    return a.vertex > b.vertex;
  }
};

struct PeState {
  VertexId first = 0;
  VertexId last = 0;
  std::vector<VertexId> labels;
  std::vector<std::int64_t> histogram;
  core::BucketedHold pq_hold{1};
  std::priority_queue<LabelUpdate, std::vector<LabelUpdate>,
                      LabelMinOrder>
      pq;
  std::size_t t_pq = 0;

  std::uint64_t created = 0;
  std::uint64_t processed = 0;
  std::uint64_t rejected = 0;
  /// Reusable hold-release scratch (per-PE: broadcasts on different
  /// nodes run concurrently under the parallel engine).
  std::vector<sssp::Update> release_scratch;
};

class AsyncCcEngine {
 public:
  AsyncCcEngine(runtime::Machine& machine, const graph::Csr& csr,
                const graph::Partition1D& partition,
                const AsyncCcConfig& config)
      : machine_(machine),
        csr_(csr),
        partition_(partition),
        config_(config),
        bucket_width_(std::max<double>(
            1.0, static_cast<double>(csr.num_vertices()) /
                     static_cast<double>(kNumBuckets))),
        pes_(machine.num_pes()) {
    ACIC_ASSERT(partition.num_parts() == machine.num_pes());

    for (PeId p = 0; p < machine_.num_pes(); ++p) {
      PeState& state = pes_[p];
      state.first = partition.begin(p);
      state.last = partition.end(p);
      state.labels.resize(state.last - state.first);
      for (VertexId v = state.first; v < state.last; ++v) {
        state.labels[v - state.first] = v;  // own id
      }
      state.histogram.assign(kNumBuckets, 0);
      state.pq_hold = core::BucketedHold(kNumBuckets);
      state.t_pq = kNumBuckets - 1;
    }

    tram::TramConfig tram_config = config_.tram;
    tram_config.item_bytes = 8;
    tram_ = std::make_unique<tram::Tram<LabelUpdate>>(
        machine_, tram_config,
        [this](Pe& pe, const LabelUpdate& u) { on_deliver(pe, u); });

    // The engine's slots after created and processed: the label
    // histogram.
    detector_ = std::make_unique<runtime::TerminationDetector>(
        machine_, kNumBuckets, kReductionIntervalUs,
        [this](Pe& pe, std::vector<double>& report) {
          report_cycle(pe, report);
        },
        [this](Pe&, std::uint64_t, const std::vector<double>& sums) {
          return on_root(sums);
        },
        [this](Pe& pe, std::span<const double> payload) {
          on_tick(pe, payload);
        },
        [](Pe&) {});

    for (PeId p = 0; p < machine_.num_pes(); ++p) {
      // add (not set): leaves the PE's idle dispatch shareable with
      // other tenants of the machine.
      idle_handler_ids_.push_back(machine_.add_idle_handler(
          p, [this](Pe& pe) { return drain_pq(pe); }));
      // Seed: every vertex announces its own id to its neighbors once.
      machine_.schedule_at(0.0, p, [this](Pe& pe) { seed(pe); });
    }
    detector_->start();
  }

  ~AsyncCcEngine() {
    for (PeId p = 0; p < machine_.num_pes(); ++p) {
      machine_.remove_idle_handler(p, idle_handler_ids_[p]);
    }
  }

  AsyncCcResult run(runtime::SimTime time_limit_us) {
    const runtime::RunStats stats = machine_.run(time_limit_us);
    AsyncCcResult result;
    result.hit_time_limit = stats.hit_time_limit;
    result.reduction_cycles = detector_->cycles();
    result.network_messages = stats.messages_sent;
    result.sim_time_us = stats.end_time_us;
    result.labels.resize(csr_.num_vertices());
    for (const PeState& state : pes_) {
      std::copy(state.labels.begin(), state.labels.end(),
                result.labels.begin() + state.first);
      result.updates_created += state.created;
      result.updates_processed += state.processed;
      result.updates_rejected += state.rejected;
    }
    return result;
  }

 private:
  PeState& state_of(const Pe& pe) { return pes_[pe.id()]; }

  std::size_t bucket_of(VertexId label) const {
    const auto b = static_cast<std::size_t>(
        static_cast<double>(label) / bucket_width_);
    return b < kNumBuckets ? b : kNumBuckets - 1;
  }

  /// Initial wave: every vertex proposes its own id to its neighbors.
  /// Only edges pointing to a *larger* neighbor can improve it, so the
  /// seed sends along those edges only.
  void seed(Pe& pe) {
    PeState& state = state_of(pe);
    for (VertexId v = state.first; v < state.last; ++v) {
      for (const graph::Neighbor& nb : csr_.out_neighbors(v)) {
        if (nb.dst > v) {
          pe.charge(kCosts.edge_relax_us);
          create_update(pe, nb.dst, v);
        }
      }
    }
  }

  void create_update(Pe& pe, VertexId target, VertexId label) {
    PeState& state = state_of(pe);
    ++state.created;
    ++state.histogram[bucket_of(label)];
    tram_->insert(pe, partition_.owner(target),
                  LabelUpdate{target, label});
  }

  void mark_processed(PeState& state, VertexId label) {
    ++state.processed;
    --state.histogram[bucket_of(label)];
  }

  void on_deliver(Pe& pe, const LabelUpdate& u) {
    PeState& state = state_of(pe);
    pe.charge(kCosts.update_apply_us);
    const VertexId local = u.vertex - state.first;
    ACIC_ASSERT(u.vertex >= state.first && u.vertex < state.last);

    if (u.label >= state.labels[local]) {
      mark_processed(state, u.label);
      ++state.rejected;
      return;
    }
    state.labels[local] = u.label;

    if (!config_.use_pq) {
      expand(pe, u);
      return;
    }
    const std::size_t bucket = bucket_of(u.label);
    if (bucket <= state.t_pq) {
      pe.charge(kCosts.pq_op_us);
      state.pq.push(u);
    } else {
      state.pq_hold.put(bucket,
                        sssp::Update{u.vertex, static_cast<double>(u.label)});
    }
  }

  bool drain_pq(Pe& pe) {
    PeState& state = state_of(pe);
    bool any = false;
    for (std::size_t i = 0;
         i < kPqDrainBatch && !state.pq.empty(); ++i) {
      pe.charge(kCosts.pq_op_us);
      const LabelUpdate u = state.pq.top();
      state.pq.pop();
      any = true;
      const VertexId local = u.vertex - state.first;
      if (state.labels[local] == u.label) {
        expand(pe, u);
      } else {
        mark_processed(state, u.label);  // superseded by a smaller label
      }
    }
    return any;
  }

  void expand(Pe& pe, const LabelUpdate& u) {
    for (const graph::Neighbor& nb : csr_.out_neighbors(u.vertex)) {
      pe.charge(kCosts.edge_relax_us);
      create_update(pe, nb.dst, u.label);
    }
    mark_processed(state_of(pe), u.label);
  }

  void report_cycle(Pe& pe, std::vector<double>& report) {
    const PeState& state = state_of(pe);
    report.push_back(static_cast<double>(state.created));
    report.push_back(static_cast<double>(state.processed));
    for (const std::int64_t c : state.histogram) {
      report.push_back(static_cast<double>(c));
    }
  }

  /// Root hook: the pq threshold from the global label histogram.
  std::vector<double> on_root(const std::vector<double>& sums) {
    const std::vector<double> histogram(sums.begin() + 2, sums.end());
    const core::Thresholds t = core::compute_thresholds(
        histogram, machine_.num_pes(), core::ThresholdPolicy{1.0, kPPq});
    return std::vector<double>{static_cast<double>(t.t_pq)};
  }

  /// Tick hook: adopt the pq threshold, release held labels up to it,
  /// and flush the tram.
  void on_tick(Pe& pe, std::span<const double> payload) {
    PeState& state = state_of(pe);
    state.t_pq = static_cast<std::size_t>(payload[0]);
    std::vector<sssp::Update>& release_buffer = state.release_scratch;
    release_buffer.clear();
    state.pq_hold.release_up_to(state.t_pq, &release_buffer);
    for (const sssp::Update& u : release_buffer) {
      pe.charge(kCosts.pq_op_us);
      state.pq.push(LabelUpdate{u.vertex, static_cast<VertexId>(u.dist)});
    }
    tram_->flush_all(pe);
  }

  runtime::Machine& machine_;
  const graph::Csr& csr_;
  const graph::Partition1D& partition_;
  AsyncCcConfig config_;
  double bucket_width_;

  std::vector<PeState> pes_;
  std::vector<runtime::IdleHandlerId> idle_handler_ids_;
  std::unique_ptr<tram::Tram<LabelUpdate>> tram_;
  std::unique_ptr<runtime::TerminationDetector> detector_;
};

}  // namespace

AsyncCcResult async_cc(runtime::Machine& machine, const graph::Csr& csr,
                       const graph::Partition1D& partition,
                       const AsyncCcConfig& config,
                       runtime::SimTime time_limit_us) {
  AsyncCcEngine engine(machine, csr, partition, config);
  return engine.run(time_limit_us);
}

}  // namespace acic::cc
