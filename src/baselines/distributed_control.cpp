#include "src/baselines/distributed_control.hpp"

#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "src/runtime/collectives.hpp"
#include "src/sssp/cost_model.hpp"
#include "src/sssp/update.hpp"
#include "src/util/assert.hpp"
#include "src/util/prefetch.hpp"

namespace acic::baselines {

namespace {

using graph::Dist;
using graph::VertexId;
using runtime::Pe;
using runtime::PeId;
using sssp::kCosts;
using sssp::Update;

/// Spacing of the termination-detection reduction cycles (each of which
/// also flushes the aggregation buffers).
constexpr runtime::SimTime kDetectorIntervalUs = 40.0;
/// Updates popped from pq per idle invocation.
constexpr std::size_t kPqDrainBatch = 32;

struct PeState {
  VertexId first = 0;
  VertexId last = 0;
  std::vector<Dist> dist;
  std::priority_queue<Update, std::vector<Update>, sssp::UpdateMinOrder> pq;

  std::uint64_t created = 0;
  std::uint64_t processed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t superseded = 0;
  std::uint64_t touched = 0;
};

class DcEngine {
 public:
  DcEngine(runtime::Machine& machine, const graph::Csr& csr,
           const graph::Partition1D& partition, VertexId source,
           const DistributedControlConfig& config)
      : machine_(machine),
        csr_(csr),
        partition_(partition),
        source_(source),
        config_(config),
        pes_(machine.num_pes()) {
    ACIC_ASSERT(partition.num_parts() == machine.num_pes());
    ACIC_ASSERT(source < csr.num_vertices());

    for (PeId p = 0; p < machine_.num_pes(); ++p) {
      PeState& state = pes_[p];
      state.first = partition.begin(p);
      state.last = partition.end(p);
      state.dist.assign(state.last - state.first, graph::kInfDist);
    }

    tram_ = std::make_unique<UpdateTram>(machine_, config_.tram,
                                         Deliver{this});

    detector_ = std::make_unique<runtime::TerminationDetector>(
        machine_, /*engine_slots=*/0, kDetectorIntervalUs,
        [this](Pe& pe, std::vector<double>& report) {
          const PeState& state = pes_[pe.id()];
          report.push_back(static_cast<double>(state.created));
          report.push_back(static_cast<double>(state.processed));
        },
        [](Pe&, std::uint64_t, const std::vector<double>&) {
          return std::vector<double>{};
        },
        // Tick: the manual flush that keeps the sparse tail moving.
        [this](Pe& pe, std::span<const double>) { tram_->flush_all(pe); },
        [](Pe&) {});

    if (config_.use_priority) {
      for (PeId p = 0; p < machine_.num_pes(); ++p) {
        // add (not set): leaves the PE's idle dispatch shareable with
        // other tenants of the machine.
        idle_handler_ids_.push_back(machine_.add_idle_handler(
            p, [this](Pe& pe) { return drain_pq(pe); }));
      }
    }

    machine_.schedule_at(0.0, partition_.owner(source_), [this](Pe& pe) {
      create_update(pe, source_, 0.0);
    });
    detector_->start();
  }

  ~DcEngine() {
    for (std::size_t i = 0; i < idle_handler_ids_.size(); ++i) {
      machine_.remove_idle_handler(static_cast<PeId>(i),
                                   idle_handler_ids_[i]);
    }
  }

  DistributedControlRunResult run(runtime::SimTime time_limit_us) {
    const runtime::RunStats stats = machine_.run(time_limit_us);

    DistributedControlRunResult result;
    result.hit_time_limit = stats.hit_time_limit;
    result.detector_cycles = detector_->cycles();

    result.sssp.dist.assign(csr_.num_vertices(), graph::kInfDist);
    for (const PeState& state : pes_) {
      std::copy(state.dist.begin(), state.dist.end(),
                result.sssp.dist.begin() + state.first);
      result.sssp.metrics.updates_created += state.created;
      result.sssp.metrics.updates_processed += state.processed;
      result.sssp.metrics.updates_rejected += state.rejected;
      result.sssp.metrics.updates_superseded += state.superseded;
      result.sssp.metrics.vertices_touched += state.touched;
    }
    result.sssp.metrics.collective_cycles = detector_->cycles();
    sssp::fill_machine_fields(machine_, stats, result.sssp.metrics,
                              result.pe_busy_us);
    return result;
  }

 private:
  /// Concrete delivery functor: inlined dispatch, derived targets and
  /// PrefEdge-style lookahead.  The async baseline (use_priority off)
  /// expands straight from on_deliver, so the CSR offsets row is warmed
  /// alongside the distance slot.
  struct Deliver {
    DcEngine* engine;
    void operator()(Pe& pe, const Update& u) const {
      engine->on_deliver(pe, u);
    }
    PeId target_of(const Update& u) const {
      return engine->partition_.owner(u.vertex);
    }
    void prefetch(Pe& pe, const Update& u) const {
      const PeState& state = engine->pes_[pe.id()];
      util::prefetch_read(state.dist.data() + (u.vertex - state.first));
      util::prefetch_read(engine->csr_.offsets().data() + u.vertex);
    }
  };
  using UpdateTram = tram::Tram<Update, Deliver>;

  void create_update(Pe& pe, VertexId target, Dist d) {
    ++pes_[pe.id()].created;
    tram_->insert(pe, partition_.owner(target), Update{target, d});
  }

  void on_deliver(Pe& pe, const Update& u) {
    PeState& state = pes_[pe.id()];
    pe.charge(kCosts.update_apply_us);
    const VertexId local = u.vertex - state.first;
    ACIC_ASSERT(u.vertex >= state.first && u.vertex < state.last);

    if (u.dist >= state.dist[local]) {
      ++state.processed;
      ++state.rejected;
      return;
    }
    if (state.dist[local] == graph::kInfDist) ++state.touched;
    state.dist[local] = u.dist;

    if (!config_.use_priority) {
      expand(pe, u);
      return;
    }
    pe.charge(kCosts.pq_op_us);
    state.pq.push(u);
  }

  bool drain_pq(Pe& pe) {
    PeState& state = pes_[pe.id()];
    bool any = false;
    for (std::size_t i = 0;
         i < kPqDrainBatch && !state.pq.empty(); ++i) {
      pe.charge(kCosts.pq_op_us);
      const Update u = state.pq.top();
      state.pq.pop();
      // The new top is almost always the next pop of this batch: warm
      // its distance slot and CSR row behind u's expansion.
      if (!state.pq.empty()) {
        const Update& ahead = state.pq.top();
        util::prefetch_read(state.dist.data() +
                            (ahead.vertex - state.first));
        util::prefetch_read(csr_.offsets().data() + ahead.vertex);
      }
      any = true;
      const VertexId local = u.vertex - state.first;
      if (state.dist[local] == u.dist) {
        expand(pe, u);
      } else {
        ++state.processed;
        ++state.superseded;
      }
    }
    return any;
  }

  void expand(Pe& pe, const Update& u) {
    PeState& state = pes_[pe.id()];
    for (const graph::Neighbor& nb : csr_.out_neighbors(u.vertex)) {
      pe.charge(kCosts.edge_relax_us);
      create_update(pe, nb.dst, u.dist + nb.weight);
    }
    ++state.processed;
  }

  runtime::Machine& machine_;
  const graph::Csr& csr_;
  const graph::Partition1D& partition_;
  VertexId source_;
  DistributedControlConfig config_;

  std::vector<PeState> pes_;
  std::vector<runtime::IdleHandlerId> idle_handler_ids_;
  std::unique_ptr<UpdateTram> tram_;
  std::unique_ptr<runtime::TerminationDetector> detector_;
};

}  // namespace

DistributedControlRunResult distributed_control_sssp(
    runtime::Machine& machine, const graph::Csr& csr,
    const graph::Partition1D& partition, VertexId source,
    const DistributedControlConfig& config,
    runtime::SimTime time_limit_us) {
  DcEngine engine(machine, csr, partition, source, config);
  return engine.run(time_limit_us);
}

}  // namespace acic::baselines
