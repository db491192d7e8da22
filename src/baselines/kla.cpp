#include "src/baselines/kla.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "src/runtime/collectives.hpp"
#include "src/util/assert.hpp"
#include "src/util/prefetch.hpp"

namespace acic::baselines {

namespace {

using graph::Dist;
using graph::VertexId;
using runtime::Pe;
using runtime::PeId;
using runtime::Superstep;

/// Spacing between barrier re-contributions while in-flight messages
/// drain.
constexpr runtime::SimTime kBarrierIntervalUs = 20.0;

/// An update carrying its hop depth within the current superstep.
struct KlaUpdate {
  VertexId vertex = 0;
  Dist dist = 0.0;
  std::uint32_t hops = 0;
};

enum Slot : std::size_t {
  kSent = 0,
  kRecv = 1,
  kChanged = 2,
  kDeferred = 3,
  kSlots = 4,
};

struct PeState {
  VertexId first = 0;
  VertexId last = 0;
  std::vector<Dist> dist;
  std::vector<bool> deferred_flag;
  std::vector<VertexId> deferred;

  std::uint64_t sent = 0;
  std::uint64_t recv = 0;
  std::uint64_t changed_delta = 0;

  std::uint64_t created = 0;
  std::uint64_t processed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t touched = 0;

  std::uint32_t k = 1;
};

class KlaEngine {
 public:
  KlaEngine(runtime::Machine& machine, const graph::Csr& csr,
            const graph::Partition1D& partition, VertexId source,
            const KlaConfig& config)
      : machine_(machine),
        csr_(csr),
        partition_(partition),
        source_(source),
        config_(config),
        k_(std::max(config.initial_k, config.min_k)),
        pes_(machine.num_pes()),
        superstep_(
            machine,
            {runtime::ReduceOp::kSum, runtime::ReduceOp::kSum},
            kBarrierIntervalUs,
            [this](const std::vector<double>& sums, bool drained) {
              return on_root(sums, drained);
            },
            [this](Pe& pe, const Superstep::Command* cmd) {
              if (cmd != nullptr) {
                do_work(pe, static_cast<std::uint32_t>(cmd->arg));
              }
              tram_->flush_all(pe);
              return contribution(pes_[pe.id()]);
            }) {
    ACIC_ASSERT(partition.num_parts() == machine.num_pes());
    ACIC_ASSERT(source < csr.num_vertices());

    for (PeId p = 0; p < machine_.num_pes(); ++p) {
      PeState& state = pes_[p];
      state.first = partition.begin(p);
      state.last = partition.end(p);
      const std::size_t n = state.last - state.first;
      state.dist.assign(n, graph::kInfDist);
      state.deferred_flag.assign(n, false);
      state.k = k_;
    }

    tram::TramConfig tram_config = config_.tram;
    tram_config.item_bytes = sizeof(KlaUpdate);
    tram_ = std::make_unique<UpdateTram>(machine_, tram_config,
                                         Deliver{this});

    const PeId owner = partition_.owner(source_);
    machine_.schedule_at(0.0, owner, [this](Pe& pe) {
      PeState& state = pes_[pe.id()];
      const VertexId local = source_ - state.first;
      state.dist[local] = 0.0;
      ++state.touched;
      ++state.changed_delta;
      state.deferred_flag[local] = true;
      state.deferred.push_back(source_);
    });
    superstep_.start({0, static_cast<double>(k_)});
  }

  KlaRunResult run(runtime::SimTime time_limit_us) {
    const runtime::RunStats stats = machine_.run(time_limit_us);

    KlaRunResult result;
    result.hit_time_limit = stats.hit_time_limit;
    result.supersteps = supersteps_;
    result.final_k = k_;
    result.peak_k = peak_k_;

    result.sssp.dist.assign(csr_.num_vertices(), graph::kInfDist);
    for (const PeState& state : pes_) {
      std::copy(state.dist.begin(), state.dist.end(),
                result.sssp.dist.begin() + state.first);
      result.sssp.metrics.updates_created += state.created;
      result.sssp.metrics.updates_processed += state.processed;
      result.sssp.metrics.updates_rejected += state.rejected;
      result.sssp.metrics.vertices_touched += state.touched;
    }
    result.sssp.metrics.collective_cycles = superstep_.rounds();
    sssp::fill_machine_fields(machine_, stats, result.sssp.metrics,
                              result.pe_busy_us);
    return result;
  }

 private:
  /// Concrete delivery functor: inlined dispatch, derived targets (no
  /// per-entry target field in tram buffers) and PrefEdge-style
  /// lookahead — KLA expands on arrival while within the hop budget, so
  /// both the distance slot and the CSR offsets row are warmed.
  struct Deliver {
    KlaEngine* engine;
    void operator()(Pe& pe, const KlaUpdate& u) const {
      engine->on_deliver(pe, u);
    }
    PeId target_of(const KlaUpdate& u) const {
      return engine->partition_.owner(u.vertex);
    }
    void prefetch(Pe& pe, const KlaUpdate& u) const {
      const PeState& state = engine->pes_[pe.id()];
      util::prefetch_read(state.dist.data() + (u.vertex - state.first));
      util::prefetch_read(engine->csr_.offsets().data() + u.vertex);
    }
  };
  using UpdateTram = tram::Tram<KlaUpdate, Deliver>;

  void send_relax(Pe& pe, VertexId target, Dist d, std::uint32_t hops) {
    PeState& state = pes_[pe.id()];
    ++state.created;
    ++state.sent;
    pe.charge(config_.costs.edge_relax_us);
    tram_->insert(pe, partition_.owner(target),
                  KlaUpdate{target, d, hops});
  }

  void on_deliver(Pe& pe, const KlaUpdate& u) {
    PeState& state = pes_[pe.id()];
    ++state.recv;
    ++state.processed;
    pe.charge(config_.costs.update_apply_us);
    const VertexId local = u.vertex - state.first;
    ACIC_ASSERT(u.vertex >= state.first && u.vertex < state.last);

    if (u.dist >= state.dist[local]) {
      ++state.rejected;
      return;
    }
    if (state.dist[local] == graph::kInfDist) ++state.touched;
    state.dist[local] = u.dist;
    ++state.changed_delta;

    if (u.hops < state.k) {
      // Still within the asynchrony window: expand immediately.
      for (const graph::Neighbor& nb : csr_.out_neighbors(u.vertex)) {
        send_relax(pe, nb.dst, u.dist + nb.weight, u.hops + 1);
      }
      return;
    }
    // Depth budget exhausted: defer to the next superstep.
    if (!state.deferred_flag[local]) {
      state.deferred_flag[local] = true;
      state.deferred.push_back(u.vertex);
    }
  }

  void do_work(Pe& pe, std::uint32_t k) {
    PeState& state = pes_[pe.id()];
    state.k = k;
    std::vector<VertexId> frontier;
    frontier.swap(state.deferred);
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      // Warm item i+N's CSR offsets and distance slot behind N rows of
      // relaxation work.
      if (i + util::kExpandPrefetchLookahead < frontier.size()) {
        const VertexId ahead =
            frontier[i + util::kExpandPrefetchLookahead];
        util::prefetch_read(csr_.offsets().data() + ahead);
        util::prefetch_read(state.dist.data() + (ahead - state.first));
      }
      const VertexId v = frontier[i];
      const VertexId local = v - state.first;
      state.deferred_flag[local] = false;
      for (const graph::Neighbor& nb : csr_.out_neighbors(v)) {
        send_relax(pe, nb.dst, state.dist[local] + nb.weight, 1);
      }
    }
  }

  std::vector<double> contribution(PeState& state) const {
    std::vector<double> payload(kSlots, 0.0);
    payload[kSent] = static_cast<double>(state.sent);
    payload[kRecv] = static_cast<double>(state.recv);
    payload[kChanged] = static_cast<double>(state.changed_delta);
    state.changed_delta = 0;
    payload[kDeferred] = static_cast<double>(state.deferred.size());
    return payload;
  }

  /// Root: the changed count adds up over every round of a superstep;
  /// once the barrier has drained, k adapts and the next superstep
  /// starts, unless no vertex is deferred.
  std::optional<Superstep::Command> on_root(const std::vector<double>& sum,
                                            bool drained) {
    pending_changed_ += sum[kChanged];
    if (!drained || sum[kDeferred] == 0.0) return std::nullopt;

    // Adapt k on the changed-vertices trend (double / halve / keep).
    const double changed = pending_changed_;
    pending_changed_ = 0.0;
    if (prev_changed_ > 0.0) {
      const double ratio = changed / prev_changed_;
      if (ratio >= config_.grow_ratio) {
        k_ = std::min(config_.max_k, k_ * 2);
      } else if (ratio <= config_.shrink_ratio) {
        k_ = std::max(config_.min_k, k_ / 2);
      }
    }
    peak_k_ = std::max<std::uint64_t>(peak_k_, k_);
    prev_changed_ = changed;
    ++supersteps_;
    return Superstep::Command{0, static_cast<double>(k_)};
  }

  runtime::Machine& machine_;
  const graph::Csr& csr_;
  const graph::Partition1D& partition_;
  VertexId source_;
  KlaConfig config_;
  std::uint32_t k_;

  std::vector<PeState> pes_;
  std::unique_ptr<UpdateTram> tram_;
  Superstep superstep_;

  double pending_changed_ = 0.0;
  double prev_changed_ = 0.0;
  std::uint64_t supersteps_ = 0;
  std::uint64_t peak_k_ = 0;
};

}  // namespace

KlaRunResult kla_sssp(runtime::Machine& machine, const graph::Csr& csr,
                      const graph::Partition1D& partition, VertexId source,
                      const KlaConfig& config,
                      runtime::SimTime time_limit_us) {
  KlaEngine engine(machine, csr, partition, source, config);
  return engine.run(time_limit_us);
}

}  // namespace acic::baselines
