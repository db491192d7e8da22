#include "src/cc/bsp_cc.hpp"

#include <memory>
#include <optional>
#include <vector>

#include "src/runtime/collectives.hpp"
#include "src/util/assert.hpp"

namespace acic::cc {

namespace {

using graph::VertexId;
using runtime::Pe;
using runtime::PeId;
using runtime::Superstep;

/// Spacing between barrier re-contributions while in-flight messages
/// drain.
constexpr runtime::SimTime kBarrierIntervalUs = 10.0;

struct LabelUpdate {
  VertexId vertex = 0;
  VertexId label = 0;
};

// Barrier payload layout: cumulative items sent and received, then the
// vertices whose label changed since their last sweep.
enum Slot : std::size_t {
  kSent = 0,
  kRecv = 1,
  kDirty = 2,
};

struct PeState {
  VertexId first = 0;
  VertexId last = 0;
  std::vector<VertexId> labels;
  std::vector<bool> dirty_flag;
  std::vector<VertexId> dirty;

  std::uint64_t sent = 0;
  std::uint64_t recv = 0;
  std::uint64_t created = 0;
  std::uint64_t processed = 0;
  std::uint64_t rejected = 0;
};

class BspCcEngine {
 public:
  BspCcEngine(runtime::Machine& machine, const graph::Csr& csr,
              const graph::Partition1D& partition,
              const BspCcConfig& config)
      : machine_(machine),
        csr_(csr),
        partition_(partition),
        config_(config),
        pes_(machine.num_pes()),
        superstep_(
            machine, {runtime::ReduceOp::kSum}, kBarrierIntervalUs,
            // The next sweep, once drained, unless no label changed.
            [this](const std::vector<double>& sum, bool drained)
                -> std::optional<Superstep::Command> {
              if (!drained || sum[kDirty] == 0.0) return std::nullopt;
              ++supersteps_;
              return Superstep::Command{};
            },
            [this](Pe& pe, const Superstep::Command* cmd) {
              if (cmd != nullptr) do_sweep(pe);
              tram_->flush_all(pe);
              const PeState& state = pes_[pe.id()];
              return std::vector<double>{
                  static_cast<double>(state.sent),
                  static_cast<double>(state.recv),
                  static_cast<double>(state.dirty.size())};
            }) {
    ACIC_ASSERT(partition.num_parts() == machine.num_pes());

    for (PeId p = 0; p < machine_.num_pes(); ++p) {
      PeState& state = pes_[p];
      state.first = partition.begin(p);
      state.last = partition.end(p);
      const std::size_t n = state.last - state.first;
      state.labels.resize(n);
      state.dirty_flag.assign(n, true);
      state.dirty.reserve(n);
      for (VertexId v = state.first; v < state.last; ++v) {
        state.labels[v - state.first] = v;
        state.dirty.push_back(v);  // first sweep announces everyone
      }
    }

    tram::TramConfig tram_config = config_.tram;
    tram_config.item_bytes = 8;
    tram_ = std::make_unique<tram::Tram<LabelUpdate>>(
        machine_, tram_config,
        [this](Pe& pe, const LabelUpdate& u) { on_deliver(pe, u); });

    superstep_.start({});
  }

  BspCcResult run(runtime::SimTime time_limit_us) {
    const runtime::RunStats stats = machine_.run(time_limit_us);
    BspCcResult result;
    result.hit_time_limit = stats.hit_time_limit;
    result.supersteps = supersteps_;
    result.barrier_rounds = superstep_.rounds();
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
  void on_deliver(Pe& pe, const LabelUpdate& u) {
    PeState& state = pes_[pe.id()];
    ++state.recv;
    ++state.processed;
    pe.charge(config_.costs.update_apply_us);
    const VertexId local = u.vertex - state.first;
    ACIC_ASSERT(u.vertex >= state.first && u.vertex < state.last);
    if (u.label >= state.labels[local]) {
      ++state.rejected;
      return;
    }
    state.labels[local] = u.label;
    if (!state.dirty_flag[local]) {
      state.dirty_flag[local] = true;
      state.dirty.push_back(u.vertex);
    }
  }

  void do_sweep(Pe& pe) {
    PeState& state = pes_[pe.id()];
    std::vector<VertexId> sweep;
    sweep.swap(state.dirty);
    for (const VertexId v : sweep) {
      const VertexId local = v - state.first;
      state.dirty_flag[local] = false;
      const VertexId label = state.labels[local];
      for (const graph::Neighbor& nb : csr_.out_neighbors(v)) {
        // Announcing to a vertex that cannot improve is pointless; the
        // standard optimization only pushes to larger-labeled directions
        // when the label is the vertex's own id, but after that the
        // owner cannot know the neighbor's label, so push always.
        pe.charge(config_.costs.edge_relax_us);
        ++state.created;
        ++state.sent;
        tram_->insert(pe, partition_.owner(nb.dst),
                      LabelUpdate{nb.dst, label});
      }
    }
  }

  runtime::Machine& machine_;
  const graph::Csr& csr_;
  const graph::Partition1D& partition_;
  BspCcConfig config_;

  std::vector<PeState> pes_;
  std::unique_ptr<tram::Tram<LabelUpdate>> tram_;
  Superstep superstep_;

  std::uint64_t supersteps_ = 0;
};

}  // namespace

BspCcResult bsp_cc(runtime::Machine& machine, const graph::Csr& csr,
                   const graph::Partition1D& partition,
                   const BspCcConfig& config,
                   runtime::SimTime time_limit_us) {
  BspCcEngine engine(machine, csr, partition, config);
  return engine.run(time_limit_us);
}

}  // namespace acic::cc
