// Golden simulated outputs.  One scale-10 RMAT graph on Topology{2, 2, 4},
// solved along each of ACIC's code paths and by every distributed
// baseline (Δ-stepping with and without its Bellman-Ford tail, KLA and
// distributed control with and without its priority queue), at one and
// at four host threads; BSP connected components runs on the same graph
// symmetrized.  Every case is compared against values recorded
// from an earlier build: an FNV-1a hash of the distance bits, the sim
// time as a hex float, events, messages, bytes, updates created, rejected
// and superseded, and reduction cycles.  The other suites compare a run
// only with another run of the same build, so a refactor that changes
// what the simulation computes passes them; this suite does not.
//
// A deliberate change to the simulation (a new charge, a fixed cost)
// re-records the table: every mismatching case prints its new row.  Both
// thread counts check against one row, since the engine reproduces the
// one-thread schedule at every thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "src/baselines/delta_stepping.hpp"
#include "src/baselines/distributed_control.hpp"
#include "src/baselines/kla.hpp"
#include "src/cc/bsp_cc.hpp"
#include "src/core/acic.hpp"
#include "src/graph/csr.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/partition.hpp"
#include "src/graph/partition2d.hpp"
#include "src/obs/registry.hpp"
#include "src/runtime/machine.hpp"

namespace {

using acic::core::AcicConfig;
using acic::graph::Csr;
using acic::graph::Dist;
using acic::graph::Partition1D;
using acic::graph::VertexId;
using acic::runtime::Machine;
using acic::runtime::Topology;

constexpr Topology kTopology{2, 2, 4};

struct Outcome {
  std::uint64_t dist_fnv = 0;
  std::string sim_time;  // %a of the end time
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t created = 0;
  std::uint64_t rejected = 0;
  std::uint64_t superseded = 0;
  std::uint64_t cycles = 0;

  bool operator==(const Outcome&) const = default;
};

struct Golden {
  const char* name;
  Outcome expected;
};

// Recorded from the build that fixed the aggregate wire sizes; the
// delta_stepping_2d row was added later, at commit 8feb0aa, and the rows
// after kla at commit 1729bc9.  No name ends in "no_pq": the linker would
// fold it with AcicParamSweep's literal of that name, whose address gtest
// prints into that suite's test names.  For the same reason the
// distributed-control rows do not reuse the solver names other suites
// spell out.
const Golden kGolden[] = {
    {"acic_default",
     {0xc07b4c091e2cfb0eull, "0x1.300a9ba5e3c1cp+12", 5004, 1905,
      2480064, 31444, 29129, 742, 13}},
    {"acic_tram_hold",
     {0xc07b4c091e2cfb0eull, "0x1.36c126e97945bp+12", 7003, 2670,
      3122080, 31507, 29195, 718, 18}},
    {"acic_pq_off",
     {0xc07b4c091e2cfb0eull, "0x1.f05c49ba5fad8p+12", 4041, 1574,
      2777520, 52464, 49397, 0, 11}},
    {"acic_hub_steal",
     {0xc07b4c091e2cfb0eull, "0x1.0f78cccccd489p+12", 11971, 4596,
      3490352, 34717, 30754, 727, 20}},
    {"acic_batched3",
     {0xa8593746706e353dull, "0x1.db00ed9167465p+13", 15014, 5774,
      7490736, 104848, 96086, 3953, 37}},
    {"acic_slow_pe3",
     {0xc07b4c091e2cfb0eull, "0x1.3017d7a009ca7p+12", 4983, 1905,
      2478944, 31401, 29089, 746, 13}},
    {"acic_observed",
     {0xc07b4c091e2cfb0eull, "0x1.300a9ba5e3c1cp+12", 5004, 1905,
      2480064, 31444, 29129, 742, 13}},
    {"delta_stepping_dist",
     {0xc07b4c091e2cfb0eull, "0x1.b63c83126f068p+11", 9378, 3044,
      566544, 16262, 14857, 0, 50}},
    {"delta_stepping_2d",
     {0xc07b4c091e2cfb0eull, "0x1.202cac08312cdp+11", 9074, 2943,
      247896, 16262, 14948, 0, 51}},
    {"kla",
     {0xc07b4c091e2cfb0eull, "0x1.5b589db22da64p+12", 5549, 2001,
      1408248, 34107, 31610, 0, 5}},
    {"delta_stepping_dist_buckets",
     {0xc07b4c091e2cfb0eull, "0x1.3d5a6a7efa0b4p+12", 20679, 6300,
      750752, 16240, 14837, 0, 134}},
    {"delta_stepping_2d_buckets",
     {0xc07b4c091e2cfb0eull, "0x1.020696872b0c3p+12", 22021, 6811,
      473264, 16240, 14928, 0, 141}},
    {"distributed_control_ordered",
     {0xc07b4c091e2cfb0eull, "0x1.343ec08312e2bp+12", 4899, 1820,
      901168, 32349, 30024, 589, 12}},
    {"async_baseline_unordered",
     {0xc07b4c091e2cfb0eull, "0x1.f1c3581063c37p+12", 3945, 1537,
      1435728, 52941, 49843, 0, 10}},
    {"bsp_cc",
     {0xb964577b4ca57602ull, "0x1.3dd3c189371cap+13", 3613, 1344,
      901784, 65622, 62901, 0, 12}},
};

std::string row(const char* name, const Outcome& o) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "    {\"%s\",\n     {0x%016llxull, \"%s\", %llu, %llu,\n"
                "      %llu, %llu, %llu, %llu, %llu}},",
                name, static_cast<unsigned long long>(o.dist_fnv),
                o.sim_time.c_str(), static_cast<unsigned long long>(o.events),
                static_cast<unsigned long long>(o.messages),
                static_cast<unsigned long long>(o.bytes),
                static_cast<unsigned long long>(o.created),
                static_cast<unsigned long long>(o.rejected),
                static_cast<unsigned long long>(o.superseded),
                static_cast<unsigned long long>(o.cycles));
  return buf;
}

std::uint64_t fnv1a(std::uint64_t h, const std::vector<Dist>& dist) {
  for (const Dist d : dist) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::string hex(double t) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", t);
  return buf;
}

acic::graph::EdgeList golden_edges() {
  acic::graph::GenParams params;
  params.num_vertices = VertexId{1} << 10;
  params.num_edges = params.num_vertices * 16ull;
  params.seed = 5;
  return acic::graph::generate_rmat(params);
}

const Csr& graph() {
  static const Csr csr = Csr::from_edge_list(golden_edges());
  return csr;
}

const Csr& symmetrized_graph() {
  static const Csr csr = Csr::from_edge_list(golden_edges().symmetrized());
  return csr;
}

void fill_machine(const Machine& machine, Outcome* out) {
  out->events = machine.total_events_processed();
  out->messages = machine.total_messages_sent();
  out->bytes = machine.total_bytes_sent();
}

Outcome run_acic(const std::string& name, unsigned threads) {
  const Csr& csr = graph();
  AcicConfig config;
  if (name == "acic_tram_hold") config.p_tram = 0.5;
  if (name == "acic_pq_off") config.use_pq = false;
  if (name == "acic_hub_steal") {
    config.hub_split_degree = 96;
    config.steal_threshold_degree = 32;
    config.steal_chunk_edges = 16;
  }
  acic::obs::Registry registry(kTopology);
  Machine machine(kTopology);
  machine.set_threads(threads);
  if (name == "acic_slow_pe3") machine.set_speed_factor(3, 0.7);
  if (name == "acic_observed") machine.set_registry(&registry);
  const Partition1D partition =
      Partition1D::block(csr.num_vertices(), machine.num_pes());

  acic::core::AcicEngineOptions options;
  if (name == "acic_batched3") options.sources = {0, 17, 300};
  acic::core::AcicEngine engine(machine, csr, partition, 0, config,
                                std::move(options));
  const acic::runtime::RunStats stats = machine.run();
  EXPECT_TRUE(engine.complete());
  const acic::core::AcicRunResult result = engine.collect();
  machine.set_registry(nullptr);

  // Each case must exercise the path it is named for.
  if (name == "acic_tram_hold") {
    EXPECT_GT(result.lifecycle.held_in_tram, 0u);
  }
  if (name == "acic_default") {
    EXPECT_GT(result.lifecycle.held_in_pq_hold, 0u);
  }

  Outcome out;
  out.dist_fnv = kFnvBasis;
  if (result.lane_dist.empty()) {
    out.dist_fnv = fnv1a(out.dist_fnv, result.sssp.dist);
  } else {
    for (const auto& lane : result.lane_dist) {
      out.dist_fnv = fnv1a(out.dist_fnv, lane);
    }
  }
  out.sim_time = hex(stats.end_time_us);
  fill_machine(machine, &out);
  out.created = result.sssp.metrics.updates_created;
  out.rejected = result.sssp.metrics.updates_rejected;
  out.superseded = result.sssp.metrics.updates_superseded;
  out.cycles = result.reduction_cycles;
  return out;
}

Outcome run_baseline(const std::string& name, unsigned threads) {
  const Csr& csr = graph();
  Machine machine(kTopology);
  machine.set_threads(threads);
  const Partition1D partition =
      Partition1D::block(csr.num_vertices(), machine.num_pes());
  acic::sssp::SsspResult sssp;
  std::uint64_t cycles = 0;
  if (name.rfind("delta_stepping", 0) == 0) {
    // The default rows switch to Bellman-Ford sweeps after a few buckets;
    // the *_buckets rows keep bucketing to the end.
    const bool buckets = name.find("_buckets") != std::string::npos;
    acic::baselines::DeltaConfig config;
    config.hybrid_bellman_ford = !buckets;
    const auto run =
        name.rfind("delta_stepping_2d", 0) == 0
            ? acic::baselines::delta_stepping_2d(
                  machine, csr,
                  acic::graph::Partition2D::squarest(csr, machine.num_pes()),
                  0, config)
            : acic::baselines::delta_stepping_dist(machine, csr, partition,
                                                   0, config);
    EXPECT_EQ(run.switched_to_bf, !buckets);
    sssp = run.sssp;
    cycles = run.barrier_rounds;
  } else if (name == "distributed_control_ordered" ||
             name == "async_baseline_unordered") {
    acic::baselines::DistributedControlConfig config;
    config.use_priority = name == "distributed_control_ordered";
    const auto run = acic::baselines::distributed_control_sssp(
        machine, csr, partition, 0, config);
    sssp = run.sssp;
    cycles = run.detector_cycles;
  } else {
    const auto run = acic::baselines::kla_sssp(
        machine, csr, partition, 0, acic::baselines::KlaConfig{});
    sssp = run.sssp;
    cycles = run.supersteps;
  }
  Outcome out;
  out.dist_fnv = fnv1a(kFnvBasis, sssp.dist);
  out.sim_time = hex(sssp.metrics.sim_time_us);
  fill_machine(machine, &out);
  out.created = sssp.metrics.updates_created;
  out.rejected = sssp.metrics.updates_rejected;
  out.superseded = sssp.metrics.updates_superseded;
  out.cycles = cycles;
  return out;
}

/// BSP label propagation on the symmetrized graph: the label vector is
/// hashed in place of distances, and cycles counts barrier rounds.
Outcome run_bsp_cc(unsigned threads) {
  const Csr& csr = symmetrized_graph();
  Machine machine(kTopology);
  machine.set_threads(threads);
  const Partition1D partition =
      Partition1D::block(csr.num_vertices(), machine.num_pes());
  const acic::cc::BspCcResult run = acic::cc::bsp_cc(machine, csr, partition);
  EXPECT_GT(run.supersteps, 1u);
  Outcome out;
  out.dist_fnv = kFnvBasis;
  for (const VertexId label : run.labels) {
    for (std::size_t i = 0; i < sizeof label; ++i) {
      out.dist_fnv ^= (label >> (8 * i)) & 0xffu;
      out.dist_fnv *= 0x100000001b3ull;
    }
  }
  out.sim_time = hex(run.sim_time_us);
  fill_machine(machine, &out);
  out.created = run.updates_created;
  out.rejected = run.updates_rejected;
  out.cycles = run.barrier_rounds;
  return out;
}

struct Param {
  std::string name;
  unsigned threads;
};

// Keeps the ctest names stable: gtest's fallback prints the raw bytes,
// std::string storage included (see PrintTo in
// acic_correctness_test.cpp).
void PrintTo(const Param& p, std::ostream* os) {
  *os << p.name << " threads=" << p.threads;
}

class Recorded : public ::testing::TestWithParam<Param> {};

TEST_P(Recorded, OutputsMatch) {
  const Param& p = GetParam();
  const Golden* golden = nullptr;
  for (const Golden& g : kGolden) {
    if (p.name == g.name) golden = &g;
  }
  Outcome got;
  if (p.name.rfind("acic", 0) == 0) {
    got = run_acic(p.name, p.threads);
  } else if (p.name == "bsp_cc") {
    got = run_bsp_cc(p.threads);
  } else {
    got = run_baseline(p.name, p.threads);
  }
  ASSERT_NE(golden, nullptr) << "no recorded row:\n"
                             << row(p.name.c_str(), got);
  EXPECT_EQ(got, golden->expected)
      << "recorded:\n"
      << row(golden->name, golden->expected) << "\nnow:\n"
      << row(golden->name, got);
}

TEST(GoldenSimGraph, HubAndStealThresholdsAreCrossed) {
  // acic_hub_steal only covers both paths if some rows reach each bound.
  const Csr& csr = graph();
  bool hub = false;
  bool steal = false;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    const std::size_t degree = csr.out_neighbors(v).size();
    hub = hub || degree >= 96;
    steal = steal || (degree >= 32 && degree < 96);
  }
  EXPECT_TRUE(hub);
  EXPECT_TRUE(steal);
}

std::vector<Param> params() {
  std::vector<Param> out;
  for (const char* name :
       {"acic_default", "acic_tram_hold", "acic_pq_off", "acic_hub_steal",
        "acic_batched3", "acic_slow_pe3", "acic_observed",
        "delta_stepping_dist", "delta_stepping_2d", "kla",
        "delta_stepping_dist_buckets", "delta_stepping_2d_buckets",
        "distributed_control_ordered", "async_baseline_unordered",
        "bsp_cc"}) {
    for (const unsigned threads : {1u, 4u}) out.push_back({name, threads});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    GoldenSim, Recorded, ::testing::ValuesIn(params()),
    [](const ::testing::TestParamInfo<Param>& info) {
      return info.param.name + "_threads" + std::to_string(info.param.threads);
    });

}  // namespace
