// Golden simulated outputs.  One scale-10 RMAT graph on Topology{2, 2, 4},
// solved along each of ACIC's code paths and by three baselines, at one and
// at four host threads.  Every case is compared against values recorded
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

#include "src/baselines/delta_stepping_2d.hpp"
#include "src/baselines/delta_stepping_dist.hpp"
#include "src/baselines/kla.hpp"
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
// delta_stepping_2d row was added later, at commit 8feb0aa.  No name
// ends in "no_pq": the linker would fold it with AcicParamSweep's literal
// of that name, whose address gtest prints into that suite's test names.
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

const Csr& graph() {
  static const Csr csr = [] {
    acic::graph::GenParams params;
    params.num_vertices = VertexId{1} << 10;
    params.num_edges = params.num_vertices * 16ull;
    params.seed = 5;
    return Csr::from_edge_list(acic::graph::generate_rmat(params));
  }();
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
  if (name == "delta_stepping_dist") {
    const auto run = acic::baselines::delta_stepping_dist(
        machine, csr, partition, 0, acic::baselines::DeltaConfig{});
    sssp = run.sssp;
    cycles = run.barrier_rounds;
  } else if (name == "delta_stepping_2d") {
    const auto run = acic::baselines::delta_stepping_2d(
        machine, csr,
        acic::graph::Partition2D::squarest(csr, machine.num_pes()), 0,
        acic::baselines::DeltaConfig{});
    sssp = run.sssp;
    cycles = run.barrier_rounds;
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
  const Outcome got = p.name.rfind("acic", 0) == 0
                          ? run_acic(p.name, p.threads)
                          : run_baseline(p.name, p.threads);
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
        "delta_stepping_dist", "delta_stepping_2d", "kla"}) {
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
