// Serving-layer load bench: latency/throughput curves for the
// QueryService as offered QPS varies, with the serving tiers —
// multi-source batching and the landmark/goal-directed p2p tier —
// individually toggled per arm:
//
//   baseline    one engine per query, no landmarks
//   batch       up to --batch queries coalesced per engine pass
//   landmarks   p2p queries served by the exact landmark tiers
//   batch+lmk   both
//
// Expected shapes (classic open-loop queueing):
//   * as offered QPS approaches the service's engine throughput, queue
//     wait — and with it p95/p99 — blows up while p50 stays flat until
//     saturation (the tail feels congestion first);
//   * batching multiplies engine throughput at the same admission
//     bound, moving the knee right;
//   * the landmark tier peels p2p queries off the engine path entirely,
//     which both serves them in microseconds and frees slots for the
//     full-SSSP traffic.
//
// Exactness gate (static cells): every answer the service produced is
// verified against a dedicated per-query full-engine run —
//   * every point-to-point answer (always retained as a scalar) must be
//     bitwise equal to the solo engine's dist[target] for its source;
//   * when the cell is small enough to retain full vectors
//     (queries <= --verify-full-max, always true under --smoke), every
//     full-SSSP answer is compared vector-for-vector;
//   * independently, every vector still resident in the result cache is
//     compared against the solo run for its source (these are exactly
//     the engine/batch lane outputs).
// Any divergence prints the offending query and the process exits 1 —
// this is wired into CI under ASan/UBSan via --smoke.  Cells running
// under mutation churn (--mutation-rate > 0) skip the gate: answers are
// exact for their admission epoch, which a post-hoc solver on the final
// graph cannot reproduce.
//
//   ./bench/server_load [--scale N] [--queries-per-cell Q] [--inflight K]
//                       [--qps a,b,c] [--batch B] [--landmarks L]
//                       [--p2p F] [--cache C] [--csv PATH] [--smoke]
//                       [--verify-full-max M]
//                       [--mutation-rate R] [--mutation-batch B]
//                       [--trace-json PATH] [--obs-csv PATH]
//
// Default sweep: 4 arms x 5 QPS points x 6000 queries = 120k queries
// total (the documented >= 1e5 acceptance scale).  --smoke shrinks to a
// CI-sized run (4 arms x 1 QPS x 400 queries, full verification, plus
// one churn cell for sanitizer coverage of the dynamic paths).
//
// With --trace-json / --obs-csv the *last* sweep cell runs with a
// capacity-bounded tracer and an observability registry attached and
// exports them.

#include <cstdio>
#include <map>
#include <optional>

#include "bench/bench_common.hpp"
#include "src/core/acic.hpp"
#include "src/dynamic/dynamic_graph.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/partition.hpp"
#include "src/runtime/machine.hpp"
#include "src/server/service.hpp"
#include "src/server/workload.hpp"

namespace {

using namespace acic;

struct Arm {
  const char* name;
  bool batch;
  bool landmarks;
};

/// Solo full-engine reference runs, one per distinct source (memoized:
/// the graph and engine config are fixed across the sweep).
class ReferenceSolver {
 public:
  ReferenceSolver(const graph::Csr& csr, runtime::Topology topo)
      : csr_(csr), topo_(topo) {}

  const std::vector<graph::Dist>& dist(graph::VertexId source) {
    auto it = refs_.find(source);
    if (it == refs_.end()) {
      runtime::Machine machine(topo_);
      const graph::Partition1D partition = graph::Partition1D::block(
          csr_.num_vertices(), machine.num_pes());
      auto result =
          core::acic_sssp(machine, csr_, partition, source, {});
      it = refs_.emplace(source, std::move(result.sssp.dist)).first;
    }
    return it->second;
  }

 private:
  const graph::Csr& csr_;
  runtime::Topology topo_;
  std::map<graph::VertexId, std::vector<graph::Dist>> refs_;
};

/// Verifies every retained answer of a completed static-mode cell
/// against dedicated solo engine runs.  Returns the number of answers
/// checked; exits the process on any divergence.
std::uint64_t verify_cell(const server::QueryService& service,
                          ReferenceSolver& refs, bool full_retained) {
  std::uint64_t checked = 0;
  for (const server::QueryRecord& r : service.records()) {
    if (r.mode == server::ResultMode::kPointToPoint) {
      const server::QueryResult* result = service.result_of(r.id);
      if (result == nullptr ||
          result->distance != refs.dist(r.source)[r.target]) {
        std::fprintf(stderr,
                     "EXACTNESS VIOLATION: p2p query %llu (%u -> %u) "
                     "served %.17g, full engine says %.17g\n",
                     static_cast<unsigned long long>(r.id), r.source,
                     r.target,
                     result != nullptr ? result->distance : -1.0,
                     refs.dist(r.source)[r.target]);
        std::exit(1);
      }
      ++checked;
    } else if (full_retained) {
      const server::QueryResult* result = service.result_of(r.id);
      if (result == nullptr || result->distances != refs.dist(r.source)) {
        std::fprintf(stderr,
                     "EXACTNESS VIOLATION: full query %llu (source %u) "
                     "differs from a dedicated engine run\n",
                     static_cast<unsigned long long>(r.id), r.source);
        std::exit(1);
      }
      ++checked;
    }
  }
  // The cache holds exactly the engine/batch lane outputs: compare each
  // resident vector against the solo run for its source.
  for (const graph::VertexId source : service.cache().cached_sources()) {
    if (*service.cache().peek(source) != refs.dist(source)) {
      std::fprintf(stderr,
                   "EXACTNESS VIOLATION: cached vector for source %u "
                   "differs from a dedicated engine run\n",
                   source);
      std::exit(1);
    }
    ++checked;
  }
  return checked;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options opts(argc, argv);
  const bool smoke = opts.has("smoke");

  graph::GenParams params;
  params.num_vertices =
      graph::VertexId{1}
      << static_cast<unsigned>(opts.get_int("scale", smoke ? 8 : 9));
  params.num_edges = params.num_vertices * 16ull;
  params.seed = 1;
  const graph::EdgeList edge_list = graph::generate_uniform_random(params);
  const graph::Csr csr = graph::Csr::from_edge_list(edge_list);

  auto mutation_rate =
      static_cast<std::uint32_t>(opts.get_int("mutation-rate", 0));
  const auto mutation_batch = static_cast<std::size_t>(
      opts.get_int("mutation-batch", 8));

  const auto queries = static_cast<std::uint64_t>(
      opts.get_int("queries-per-cell", smoke ? 400 : 6000));
  const auto inflight =
      static_cast<std::uint32_t>(opts.get_int("inflight", 3));
  const auto max_batch =
      static_cast<std::size_t>(opts.get_int("batch", 8));
  const auto num_landmarks =
      static_cast<std::size_t>(opts.get_int("landmarks", 8));
  const auto cache_cap =
      static_cast<std::size_t>(opts.get_int("cache", 24));
  const double p2p_fraction = opts.get_double("p2p", 0.3);
  const auto verify_full_max = static_cast<std::uint64_t>(
      opts.get_int("verify-full-max", smoke ? 1000000 : 2000));

  std::vector<std::uint32_t> qps_list =
      smoke ? std::vector<std::uint32_t>{3000}
            : std::vector<std::uint32_t>{500, 1000, 2000, 4000, 8000};
  if (opts.has("qps")) qps_list = bench::parse_list(opts.get("qps", ""));

  const std::vector<Arm> arms = {{"baseline", false, false},
                                 {"batch", true, false},
                                 {"landmarks", false, true},
                                 {"batch+lmk", true, true}};

  std::printf("Serving-layer load sweep: scale=%u graph, %llu queries x "
              "%zu arms x %zu qps points (%llu total), max_inflight=%u, "
              "batch<=%zu, %zu landmarks, p2p=%.2f, Topology{2,2,2}\n",
              static_cast<unsigned>(opts.get_int("scale", smoke ? 8 : 9)),
              static_cast<unsigned long long>(queries), arms.size(),
              qps_list.size(),
              static_cast<unsigned long long>(queries * arms.size() *
                                              qps_list.size()),
              inflight, max_batch, num_landmarks, p2p_fraction);

  util::Table table({"arm", "offered_qps", "throughput_qps", "p50_us",
                     "p95_us", "p99_us", "mean_wait_us", "hit_rate",
                     "batches", "lmk_exact", "goal_dir", "verified"});

  const bool want_obs = opts.has("trace-json") || opts.has("obs-csv");
  const runtime::Topology topo{2, 2, 2};
  ReferenceSolver refs(csr, topo);
  std::uint64_t total_verified = 0;

  // Smoke adds one churn cell at the end (sanitizer coverage of the
  // dynamic serving paths; exactness gate does not apply to it).
  const std::size_t churn_cells = (smoke && mutation_rate == 0) ? 1 : 0;

  for (std::size_t ai = 0; ai < arms.size() + churn_cells; ++ai) {
    const bool churn_cell = ai == arms.size();
    const Arm arm = churn_cell ? Arm{"churn", true, true} : arms[ai];
    const std::uint32_t cell_mutation_rate =
        churn_cell ? 4000 : mutation_rate;
    for (std::size_t qi = 0; qi < qps_list.size(); ++qi) {
      const std::uint32_t qps = qps_list[qi];
      // Observe the last configuration of the sweep (the most loaded).
      const bool observed = want_obs && ai + 1 == arms.size() &&
                            qi + 1 == qps_list.size();
      runtime::Tracer tracer;
      tracer.set_capacity(
          static_cast<std::size_t>(opts.get_int("trace-spans", 20000)));
      obs::Registry registry(topo);

      runtime::Machine machine(topo);
      const graph::Partition1D partition = graph::Partition1D::block(
          csr.num_vertices(), machine.num_pes());

      server::ServiceConfig config;
      config.max_inflight = inflight;
      config.cache_capacity = cache_cap;
      config.batching.max_batch = arm.batch ? max_batch : 1;
      config.landmarks.num_landmarks = arm.landmarks ? num_landmarks : 0;
      const bool verify = cell_mutation_rate == 0;
      const bool full_retained = verify && queries <= verify_full_max;
      config.retain_full_results = full_retained;
      if (observed) {
        machine.set_registry(&registry);
        machine.set_tracer(&tracer);
      }
      // Each cell mutates its own DynamicGraph, so dynamic mode builds a
      // fresh one from the shared edge list.  QueryService is pinned in
      // place (non-movable), hence the optional + emplace.
      std::optional<dynamic::DynamicGraph> dyn;
      std::optional<server::QueryService> service;
      if (cell_mutation_rate > 0) {
        dyn.emplace(edge_list);
        service.emplace(machine, *dyn, partition, config);
      } else {
        service.emplace(machine, csr, partition, config);
      }

      server::WorkloadConfig wl;
      wl.seed = 7;
      wl.qps = static_cast<double>(qps);
      wl.num_queries = queries;
      wl.source_universe = 48;
      wl.p2p_fraction = p2p_fraction;
      service->submit(server::generate_workload(wl, csr.num_vertices()));
      if (dyn.has_value()) {
        server::MutationWorkloadConfig mw;
        mw.seed = 13;
        mw.mutation_rate = static_cast<double>(cell_mutation_rate);
        mw.batch_size = mutation_batch;
        // Cover the query stream's offered span with mutation traffic.
        const double span_s = static_cast<double>(queries) /
                              static_cast<double>(qps);
        mw.num_batches = static_cast<std::uint64_t>(
            span_s * static_cast<double>(cell_mutation_rate) /
                static_cast<double>(mutation_batch) +
            1.0);
        service->submit_mutations(
            server::generate_mutation_stream(mw, dyn->csr()));
      }
      service->run();

      const server::ServiceSummary s = service->summary();
      if (s.completed != queries) {
        std::fprintf(stderr,
                     "FAIL: arm=%s qps=%u completed %llu of %llu\n",
                     arm.name, qps,
                     static_cast<unsigned long long>(s.completed),
                     static_cast<unsigned long long>(queries));
        return 1;
      }
      std::uint64_t verified = 0;
      if (verify) {
        verified = verify_cell(*service, refs, full_retained);
        total_verified += verified;
      }
      table.add_row(
          {arm.name, util::strformat("%u", qps),
           util::strformat("%.1f", s.throughput_qps),
           util::strformat("%.1f", s.p50_latency_us),
           util::strformat("%.1f", s.p95_latency_us),
           util::strformat("%.1f", s.p99_latency_us),
           util::strformat("%.1f", s.mean_queue_wait_us),
           util::strformat("%.3f", s.cache_hit_rate),
           util::strformat("%llu",
                           static_cast<unsigned long long>(
                               s.batches_started)),
           util::strformat("%llu", static_cast<unsigned long long>(
                                       s.landmark_exact)),
           util::strformat("%llu", static_cast<unsigned long long>(
                                       s.goal_directed)),
           util::strformat("%llu",
                           static_cast<unsigned long long>(verified))});
      if (observed) {
        bench::export_observability(opts, topo, &tracer, &registry);
      }
    }
  }

  table.print();
  std::printf("exactness gate: %llu answers verified against dedicated "
              "full-engine runs, 0 divergences\n",
              static_cast<unsigned long long>(total_verified));
  bench::write_csv(table, opts, "server_load.csv");
  return 0;
}
