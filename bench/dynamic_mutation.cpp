// Dynamic-graph bench: where does incremental repair beat recompute?
//
// Part 1 — solver arms.  The same deterministic mutation stream drives
// two IncrementalSssp instances over identical graphs: the *repair* arm
// (warm starts from the invalidated boundary, recompute only past the
// subtree-fraction threshold) and the *recompute* arm
// (recompute_fraction = 0, every refresh is a cold solve).  The figure
// of merit is the paper's primary work metric — updates created — plus
// host wall-clock.  After every batch both arms are checked elementwise
// against sequential Dijkstra, and their shortest-path-tree parents
// against the graph; any divergence prints the offending epoch and exits
// nonzero (this is the CI smoke gate).
//
// Expected shape: at small batch sizes most batches disturb no tree
// edge (refresh skipped — zero engine work) or a small subtree, so the
// repair arm does orders of magnitude fewer updates; as the batch size
// grows, the union of invalidated subtrees approaches the whole graph
// and the arms converge (the planner itself starts falling back).
//
// Part 2 — serving under churn.  A QueryService on a DynamicGraph takes
// a query stream and a mutation stream simultaneously, sweeping
// mutation rate x offered QPS x batch size; reported per cell: p95
// latency, cache hit rate, invalidations, warm-repaired queries, and
// stale results dropped.  Rising mutation rate erodes the cache (more
// invalidations, lower hit rate) but warm repair claws back part of the
// loss — repaired queries complete without a cold engine.
//
//   ./bench/dynamic_mutation [--scale N] [--batches B]
//                            [--batch-sizes a,b,c] [--rates a,b,c]
//                            [--qps a,b,c] [--queries Q] [--seed S]
//                            [--csv PATH] [--smoke]
//
// --smoke shrinks everything for CI: one small graph, short streams,
// both parts still fully verified.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_common.hpp"
#include "src/baselines/sequential.hpp"
#include "src/dynamic/dynamic_graph.hpp"
#include "src/dynamic/incremental.hpp"
#include "src/dynamic/repair.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/partition.hpp"
#include "src/graph/validate.hpp"
#include "src/runtime/machine.hpp"
#include "src/server/service.hpp"
#include "src/server/workload.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

acic::graph::EdgeList make_list(std::uint32_t scale, std::uint64_t seed) {
  acic::graph::GenParams params;
  params.num_vertices = acic::graph::VertexId{1} << scale;
  params.num_edges = params.num_vertices * 8ull;
  params.seed = seed;
  return acic::graph::generate_uniform_random(params);
}

struct ArmResult {
  std::uint64_t updates = 0;
  std::uint64_t repairs = 0;
  std::uint64_t recomputes = 0;
  std::uint64_t skipped = 0;
  std::uint64_t affected_total = 0;
  double wall_s = 0.0;
};

/// Replays `events` through one IncrementalSssp arm, verifying the
/// distances elementwise against Dijkstra and the witness parents with
/// dynamic::state_is_consistent after every batch.  Exits the process
/// with status 1 on any divergence.  wall_s times the initial solve, the
/// mutations and the refreshes but not these checks, which cost the same
/// in both arms and took half to three quarters of each arm's time at
/// scale 11.
ArmResult run_arm(const char* name, std::uint32_t scale,
                  std::uint64_t seed, double recompute_fraction,
                  const std::vector<acic::server::MutationEvent>& events) {
  using namespace acic;
  dynamic::DynamicGraph graph(make_list(scale, seed));
  dynamic::IncrementalConfig config;
  config.topology = runtime::Topology::tiny(4);
  config.recompute_fraction = recompute_fraction;
  const auto start = Clock::now();
  dynamic::IncrementalSssp solver(graph, /*source=*/0, config);
  ArmResult out;
  out.wall_s = seconds_since(start);
  for (const server::MutationEvent& event : events) {
    const auto epoch_start = Clock::now();
    graph.apply(event.batch);
    const dynamic::RefreshStats stats = solver.refresh();
    out.wall_s += seconds_since(epoch_start);
    if (stats.skipped) ++out.skipped;
    out.affected_total += stats.affected;
    const auto check = graph::compare_distances(
        solver.state().dist, baselines::dijkstra(graph.csr(), 0));
    if (!check.ok) {
      std::fprintf(stderr,
                   "FAIL: %s arm diverged from Dijkstra at epoch %llu "
                   "(scale %u, seed %llu): %s\n",
                   name,
                   static_cast<unsigned long long>(stats.to_epoch), scale,
                   static_cast<unsigned long long>(seed),
                   check.error.c_str());
      std::exit(1);
    }
    // The next repair trusts the witness parents, so check them too.
    std::string error;
    if (!dynamic::state_is_consistent(graph.snapshot(), solver.state(),
                                      &error)) {
      std::fprintf(stderr,
                   "FAIL: %s arm left an inconsistent state at epoch %llu "
                   "(scale %u, seed %llu): %s\n",
                   name,
                   static_cast<unsigned long long>(stats.to_epoch), scale,
                   static_cast<unsigned long long>(seed), error.c_str());
      std::exit(1);
    }
  }
  out.updates = solver.total_updates_created();
  out.repairs = solver.repair_count();
  out.recomputes = solver.recompute_count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace acic;
  const util::Options opts(argc, argv);
  const bool smoke = opts.get_bool("smoke", false);

  const auto scale = static_cast<std::uint32_t>(
      opts.get_int("scale", smoke ? 8 : 11));
  const auto batches = static_cast<std::uint64_t>(
      opts.get_int("batches", smoke ? 12 : 40));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));

  std::vector<std::uint32_t> batch_sizes =
      smoke ? std::vector<std::uint32_t>{4, 64}
            : std::vector<std::uint32_t>{1, 4, 16, 64, 256};
  if (opts.has("batch-sizes")) {
    batch_sizes = bench::parse_list(opts.get("batch-sizes", ""),
                                    "batch-sizes");
  }

  // ---- part 1: repair vs recompute over identical streams -------------
  std::printf("Incremental repair vs recompute: scale=%u (|V|=%u), "
              "%llu batches per size, seed=%llu\n",
              scale, 1u << scale,
              static_cast<unsigned long long>(batches),
              static_cast<unsigned long long>(seed));

  util::Table arms({"batch_size", "repair_updates", "recompute_updates",
                    "update_ratio", "repairs", "recomputes", "skipped",
                    "mean_affected", "repair_wall_s", "recompute_wall_s"});
  for (const std::uint32_t batch_size : batch_sizes) {
    server::MutationWorkloadConfig mw;
    mw.seed = seed + batch_size;  // distinct stream per size
    mw.batch_size = batch_size;
    mw.num_batches = batches;
    const graph::Csr base = graph::Csr::from_edge_list(
        make_list(scale, seed));
    const auto events = server::generate_mutation_stream(mw, base);

    const ArmResult repair =
        run_arm("repair", scale, seed, /*recompute_fraction=*/0.25,
                events);
    const ArmResult recompute =
        run_arm("recompute", scale, seed, /*recompute_fraction=*/0.0,
                events);

    const double ratio =
        recompute.updates > 0
            ? static_cast<double>(repair.updates) /
                  static_cast<double>(recompute.updates)
            : 0.0;
    const double mean_affected =
        batches > 0 ? static_cast<double>(repair.affected_total) /
                          static_cast<double>(batches)
                    : 0.0;
    arms.add_row({util::strformat("%u", batch_size),
                  util::strformat("%llu", static_cast<unsigned long long>(
                                              repair.updates)),
                  util::strformat("%llu", static_cast<unsigned long long>(
                                              recompute.updates)),
                  util::strformat("%.4f", ratio),
                  util::strformat("%llu", static_cast<unsigned long long>(
                                              repair.repairs)),
                  util::strformat("%llu", static_cast<unsigned long long>(
                                              repair.recomputes)),
                  util::strformat("%llu", static_cast<unsigned long long>(
                                              repair.skipped)),
                  util::strformat("%.1f", mean_affected),
                  util::strformat("%.3f", repair.wall_s),
                  util::strformat("%.3f", recompute.wall_s)});
  }
  arms.print();
  std::printf(
      "all epochs verified elementwise against Dijkstra, parents "
      "consistent\n\n");

  // ---- part 2: serving under churn ------------------------------------
  std::vector<std::uint32_t> rates =
      smoke ? std::vector<std::uint32_t>{2000}
            : std::vector<std::uint32_t>{0, 500, 2000, 8000};
  if (opts.has("rates")) {
    rates = bench::parse_list(opts.get("rates", ""), "rates");
  }
  std::vector<std::uint32_t> qps_list =
      smoke ? std::vector<std::uint32_t>{1000}
            : std::vector<std::uint32_t>{500, 2000};
  if (opts.has("qps")) {
    qps_list = bench::parse_list(opts.get("qps", ""), "qps");
  }
  std::vector<std::uint32_t> serve_batch_sizes =
      smoke ? std::vector<std::uint32_t>{8}
            : std::vector<std::uint32_t>{4, 32};
  const auto queries = static_cast<std::uint64_t>(
      opts.get_int("queries", smoke ? 40 : 120));

  std::printf("Serving under churn: %llu queries, Topology{2,2,2}, "
              "sweep rate x qps x batch\n",
              static_cast<unsigned long long>(queries));
  util::Table serving({"mut_per_s", "qps", "batch", "p50_us", "p95_us",
                       "hit_rate", "invalidations", "repaired",
                       "stale_prevented", "stale_dropped"});
  const runtime::Topology topo{2, 2, 2};
  for (const std::uint32_t rate : rates) {
    for (const std::uint32_t qps : qps_list) {
      for (const std::uint32_t batch_size : serve_batch_sizes) {
        if (rate == 0 && batch_size != serve_batch_sizes.front()) {
          continue;  // batch size is meaningless with no mutations
        }
        dynamic::DynamicGraph graph(make_list(scale, seed));
        runtime::Machine machine(topo);
        const graph::Partition1D partition = graph::Partition1D::block(
            graph.num_vertices(), machine.num_pes());

        server::ServiceConfig config;
        config.max_inflight = 3;
        config.cache_capacity = 32;
        server::QueryService service(machine, graph, partition, config);

        server::WorkloadConfig wl;
        wl.seed = seed + 7;
        wl.qps = static_cast<double>(qps);
        wl.num_queries = queries;
        wl.source_universe = 16;
        service.submit(server::generate_workload(wl, graph.num_vertices()));
        if (rate > 0) {
          server::MutationWorkloadConfig mw;
          mw.seed = seed + 13;
          mw.mutation_rate = static_cast<double>(rate);
          mw.batch_size = batch_size;
          // Cover the whole query stream's span with mutation traffic.
          const double span_s =
              static_cast<double>(queries) / static_cast<double>(qps);
          mw.num_batches = static_cast<std::uint64_t>(
              span_s * static_cast<double>(rate) /
                  static_cast<double>(batch_size) +
              1.0);
          service.submit_mutations(
              server::generate_mutation_stream(mw, graph.csr()));
        }
        service.run();

        const server::ServiceSummary s = service.summary();
        serving.add_row(
            {util::strformat("%u", rate), util::strformat("%u", qps),
             util::strformat("%u", batch_size),
             util::strformat("%.1f", s.p50_latency_us),
             util::strformat("%.1f", s.p95_latency_us),
             util::strformat("%.3f", s.cache_hit_rate),
             util::strformat("%llu", static_cast<unsigned long long>(
                                         s.cache_invalidations)),
             util::strformat("%llu", static_cast<unsigned long long>(
                                         s.repaired_queries)),
             util::strformat("%llu", static_cast<unsigned long long>(
                                         s.stale_hits_prevented)),
             util::strformat("%llu", static_cast<unsigned long long>(
                                         service.stale_results_dropped()))});
        if (s.completed != queries) {
          std::fprintf(stderr,
                       "FAIL: serving cell rate=%u qps=%u batch=%u "
                       "completed %llu of %llu queries\n",
                       rate, qps, batch_size,
                       static_cast<unsigned long long>(s.completed),
                       static_cast<unsigned long long>(queries));
          return 1;
        }
      }
    }
  }
  serving.print();
  bench::write_csv(serving, opts, "dynamic_mutation.csv");
  std::printf("ok\n");
  return 0;
}
