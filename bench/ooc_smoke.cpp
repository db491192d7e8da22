// Out-of-core smoke driver: each invocation does ONE phase in its own
// process, so getrusage max-RSS honestly measures that phase alone
// (unlike the in-process sweeps in wallclock, where the high-water mark
// is monotone across configs).  Three modes:
//
//   --mode build     stream-generate the workload graph straight into
//                    the page-aligned on-disk CSR (src/graph/csr_file.hpp)
//                    via StreamingCsrWriter.  The full edge list is never
//                    materialized: edges flow generator -> bounded chunk
//                    -> sorted spill run -> k-way merge, so peak RSS is
//                    O(chunk + merge buffers), not O(|E|).
//   --mode solve     mmap the file (graph::MappedCsr), run --solver, and
//                    print OOC_CHECKSUM=<fnv64 over distance bits>.
//   --mode memsolve  build the same graph in memory (stats::build_graph)
//                    and solve — the reference arm.  Prints the same
//                    OOC_CHECKSUM line.
//
// The streamed file holds the identical edge multiset as the in-memory
// build (the stream_* generators replay the same per-chunk RNG draws),
// and the storage backend is invisible to the simulation, so the two
// checksums must match bit for bit.  `--expect-checksum HEX` makes the
// process itself the gate: exit 5 on divergence.  CI runs build + solve
// under `ulimit -v` below the in-memory footprint and memsolve without
// a limit, then diffs the checksum lines.
//
//   ./build/bench/ooc_smoke --mode build --scale 22 --file g.oocsr
//   ./build/bench/ooc_smoke --mode memsolve --scale 22
//   ./build/bench/ooc_smoke --mode solve --file g.oocsr --expect-checksum HEX
//
// All modes print MAX_RSS_BYTES= / MAJOR_FAULTS= lines for the scripts
// around them.

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/graph/csr.hpp"
#include "src/graph/csr_file.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/mapped_csr.hpp"
#include "src/sssp/solver.hpp"
#include "src/stats/experiment.hpp"

namespace {

using namespace acic;

/// Same FNV-1a over raw distance bits as bench/wallclock.cpp: the two
/// harnesses must agree on the value so their checksums are comparable.
std::uint64_t checksum_distances(const std::vector<graph::Dist>& dist) {
  std::uint64_t h = 1469598103934665603ull;
  for (const graph::Dist d : dist) {
    std::uint64_t bits = 0;
    static_assert(sizeof(d) == sizeof(bits));
    std::memcpy(&bits, &d, sizeof(bits));
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (bits >> shift) & 0xffull;
      h *= 1099511628211ull;
    }
  }
  return h;
}

void print_usage() {
  const bench::ResourceUsage rss = bench::resource_usage();
  std::printf("MAX_RSS_BYTES=%llu\nMAJOR_FAULTS=%llu\n",
              static_cast<unsigned long long>(rss.max_rss_bytes),
              static_cast<unsigned long long>(rss.major_faults));
}

graph::GenParams gen_params(const util::Options& opts) {
  graph::GenParams params;
  const auto scale =
      static_cast<std::uint32_t>(opts.get_int("scale", 20));
  params.num_vertices = graph::VertexId{1} << scale;
  params.num_edges =
      static_cast<std::uint64_t>(opts.get_int("edge-factor", 16)) *
      params.num_vertices;
  params.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  return params;
}

int run_build(const util::Options& opts) {
  const std::string path = opts.get("file", "graph.oocsr");
  const std::string kind = opts.get("graph", "random");
  const graph::GenParams params = gen_params(opts);
  graph::StreamingCsrWriter::Options wopts;
  wopts.chunk_edges = static_cast<std::uint64_t>(
      opts.get_int("chunk-edges", 1 << 22));
  wopts.threads = static_cast<unsigned>(opts.get_int("threads", 1));
  wopts.tmp_dir = opts.get("tmp-dir", "");

  const auto start = std::chrono::steady_clock::now();
  graph::StreamingCsrWriter writer(path, params.num_vertices, wopts);
  const graph::EdgeSink sink = [&writer](std::span<const graph::Edge> e) {
    writer.add(e);
  };
  if (kind == "random") {
    graph::stream_uniform_random(params, sink);
  } else if (kind == "rmat") {
    graph::stream_rmat(params, sink);
  } else {
    std::fprintf(stderr,
                 "ooc_smoke: --graph must be random or rmat for the "
                 "streamed build (got '%s')\n",
                 kind.c_str());
    return 2;
  }
  const std::uint64_t edges = writer.num_edges_added();
  const std::size_t runs = writer.num_runs();
  if (!writer.finish()) {
    std::fprintf(stderr, "ooc_smoke: streaming build failed for %s\n",
                 path.c_str());
    return 2;
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;

  graph::CsrFileHeader header;
  if (!graph::probe_csr_file(path, &header)) {
    std::fprintf(stderr, "ooc_smoke: built file fails probe: %s\n",
                 path.c_str());
    return 2;
  }
  std::printf("built %s: |V|=%llu |E|=%llu runs=%zu wall=%.1fs\n",
              path.c_str(),
              static_cast<unsigned long long>(header.num_vertices),
              static_cast<unsigned long long>(edges), runs, wall.count());
  std::printf("FILE_BYTES=%llu\n",
              static_cast<unsigned long long>(header.neighbors_pos +
                                              header.neighbors_bytes));
  print_usage();
  return 0;
}

/// Shared solve tail: run `solver`, print the checksum + usage lines,
/// enforce --expect-checksum.
int solve_and_report(const util::Options& opts, const graph::Csr& csr) {
  const std::string solver = opts.get("solver", "acic");
  if (!sssp::has_solver(solver)) {
    std::fprintf(stderr, "ooc_smoke: unknown solver '%s'\n", solver.c_str());
    return 2;
  }
  stats::ExperimentSpec spec;
  spec.nodes = static_cast<std::uint32_t>(opts.get_int("nodes", 2));
  runtime::Machine machine(spec.topology());
  machine.set_threads(static_cast<unsigned>(opts.get_int("threads", 1)));
  const auto source =
      static_cast<graph::VertexId>(opts.get_int("source", 0));

  const auto start = std::chrono::steady_clock::now();
  sssp::SolverRun run = sssp::run_solver(solver, machine, csr, source);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;

  const std::uint64_t checksum = checksum_distances(run.sssp.dist);
  std::printf("%s: wall=%.1fs sim=%.0fus updates=%llu\n", solver.c_str(),
              wall.count(), run.sssp.metrics.sim_time_us,
              static_cast<unsigned long long>(
                  run.sssp.metrics.updates_created));
  std::printf("OOC_CHECKSUM=%016" PRIx64 "\n", checksum);
  print_usage();

  const std::string expect = opts.get("expect-checksum", "");
  if (!expect.empty()) {
    const std::uint64_t want = std::strtoull(expect.c_str(), nullptr, 16);
    if (want != checksum) {
      std::fprintf(stderr,
                   "ooc_smoke: checksum divergence: got %016" PRIx64
                   ", expected %016" PRIx64 "\n",
                   checksum, want);
      return 5;
    }
    std::printf("checksum matches expected value\n");
  }
  return 0;
}

int run_solve(const util::Options& opts) {
  const std::string path = opts.get("file", "graph.oocsr");
  std::unique_ptr<graph::MappedCsr> mapped;
  try {
    mapped = std::make_unique<graph::MappedCsr>(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ooc_smoke: %s\n", e.what());
    return 2;
  }
  std::printf("mapped %s: |V|=%u |E|=%llu mapping=%llu bytes\n",
              path.c_str(), mapped->num_vertices(),
              static_cast<unsigned long long>(mapped->num_edges()),
              static_cast<unsigned long long>(mapped->mapping_bytes()));

  return solve_and_report(opts, mapped->csr());
}

int run_memsolve(const util::Options& opts) {
  stats::ExperimentSpec spec;
  spec.graph = stats::graph_kind_from_string(opts.get("graph", "random"));
  spec.scale = static_cast<std::uint32_t>(opts.get_int("scale", 20));
  spec.edge_factor =
      static_cast<std::uint32_t>(opts.get_int("edge-factor", 16));
  spec.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  spec.threads = static_cast<unsigned>(opts.get_int("threads", 1));
  const graph::Csr csr = stats::build_graph(spec);
  std::printf("built in memory: |V|=%u |E|=%llu\n", csr.num_vertices(),
              static_cast<unsigned long long>(csr.num_edges()));
  return solve_and_report(opts, csr);
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts;
  opts.parse(argc, argv);
  const std::string mode = opts.get("mode", "build");
  if (mode == "build") return run_build(opts);
  if (mode == "solve") return run_solve(opts);
  if (mode == "memsolve") return run_memsolve(opts);
  std::fprintf(stderr,
               "ooc_smoke: --mode must be build, solve or memsolve "
               "(got '%s')\n",
               mode.c_str());
  return 2;
}
