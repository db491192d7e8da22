// Wall-clock benchmark harness: times *host* seconds per solver × scale
// and emits BENCH_wallclock.json at the repo root (or --out PATH), so
// every PR leaves a perf trajectory behind.  Unlike the fig*/ablation
// harnesses (which report *simulated* time), this one measures how fast
// the discrete-event simulator itself runs — the number the hot-path
// work in src/runtime/ is accountable to.
//
//   ./build/bench/wallclock --scales 16,18 --trials 3
//   ./build/bench/wallclock --scale 18 --threads 1,2,4 --trials 3
//   ./build/bench/wallclock --scale 16 --reorder identity,degree_desc,bfs
//   ./build/bench/wallclock --scale 16 --storage mem,mmap
//   ./build/bench/wallclock --scale 16 --trials 3 --check BENCH_wallclock.json
//   (--check exits 3 on a >25% events/sec regression vs the checked file)
//
// --storage mem,mmap additionally runs every (identity-reorder) config
// against an mmap-backed view of the same graph: the CSR is written to
// the page-aligned on-disk format (src/graph/csr_file.hpp) once per
// scale, opened with graph::MappedCsr, and served to the solvers as is.
// The storage backend is invisible to the simulation, so every
// simulated-side field — checksums included — is diffed against the
// in-memory arm and any divergence exits 4.  Each result entry reports
// "storage" plus the process max-RSS / major-fault counters at emission
// time (getrusage high-water marks: monotone within the process, so
// cross-arm attribution belongs to ooc_smoke's per-process phases; the
// numbers here are honest upper bounds).
//
// Per (solver, scale, reorder, threads) the harness runs `trials`
// identical queries on fresh machines and reports best/mean wall
// seconds, events/sec and tasks/sec (scheduler throughput), plus the
// simulated-side invariants (sim time, update counts, an FNV-1a
// checksum over the distance bits) that must stay bit-identical across
// host-side optimizations — including across `--threads` values: the
// parallel engine is required to reproduce the serial schedule exactly,
// and the harness exits 4 (naming the diverging field and both values)
// if any thread count or repeat trial diverges.  Host-side engine
// diagnostics (effective thread count after the min(threads, nodes)
// clamp, window count, merge count) ride along per entry.
//
// COST gate (after "COST of Graph Processing Using Actors"): every
// config additionally reports `speedup_vs_sequential` against the tuned
// single-thread `sequential` solver on the same (relabeled) graph, and
// the JSON's per-scale `cost_gate` records the first configuration that
// beats one core — or null, honestly, if none does.
//
// --reorder runs each solver on relabeled copies of the graph
// (src/graph/reorder.hpp).  The permuted CSR is built *outside* the
// timed region, distances are inverse-permuted back to original labels
// before checksumming, and every non-identity mode is validated by
// exact distance equality against the identity run (exit 4 on
// violation).  Reordering legitimately changes the message schedule, so
// checksums/sim-times are NOT expected to match across modes — only the
// distances.  Per mode, one extra untimed registry-instrumented run
// collects the per-locality-tier net/* counters so the simulated
// inter-node traffic delta is visible per solver × graph × mode.
//
// A `pre_pr` object already present in the output file is carried
// forward, preserving the before/after record the ISSUE asks for.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/graph/csr.hpp"
#include "src/graph/csr_file.hpp"
#include "src/graph/mapped_csr.hpp"
#include "src/graph/reorder.hpp"
#include "src/obs/registry.hpp"
#include "src/sssp/solver.hpp"
#include "src/stats/experiment.hpp"

namespace {

using namespace acic;

struct Sample {
  double wall_best_s = 0.0;
  double wall_mean_s = 0.0;
  std::uint64_t events = 0;  // heap pops in Machine::run
  std::uint64_t tasks = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double sim_time_us = 0.0;
  std::uint64_t updates_created = 0;
  std::uint64_t cycles = 0;
  std::uint64_t dist_checksum = 0;
  /// Host-side engine diagnostics — reported, never diffed: the thread
  /// count legitimately varies them.
  unsigned threads_used = 1;
  std::uint64_t windows = 0;
  std::uint64_t window_merges = 0;
  /// Distances in *original* labels (inverse-permuted when the run used
  /// a reordered graph) — the cross-mode equality reference.
  std::vector<graph::Dist> dist;
};

/// FNV-1a over the raw distance bits: any behavioural drift in the
/// simulation shows up here before anything else.
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

using bench::FieldDiff;

std::string u64_str(std::uint64_t v) { return std::to_string(v); }
std::string hex_str(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}
std::string f_str(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", v);
  return buf;
}

/// Field-by-field comparison of the simulated-side invariants.
/// `compare_events` is off for cross-thread checks: per-shard idle polls
/// make the heap-pop count an engine detail, not a schedule invariant.
std::vector<FieldDiff> diff_samples(const Sample& a, const Sample& b,
                                    bool compare_events) {
  std::vector<FieldDiff> diffs;
  if (a.dist_checksum != b.dist_checksum) {
    diffs.push_back({"dist_checksum", hex_str(a.dist_checksum),
                     hex_str(b.dist_checksum)});
  }
  if (a.sim_time_us != b.sim_time_us) {
    diffs.push_back({"sim_time_us", f_str(a.sim_time_us),
                     f_str(b.sim_time_us)});
  }
  if (a.tasks != b.tasks) {
    diffs.push_back({"tasks", u64_str(a.tasks), u64_str(b.tasks)});
  }
  if (a.messages != b.messages) {
    diffs.push_back({"messages", u64_str(a.messages), u64_str(b.messages)});
  }
  if (a.bytes != b.bytes) {
    diffs.push_back({"bytes", u64_str(a.bytes), u64_str(b.bytes)});
  }
  if (a.updates_created != b.updates_created) {
    diffs.push_back({"updates_created", u64_str(a.updates_created),
                     u64_str(b.updates_created)});
  }
  if (a.cycles != b.cycles) {
    diffs.push_back({"cycles", u64_str(a.cycles), u64_str(b.cycles)});
  }
  if (compare_events && a.events != b.events) {
    diffs.push_back({"events", u64_str(a.events), u64_str(b.events)});
  }
  return diffs;
}

// Divergence reporting (exit 4) lives in bench_common.hpp now:
// bench::die_divergence prints every diverging field plus the host-side
// diagnostic fields the comparison deliberately excludes.
using bench::die_divergence;

/// Runs `trials` identical queries of `solver` on `csr` (already
/// relabeled when `remap` is set; the source is mapped in and the
/// distances mapped back out, so Sample::dist and the checksum are in
/// original labels regardless of mode).
Sample run_one(const std::string& solver, const stats::ExperimentSpec& spec,
               const graph::Csr& csr, const graph::Remap* remap,
               std::uint32_t trials, unsigned threads) {
  Sample sample;
  sample.wall_best_s = 1e300;
  const graph::VertexId source =
      remap != nullptr ? remap->map_vertex(spec.source) : spec.source;
  for (std::uint32_t trial = 0; trial < trials; ++trial) {
    runtime::Machine machine(spec.topology());
    machine.set_threads(threads);
    const auto start = std::chrono::steady_clock::now();
    sssp::SolverRun run = sssp::run_solver(solver, machine, csr, source);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    sample.wall_best_s = std::min(sample.wall_best_s, wall.count());
    sample.wall_mean_s += wall.count() / static_cast<double>(trials);

    // Every trial replays the identical simulation, so the simulated-side
    // numbers are recorded once and cross-checked on the repeats.
    Sample now;
    for (runtime::PeId p = 0; p < machine.num_pes(); ++p) {
      now.tasks += machine.pe_tasks_run(p);
    }
    now.events = machine.total_events_processed();
    now.messages = machine.total_messages_sent();
    now.bytes = machine.total_bytes_sent();
    now.sim_time_us = run.sssp.metrics.sim_time_us;
    now.updates_created = run.sssp.metrics.updates_created;
    now.cycles = run.telemetry.cycles;
    now.threads_used = machine.last_threads_used();
    now.windows = machine.total_windows();
    now.window_merges = machine.total_window_merges();
    std::vector<graph::Dist> dist =
        remap != nullptr ? remap->unmap_distances(run.sssp.dist)
                         : std::move(run.sssp.dist);
    now.dist_checksum = checksum_distances(dist);
    if (trial == 0) {
      const double wall_best = sample.wall_best_s;
      const double wall_mean = sample.wall_mean_s;
      sample = std::move(now);
      sample.wall_best_s = wall_best;
      sample.wall_mean_s = wall_mean;
      sample.dist = std::move(dist);
    } else {
      const auto diffs = diff_samples(sample, now, /*compare_events=*/true);
      if (!diffs.empty()) {
        die_divergence("nondeterminism! " + solver + " trial " +
                           std::to_string(trial) + " vs trial 0",
                       diffs);
      }
    }
  }
  return sample;
}

/// Per-locality-tier traffic, from one extra untimed serial run with an
/// observability registry attached (src/obs/ publishes net/* counters by
/// tier; Machine itself only tracks totals).  The registry-equivalence
/// tests pin these counts to the uninstrumented run's behaviour.
struct TierTraffic {
  std::uint64_t messages_self = 0;
  std::uint64_t messages_intra_process = 0;
  std::uint64_t messages_intra_node = 0;
  std::uint64_t messages_inter_node = 0;
  std::uint64_t bytes_self = 0;
  std::uint64_t bytes_intra_process = 0;
  std::uint64_t bytes_intra_node = 0;
  std::uint64_t bytes_inter_node = 0;
};

TierTraffic collect_tiers(const std::string& solver,
                          const stats::ExperimentSpec& spec,
                          const graph::Csr& csr,
                          const graph::Remap* remap) {
  runtime::Machine machine(spec.topology());
  obs::Registry registry(machine.topology());
  sssp::SolverOptions opts;
  opts.registry = &registry;
  const graph::VertexId source =
      remap != nullptr ? remap->map_vertex(spec.source) : spec.source;
  sssp::run_solver(solver, machine, csr, source, opts);
  TierTraffic t;
  t.messages_self = registry.total("net/messages_self");
  t.messages_intra_process = registry.total("net/messages_intra_process");
  t.messages_intra_node = registry.total("net/messages_intra_node");
  t.messages_inter_node = registry.total("net/messages_inter_node");
  t.bytes_self = registry.total("net/bytes_self");
  t.bytes_intra_process = registry.total("net/bytes_intra_process");
  t.bytes_intra_node = registry.total("net/bytes_intra_node");
  t.bytes_inter_node = registry.total("net/bytes_inter_node");
  return t;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Extracts the balanced-brace object following `"key":` in `text`; empty
/// string if absent.  Enough JSON for our own self-produced files.
std::string extract_object(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return {};
  std::size_t open = text.find('{', at + needle.size());
  if (open == std::string::npos) return {};
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}' && --depth == 0) {
      return text.substr(open, i - open + 1);
    }
  }
  return {};
}

///// Finds `"events_per_sec": <num>` inside the results entry for
/// (solver, scale, threads); falls back to the pre-threads entry format
/// (no "threads" field) so old baseline files stay checkable.  The
/// search starts at the last top-level `"results"` array so an embedded
/// `pre_pr` record (whose entries now carry the same fields) is never
/// matched.  With --reorder, identity entries are emitted first per
/// (solver, scale, threads), so the first match — and thus the
/// regression gate — always compares identity against identity.  0.0
/// if absent.
double find_events_per_sec(const std::string& text, const std::string& solver,
                           std::uint32_t scale, unsigned threads) {
  std::size_t from = text.rfind("\"results\": [");
  if (from == std::string::npos) from = 0;
  const std::string base_key =
      "\"solver\": \"" + solver + "\", \"scale\": " + std::to_string(scale);
  std::size_t at = text.find(
      base_key + ", \"threads\": " + std::to_string(threads), from);
  if (at == std::string::npos) at = text.find(base_key, from);
  if (at == std::string::npos) return 0.0;
  const std::string field = "\"events_per_sec\": ";
  const std::size_t f = text.find(field, at);
  if (f == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + f + field.size(), nullptr);
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) out.push_back(tok);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts;
  opts.parse(argc, argv);

  std::vector<std::uint32_t> scales{16};
  if (opts.has("scales")) {
    scales = bench::parse_list(opts.get("scales", ""), "scales");
  } else if (opts.has("scale")) {
    scales = {static_cast<std::uint32_t>(opts.get_int("scale", 16))};
  }
  const auto trials =
      static_cast<std::uint32_t>(opts.get_int("trials", 3));
  const std::string solvers_csv =
      opts.get("solvers", "acic,delta_stepping_dist,kla");
  const std::string out_path = opts.get("out", "BENCH_wallclock.json");
  std::vector<unsigned> threads_list{1};
  if (opts.has("threads")) {
    threads_list =
        bench::parse_threads_list(opts.get("threads", ""), "threads");
  }
  // Storage backends.  "mem" is the in-memory Csr the harness always
  // built; "mmap" re-runs identity-reorder configs on a MappedCsr view
  // of the on-disk file, diffing every simulated field against the
  // in-memory arm.
  std::vector<std::string> storage_modes =
      split_csv(opts.get("storage", "mem"));
  if (storage_modes.empty()) storage_modes.push_back("mem");
  bool want_mmap = false;
  for (const std::string& s : storage_modes) {
    if (s != "mem" && s != "mmap") {
      std::fprintf(stderr, "wallclock: unknown --storage '%s'\n", s.c_str());
      return 2;
    }
    want_mmap |= s == "mmap";
  }

  const std::vector<std::string> solvers = split_csv(solvers_csv);
  for (const std::string& solver : solvers) {
    if (!sssp::has_solver(solver)) {
      std::fprintf(stderr, "wallclock: unknown solver '%s'\n",
                   solver.c_str());
      return 2;
    }
  }

  // Reorder modes.  Identity always runs (first) when any other mode is
  // requested: it is both the gate's baseline and the distance-equality
  // reference every relabeled run is validated against.
  std::vector<graph::ReorderMode> reorder_modes;
  for (const std::string& name :
       split_csv(opts.get("reorder", "identity"))) {
    reorder_modes.push_back(graph::reorder_mode_from_string(name));
  }
  if (reorder_modes.empty()) {
    reorder_modes.push_back(graph::ReorderMode::kIdentity);
  }
  if (std::find(reorder_modes.begin(), reorder_modes.end(),
                graph::ReorderMode::kIdentity) == reorder_modes.end()) {
    reorder_modes.insert(reorder_modes.begin(),
                         graph::ReorderMode::kIdentity);
  }
  const bool multi_mode = reorder_modes.size() > 1;

  stats::ExperimentSpec base;
  base.graph = stats::graph_kind_from_string(opts.get("graph", "random"));
  base.edge_factor =
      static_cast<std::uint32_t>(opts.get_int("edge-factor", 16));
  base.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  base.nodes = static_cast<std::uint32_t>(opts.get_int("nodes", 2));

  const std::string previous = slurp(out_path);
  const std::string pre_pr = extract_object(previous, "pre_pr");
  // The out-of-core scale-24 record is produced by bench/ooc_smoke
  // (separate processes; see docs/out-of-core.md) and spliced into this
  // file; carry it forward like pre_pr so sweep reruns keep it.
  const std::string ooc_record = extract_object(previous, "ooc_scale24");

  std::string results;
  std::string cost_gate;
  std::printf("wallclock: trials=%u nodes=%u solvers=%s host_cores=%u\n",
              trials, base.nodes, solvers_csv.c_str(),
              std::thread::hardware_concurrency());
  for (const std::uint32_t scale : scales) {
    stats::ExperimentSpec spec = base;
    spec.scale = scale;
    // Build once per scale with the largest requested thread count: the
    // chunked generators produce the identical graph at any value.
    spec.threads = threads_list.back();
    const graph::Csr csr = stats::build_graph(spec);
    std::printf("scale %u: |V|=%u |E|=%llu\n", scale, csr.num_vertices(),
                static_cast<unsigned long long>(csr.num_edges()));

    // mmap arm: write the on-disk CSR once per scale (outside every
    // timed region) and map it for the sweep below.
    std::string csr_file_path;
    std::unique_ptr<graph::MappedCsr> mapped;
    if (want_mmap) {
      csr_file_path = out_path + ".scale" + std::to_string(scale) + ".oocsr";
      if (!graph::write_csr_file(csr, csr_file_path)) {
        std::fprintf(stderr, "wallclock: cannot write %s\n",
                     csr_file_path.c_str());
        return 2;
      }
      mapped = std::make_unique<graph::MappedCsr>(csr_file_path);
    }

    // Relabeled copies, built once per scale outside every timed region
    // so reordered wall numbers measure the solver, not the relabel.
    std::vector<std::unique_ptr<graph::Remap>> remaps(reorder_modes.size());
    for (std::size_t m = 0; m < reorder_modes.size(); ++m) {
      if (reorder_modes[m] != graph::ReorderMode::kIdentity) {
        remaps[m] = std::make_unique<graph::Remap>(
            csr, reorder_modes[m], threads_list.back());
      }
    }

    // COST baseline (per reorder mode, since relabeling changes the
    // sequential solver's cache behaviour too): the tuned single-thread
    // `sequential` solver on the same graph.  Every config below reports
    // its speedup against this number.
    std::vector<double> seq_wall(reorder_modes.size(), 0.0);
    std::vector<graph::Dist> seq_identity_dist;
    for (std::size_t m = 0; m < reorder_modes.size(); ++m) {
      const Sample s =
          run_one("sequential", spec, remaps[m] ? remaps[m]->csr() : csr,
                  remaps[m].get(), trials, 1);
      seq_wall[m] = s.wall_best_s;
      if (reorder_modes[m] == graph::ReorderMode::kIdentity) {
        seq_identity_dist = s.dist;
      } else if (s.dist != seq_identity_dist) {
        std::fprintf(stderr,
                     "wallclock: sequential baseline diverged under "
                     "reorder=%s\n",
                     graph::reorder_mode_name(reorder_modes[m]));
        return 4;
      }
      std::printf("  %-20s %s t=1  wall=%.3fs (COST baseline)\n",
                  "sequential", multi_mode
                      ? graph::reorder_mode_name(reorder_modes[m]) : "",
                  seq_wall[m]);
    }
    // First config in emission order that beats one core, per scale.
    std::string first_beats;
    double first_beats_speedup = 0.0;

    for (const std::string& solver : solvers) {
      std::vector<graph::Dist> identity_dist;
      for (std::size_t m = 0; m < reorder_modes.size(); ++m) {
        const graph::ReorderMode mode = reorder_modes[m];
        const char* mode_name = graph::reorder_mode_name(mode);
        const graph::Remap* remap = remaps[m].get();
        const graph::Csr& run_csr =
            remap != nullptr ? remap->csr() : csr;

        const TierTraffic tiers =
            collect_tiers(solver, spec, run_csr, remap);

        Sample reference;
        bool have_reference = false;
        for (const std::string& storage : storage_modes) {
        const bool is_mmap = storage == "mmap";
        // Relabeled graphs are freshly built in-memory copies by
        // construction; the mmap arm only covers identity ordering.
        if (is_mmap && mode != graph::ReorderMode::kIdentity) continue;
        const graph::Csr& sweep_csr = is_mmap ? mapped->csr() : run_csr;
        const char* storage_tag =
            storage_modes.size() > 1 ? (is_mmap ? "mmap " : "mem  ") : "";
        double wall_1thread = -1.0;
        for (const unsigned threads : threads_list) {
          const char* engine_name = threads == 1 ? "serial" : "parallel";
          Sample s =
              run_one(solver, spec, sweep_csr, remap, trials, threads);
          if (!have_reference) {
            reference = std::move(s);
            have_reference = true;
            // Validate the reorder half: distances mapped back to
            // original labels must match the identity run exactly.
            if (mode == graph::ReorderMode::kIdentity) {
              identity_dist = reference.dist;
            } else {
              for (std::size_t v = 0; v < identity_dist.size(); ++v) {
                if (reference.dist[v] != identity_dist[v]) {
                  std::fprintf(
                      stderr,
                      "wallclock: %s reorder=%s: distance diverged at "
                      "vertex %zu (%.17g vs identity %.17g)\n",
                      solver.c_str(), mode_name, v, reference.dist[v],
                      identity_dist[v]);
                  std::exit(4);
                }
              }
            }
          } else {
            const auto diffs =
                diff_samples(s, reference, /*compare_events=*/false);
            if (!diffs.empty()) {
              die_divergence(solver + " reorder=" + mode_name +
                                 " storage=" + storage + " at " +
                                 std::to_string(threads) +
                                 " threads vs first thread count",
                             diffs);
            }
            // The mmap arm additionally pins elementwise distance
            // equality (the checksum already implies it bit-for-bit;
            // this makes the acceptance property explicit and names the
            // first diverging vertex if it ever fails).
            if (is_mmap && s.dist != reference.dist) {
              std::fprintf(stderr,
                           "wallclock: %s storage=mmap: distances "
                           "diverged from in-memory run\n",
                           solver.c_str());
              std::exit(4);
            }
            reference.wall_best_s = s.wall_best_s;
            reference.wall_mean_s = s.wall_mean_s;
            reference.threads_used = s.threads_used;
            reference.windows = s.windows;
            reference.window_merges = s.window_merges;
          }
          const Sample& cur = reference;
          if (threads == 1) wall_1thread = cur.wall_best_s;
          // Speedup is only meaningful when the sweep includes a
          // 1-thread reference (e.g. the scale-22 CI step runs
          // --threads 4 alone).
          char speedup_text[32];
          char speedup_json[32];
          if (wall_1thread > 0.0) {
            const double speedup = wall_1thread / cur.wall_best_s;
            std::snprintf(speedup_text, sizeof(speedup_text), "%.2f",
                          speedup);
            std::snprintf(speedup_json, sizeof(speedup_json), "%.3f",
                          speedup);
          } else {
            std::snprintf(speedup_text, sizeof(speedup_text), "n/a");
            std::snprintf(speedup_json, sizeof(speedup_json), "null");
          }
          // The COST column: wall time against the tuned single-thread
          // sequential solver on the same (relabeled) graph.
          const double vs_seq = seq_wall[m] / cur.wall_best_s;
          if (first_beats.empty() && solver != "sequential" && !is_mmap &&
              vs_seq > 1.0) {
            first_beats = solver + " t=" + std::to_string(threads) +
                          " reorder=" + mode_name;
            first_beats_speedup = vs_seq;
          }
          const double events_per_sec =
              static_cast<double>(cur.events) / cur.wall_best_s;
          const double tasks_per_sec =
              static_cast<double>(cur.tasks) / cur.wall_best_s;
          std::printf(
              "  %-20s %s%s t=%u(eff %u) %-8s wall=%.3fs (best of %u)  "
              "%.3gM events/s  speedup=%s  vs_seq=%.2f  windows=%llu  "
              "sim=%.0fus  checksum=%016" PRIx64 "\n",
              solver.c_str(), multi_mode ? mode_name : "", storage_tag,
              threads, cur.threads_used, engine_name, cur.wall_best_s,
              trials, events_per_sec * 1e-6, speedup_text, vs_seq,
              static_cast<unsigned long long>(cur.windows),
              cur.sim_time_us, cur.dist_checksum);
          std::fflush(stdout);

          const bench::ResourceUsage rss = bench::resource_usage();
          char entry[2560];
          std::snprintf(
              entry, sizeof(entry),
              "    {\"solver\": \"%s\", \"scale\": %u, \"threads\": %u, "
              "\"threads_effective\": %u, "
              "\"reorder\": \"%s\", \"storage\": \"%s\", "
              "\"max_rss_bytes\": %llu, \"major_faults\": %llu, "
              "\"wall_seconds_best\": %.6f, \"wall_seconds_mean\": %.6f, "
              "\"events\": %llu, \"tasks\": %llu, \"messages\": %llu, "
              "\"bytes\": %llu, \"events_per_sec\": %.1f, "
              "\"tasks_per_sec\": %.1f, \"speedup_vs_1thread\": %s, "
              "\"speedup_vs_sequential\": %.3f, "
              "\"windows\": %llu, \"window_merges\": %llu, "
              "\"sim_time_us\": %.6f, "
              "\"updates_created\": %llu, \"cycles\": %llu, "
              "\"messages_inter_node\": %llu, "
              "\"bytes_inter_node\": %llu, "
              "\"messages_intra_node\": %llu, "
              "\"bytes_intra_node\": %llu, "
              "\"messages_intra_process\": %llu, "
              "\"bytes_intra_process\": %llu, "
              "\"dist_checksum\": \"%016" PRIx64 "\"}",
              solver.c_str(), scale, threads, cur.threads_used, mode_name, storage.c_str(),
              static_cast<unsigned long long>(rss.max_rss_bytes),
              static_cast<unsigned long long>(rss.major_faults),
              cur.wall_best_s,
              cur.wall_mean_s, static_cast<unsigned long long>(cur.events),
              static_cast<unsigned long long>(cur.tasks),
              static_cast<unsigned long long>(cur.messages),
              static_cast<unsigned long long>(cur.bytes), events_per_sec,
              tasks_per_sec, speedup_json, vs_seq,
              static_cast<unsigned long long>(cur.windows),
              static_cast<unsigned long long>(cur.window_merges),
              cur.sim_time_us,
              static_cast<unsigned long long>(cur.updates_created),
              static_cast<unsigned long long>(cur.cycles),
              static_cast<unsigned long long>(tiers.messages_inter_node),
              static_cast<unsigned long long>(tiers.bytes_inter_node),
              static_cast<unsigned long long>(tiers.messages_intra_node),
              static_cast<unsigned long long>(tiers.bytes_intra_node),
              static_cast<unsigned long long>(tiers.messages_intra_process),
              static_cast<unsigned long long>(tiers.bytes_intra_process),
              cur.dist_checksum);
          if (!results.empty()) results += ",\n";
          results += entry;
        }
        }  // storage arms
        if (multi_mode) {
          std::printf(
              "  %-20s %s tiers: inter-node %llu msgs / %.2f MB, "
              "intra-node %llu msgs, intra-process %llu msgs\n",
              solver.c_str(), mode_name,
              static_cast<unsigned long long>(tiers.messages_inter_node),
              static_cast<double>(tiers.bytes_inter_node) * 1e-6,
              static_cast<unsigned long long>(tiers.messages_intra_node),
              static_cast<unsigned long long>(tiers.messages_intra_process));
        }
      }
    }

    // Per-scale COST verdict: name the first configuration that beat
    // the tuned single-thread sequential solver — or admit none did.
    char gate[768];
    if (!first_beats.empty()) {
      std::printf("  COST gate: first config beating sequential: %s "
                  "(%.2fx)\n",
                  first_beats.c_str(), first_beats_speedup);
      std::snprintf(
          gate, sizeof(gate),
          "    {\"scale\": %u, \"sequential_wall_seconds\": %.6f, "
          "\"first_config_beating_sequential\": \"%s\", "
          "\"speedup\": %.3f}",
          scale, seq_wall[0], first_beats.c_str(), first_beats_speedup);
    } else {
      std::printf("  COST gate: no config beats the sequential solver "
                  "on this host (%u cores)\n",
                  std::thread::hardware_concurrency());
      std::snprintf(
          gate, sizeof(gate),
          "    {\"scale\": %u, \"sequential_wall_seconds\": %.6f, "
          "\"first_config_beating_sequential\": null}",
          scale, seq_wall[0]);
    }
    if (!cost_gate.empty()) cost_gate += ",\n";
    cost_gate += gate;

    if (mapped != nullptr) {
      mapped.reset();  // unmap before unlinking
      std::remove(csr_file_path.c_str());
    }
  }

  std::string json = "{\n  \"benchmark\": \"wallclock\",\n";
  json += "  \"trials\": " + std::to_string(trials) + ",\n";
  json += "  \"nodes\": " + std::to_string(base.nodes) + ",\n";
  json += "  \"edge_factor\": " + std::to_string(base.edge_factor) + ",\n";
  json += "  \"seed\": " + std::to_string(base.seed) + ",\n";
  json += "  \"host_cores\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  if (!pre_pr.empty()) json += "  \"pre_pr\": " + pre_pr + ",\n";
  if (!ooc_record.empty()) {
    json += "  \"ooc_scale24\": " + ooc_record + ",\n";
  }
  json += "  \"cost_gate\": [\n" + cost_gate + "\n  ],\n";
  json += "  \"results\": [\n" + results + "\n  ]\n}\n";

  // Regression gate: compare events/sec for --check-solver at the first
  // measured scale against a previously committed BENCH_wallclock.json.
  if (opts.has("check")) {
    const std::string baseline = slurp(opts.get("check", ""));
    if (baseline.empty()) {
      std::fprintf(stderr, "wallclock: cannot read baseline %s\n",
                   opts.get("check", "").c_str());
      return 2;
    }
    const std::string solver = opts.get("check-solver", "acic");
    const std::uint32_t scale = scales.front();
    const unsigned check_threads = threads_list.front();
    const double tolerance = opts.get_double("max-regress", 0.25);
    const double before =
        find_events_per_sec(baseline, solver, scale, check_threads);
    const double after =
        find_events_per_sec(json, solver, scale, check_threads);
    if (before > 0.0 && after < before * (1.0 - tolerance)) {
      std::fprintf(stderr,
                   "wallclock: %s events/sec regressed %.1f%% at scale %u "
                   "(%.0f -> %.0f, tolerance %.0f%%)\n",
                   solver.c_str(), 100.0 * (1.0 - after / before), scale,
                   before, after, tolerance * 100.0);
      return 3;
    }
    std::printf("regression check ok: %s %.0f -> %.0f events/sec\n",
                solver.c_str(), before, after);
  }

  std::ofstream out(out_path, std::ios::binary);
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
