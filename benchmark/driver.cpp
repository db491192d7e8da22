// Repository benchmark driver.  It times calls into the library's public
// functions from outside, checks every answer against sequential
// Dijkstra, and prints the metrics BENCHMARK.json names: first as
// `name value unit` lines, then, as the last line of stdout, one JSON
// object {correct, attempted, failed, metrics}.
//
//   acic_benchmark --workload rmat16 [--seed N] [--seconds S]
//                  [--trace 0|1] [--smoke] [--out-dir DIR]
//
// Every workload runs the same five solve arms on its own graph,
// interleaved per source: Dijkstra (the reference and the COST
// baseline), acic at 4 host threads, acic at 1, delta_stepping_dist at
// 4, and acic at 1 on an mmap view of the graph evicted from the page
// cache before each solve.  The serve-* workloads then drive a
// QueryService over an open-loop query stream (and, for serve-churn, a
// mutation stream), repeated on fresh services until the time is up.
// benchmark/README.md gives the reason for each workload and metric.
//
// --trace 1 prints the per-layer metrics instead and writes, into the
// output directory, trace-<workload>.json (Chrome trace of the spans
// around every call) and layers-<workload>.json (self time per layer).

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchmark/host_speed.hpp"
#include "benchmark/spans.hpp"
#include "src/dynamic/dynamic_graph.hpp"
#include "src/graph/csr.hpp"
#include "src/graph/csr_file.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/mapped_csr.hpp"
#include "src/graph/partition.hpp"
#include "src/graph/validate.hpp"
#include "src/obs/registry.hpp"
#include "src/runtime/machine.hpp"
#include "src/server/service.hpp"
#include "src/server/workload.hpp"
#include "src/sssp/solver.hpp"
#include "src/stats/experiment.hpp"

namespace {

using namespace acic;
using bench::SpanLog;

/// A solve still running after this much simulated time counts as failed.
constexpr runtime::SimTime kSimTimeLimitUs = 1e9;
/// Host threads of the parallel arms: one per core of the 4-vCPU VM the
/// bounds were fixed on.
constexpr unsigned kThreads = 4;
/// Share of --seconds the serve-* workloads give the solve arms; the
/// serving repetitions take the rest.
constexpr double kServeArmShare = 0.3;
/// Set-ups per static run (their median is setup_s).
constexpr std::size_t kStaticSetups = 5;
/// Serving repetitions per serve-* run, at least; each sets up afresh.
constexpr std::size_t kMinServeReps = 3;
/// Serving runs advance in slices of this much simulated time.
constexpr runtime::SimTime kServeSliceUs = 100'000.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = "build-bench/results";
  std::string log;  // JSON-lines file each run appends its details to
};

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "acic_benchmark: %s\n", message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + key);
      return argv[++i];
    };
    try {
      if (key == "--workload") {
        a.workload = value();
      } else if (key == "--seed") {
        a.seed = std::stoull(value());
      } else if (key == "--seconds") {
        a.seconds = std::stod(value());
      } else if (key == "--trace") {
        a.trace = value() != "0";
      } else if (key == "--smoke") {
        a.smoke = true;
      } else if (key == "--out-dir") {
        a.out_dir = value();
      } else if (key == "--log") {
        a.log = value();
      } else {
        die("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      die("bad value for " + key);
    }
  }
  if (a.workload.empty()) die("--workload is required");
  if (!(a.seconds > 0.0)) die("--seconds must be positive");
  return a;
}

/// What a workload runs on.
struct Shape {
  stats::GraphKind kind = stats::GraphKind::kRandom;
  std::uint32_t scale = 16;
  runtime::Topology topology;
  bool serving = false;
  bool churn = false;
  std::uint64_t queries = 0;  // per serving repetition
  std::size_t max_rounds = 0;  // 0 = until --seconds is used up
};

Shape shape_for(const Args& a) {
  Shape s;
  if (a.workload == "rmat16" || a.workload == "uniform16") {
    s.kind = a.workload == "rmat16" ? stats::GraphKind::kRmat
                                    : stats::GraphKind::kRandom;
    s.scale = 16;
    s.topology = runtime::Topology{4, 2, 4};  // 32 PEs
  } else if (a.workload == "serve-static" || a.workload == "serve-churn") {
    s.scale = 13;
    s.topology = runtime::Topology{2, 2, 2};
    s.serving = true;
    s.churn = a.workload == "serve-churn";
    s.queries = 1000;
  } else {
    die("unknown workload " + a.workload +
        " (rmat16, uniform16, serve-static, serve-churn)");
  }
  if (a.smoke) {
    s.scale = 10;
    s.queries = 300;
    s.max_rounds = 4;
  }
  return s;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (rank - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}
double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Faults {
  double major = 0.0;
  double minor = 0.0;
};
Faults fault_counts() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return {static_cast<double>(u.ru_majflt), static_cast<double>(u.ru_minflt)};
}

/// Flushes the file and drops its pages from the page cache, so the next
/// mapping starts cold (no root needed).
void evict_from_page_cache(const std::string& path, bool sync) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) die("cannot open " + path);
  if (sync) ::fdatasync(fd);
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

/// One solve of one arm, with the machine counters read after it.
struct Solve {
  sssp::SolverRun run;
  double raw_s = 0.0;  // host seconds
  double host_s = 0.0;  // scaled by HostSpeed
  double events = 0, tasks = 0, messages = 0, bytes = 0;
  double windows = 0, merges = 0, steals = 0, threads_used = 0;
};

/// Per-arm samples and sums over the timed solves.
struct ArmStats {
  std::vector<double> host_s;  // scaled
  std::vector<double> raw_s;
  std::vector<double> sim_us;
  double events = 0, tasks = 0, messages = 0, bytes = 0;
  double windows = 0, merges = 0, steals = 0, threads_used = 0;
  double updates_created = 0, updates_processed = 0, updates_wasted = 0;
  double cycles = 0, held_pq = 0, held_tram = 0;
  double major_faults = 0, minor_faults = 0;

  void add(const Solve& s) {
    const sssp::SsspMetrics& m = s.run.sssp.metrics;
    host_s.push_back(s.host_s);
    raw_s.push_back(s.raw_s);
    sim_us.push_back(m.sim_time_us);
    events += s.events;
    tasks += s.tasks;
    messages += s.messages;
    bytes += s.bytes;
    windows += s.windows;
    merges += s.merges;
    steals += s.steals;
    threads_used += s.threads_used;
    updates_created += static_cast<double>(m.updates_created);
    updates_processed += static_cast<double>(m.updates_processed);
    updates_wasted +=
        static_cast<double>(m.updates_rejected + m.updates_superseded);
    cycles += static_cast<double>(s.run.telemetry.cycles);
    held_pq += s.run.telemetry.extra("held_in_pq_hold");
    held_tram += s.run.telemetry.extra("held_in_tram");
  }
  double n() const { return static_cast<double>(host_s.size()); }
  double per_solve(double sum) const { return ratio(sum, n()); }
  double total_s() const {
    double t = 0.0;
    for (const double h : host_s) t += h;
    return t;
  }
};

enum Arm { kDijkstra, kAcic4, kAcic1, kDelta4, kAcicMmap, kNumArms };

/// What one set-up builds.  Members are declared in dependency order so
/// the service is destroyed before the machine, partition and graph.
struct Setup {
  graph::EdgeList edges;  // serve-* only
  graph::Csr csr;
  std::unique_ptr<dynamic::DynamicGraph> dyn;  // serve-churn only
  std::unique_ptr<runtime::Machine> machine;
  std::unique_ptr<graph::Partition1D> partition;
  std::unique_ptr<server::QueryService> service;
};

/// Host seconds of one set-up, by part.  Not scaled: set-up is parallel,
/// bandwidth-bound work that the HostSpeed kernel does not track (scaled
/// set-up medians drifted 17% between two sets of runs, raw ones 4%).
struct SetupTimes {
  double total = 0, build = 0, write = 0, dyn_ctor = 0, service_ctor = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Runner {
 public:
  Runner(Args args, Shape shape)
      : args_(std::move(args)),
        shape_(shape),
        spans_(args_.trace),
        seq_machine_(runtime::Topology::tiny(1)),
        csr_path_(args_.out_dir + "/" + args_.workload + ".oocsr") {
    solver_opts_.time_limit_us = kSimTimeLimitUs;
  }

  ~Runner() { std::remove(csr_path_.c_str()); }

  void run() {
    const bench::Clock::time_point start = bench::Clock::now();
    auto elapsed = [&] {
      return std::chrono::duration<double>(bench::Clock::now() - start)
          .count();
    };
    std::unique_ptr<Setup> setup = set_up();
    if (!shape_.serving) {
      while (setup_times_.size() < kStaticSetups) {
        setup.reset();  // one graph in memory at a time
        setup = set_up();
      }
    }
    sources_ = pick_sources(setup->csr);

    // Warm-up: one untimed round of every arm (still verified).
    solve_round(setup->csr, sources_[0], /*all_arms=*/true, /*timed=*/false);
    const double arm_seconds =
        shape_.serving ? args_.seconds * kServeArmShare : args_.seconds;
    const bench::Clock::time_point measure_start = bench::Clock::now();
    auto measured = [&] {
      return std::chrono::duration<double>(bench::Clock::now() -
                                           measure_start)
          .count();
    };
    for (std::size_t r = 0;; ++r) {
      if (shape_.max_rounds != 0 ? r >= shape_.max_rounds
                                 : r > 0 && measured() >= arm_seconds) {
        break;
      }
      // Traced runs alternate pairs of rounds with and without spans;
      // the acic t=4 times of the two halves give the tracing overhead.
      const bool traced_round = (r / 2) % 2 == 0;
      spans_.set_recording(traced_round);
      const Solve& acic4 = solve_round(
          setup->csr, sources_[(r + 1) % sources_.size()], r % 2 == 0, true);
      (traced_round ? traced_acic_s_ : untraced_acic_s_)
          .push_back(acic4.host_s);
    }
    spans_.set_recording(true);
    if (args_.trace) registry_solve(setup->csr, sources_[0]);

    if (shape_.serving) {
      for (std::size_t rep = 0;; ++rep) {
        if (rep > 0) {
          const bool done = shape_.max_rounds != 0
                                ? rep >= kMinServeReps
                                : rep >= kMinServeReps &&
                                      measured() >= args_.seconds;
          if (done) break;
          setup.reset();
          setup = set_up();
        }
        serve_rep(*setup, rep);
      }
    }
    total_s_ = elapsed();
  }

  std::vector<Metric> end_to_end() const {
    const ArmStats& a4 = arms_[kAcic4];
    std::vector<double> setup_s;
    for (const SetupTimes& t : setup_times_) setup_s.push_back(t.total);
    return {
        {"setup_s", median(setup_s), "s"},
        {"serve_qps",
         shape_.serving
             ? ratio(static_cast<double>(serve_completed_), serve_s())
             : ratio(a4.n(), a4.total_s()),
         "1/s"},
        {"acic_solve_s", median(a4.host_s), "s"},
        {"acic_t1_solve_s", median(arms_[kAcic1].host_s), "s"},
        {"delta_solve_s", median(arms_[kDelta4].host_s), "s"},
        {"dijkstra_solve_s", median(arms_[kDijkstra].host_s), "s"},
        {"acic_mmap_solve_s", median(arms_[kAcicMmap].host_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  }

  std::vector<Metric> per_layer() const {
    const ArmStats& a4 = arms_[kAcic4];
    const ArmStats& d4 = arms_[kDelta4];
    const ArmStats& mm = arms_[kAcicMmap];
    const double acic_s = median(a4.host_s);
    std::vector<double> build, write, ctor_frac, dyn_frac;
    for (const SetupTimes& t : setup_times_) {
      build.push_back(t.build);
      write.push_back(t.write);
      ctor_frac.push_back(ratio(t.service_ctor, t.total));
      dyn_frac.push_back(ratio(t.dyn_ctor, t.total));
    }
    const auto self = spans_.self_seconds_by_layer();
    double traced_total = 0.0;
    for (const auto& [layer, s] : self) traced_total += s;
    auto self_frac = [&](const char* layer) {
      const auto it = self.find(layer);
      return it == self.end() ? 0.0 : ratio(it->second, traced_total);
    };
    const double sim_p50 = shape_.serving ? serve_.p50_latency_us
                                          : percentile(a4.sim_us, 50);
    const double sim_p99 = shape_.serving ? serve_.p99_latency_us
                                          : percentile(a4.sim_us, 99);
    return {
        {"graph.build_s", median(build), "s"},
        {"graph.csr_write_s", median(write), "s"},
        {"graph.major_faults", mm.per_solve(mm.major_faults), "count"},
        {"graph.minor_faults", mm.per_solve(mm.minor_faults), "count"},
        {"graph.self_frac", self_frac("graph"), "frac"},
        {"runtime.events", a4.per_solve(a4.events), "count"},
        {"runtime.tasks", a4.per_solve(a4.tasks), "count"},
        {"runtime.events_per_s", ratio(a4.events, a4.total_s()), "1/s"},
        {"runtime.tasks_per_s", ratio(a4.tasks, a4.total_s()), "1/s"},
        {"runtime.messages", a4.per_solve(a4.messages), "count"},
        {"runtime.bytes", a4.per_solve(a4.bytes), "B"},
        {"runtime.messages_inter_node", registry_.messages_inter_node,
         "count"},
        {"runtime.bytes_inter_node", registry_.bytes_inter_node, "B"},
        {"runtime.windows", a4.per_solve(a4.windows), "count"},
        {"runtime.events_per_window", ratio(a4.events, a4.windows), "count"},
        {"runtime.window_merges", a4.per_solve(a4.merges), "count"},
        {"runtime.merge_fraction", ratio(a4.merges, a4.windows), "frac"},
        {"runtime.steals", a4.per_solve(a4.steals), "count"},
        {"runtime.threads_effective", a4.per_solve(a4.threads_used), "count"},
        {"runtime.parallel_speedup",
         ratio(median(arms_[kAcic1].host_s), acic_s), "x"},
        {"runtime.self_frac", self_frac("runtime"), "frac"},
        {"tram.items_inserted", registry_.items_inserted, "count"},
        {"tram.items_delivered", registry_.items_delivered, "count"},
        {"tram.aggregate_messages", registry_.aggregate_messages, "count"},
        {"tram.items_per_message",
         ratio(registry_.items_delivered, registry_.aggregate_messages),
         "count"},
        {"tram.auto_flushes", registry_.auto_flushes, "count"},
        {"tram.manual_flushes", registry_.manual_flushes, "count"},
        {"core.updates_created", a4.per_solve(a4.updates_created), "count"},
        {"core.updates_processed", a4.per_solve(a4.updates_processed),
         "count"},
        {"core.wasted_fraction",
         ratio(a4.updates_wasted, a4.updates_processed), "frac"},
        {"core.updates_per_s", ratio(a4.updates_created, a4.total_s()),
         "1/s"},
        {"core.cycles", a4.per_solve(a4.cycles), "count"},
        {"core.sim_time_us", percentile(a4.sim_us, 50), "us"},
        {"core.updates_held_pq", a4.per_solve(a4.held_pq), "count"},
        {"core.updates_held_tram", a4.per_solve(a4.held_tram), "count"},
        {"core.self_frac", self_frac("core"), "frac"},
        {"baselines.delta_cycles", d4.per_solve(d4.cycles), "count"},
        {"baselines.delta_updates_created", d4.per_solve(d4.updates_created),
         "count"},
        {"baselines.delta_wasted_fraction",
         ratio(d4.updates_wasted, d4.updates_processed), "frac"},
        {"baselines.self_frac", self_frac("baselines"), "frac"},
        {"sssp.cost_ratio", ratio(median(arms_[kDijkstra].host_s), acic_s),
         "x"},
        {"sssp.p50_latency_sim_us", sim_p50, "us"},
        {"sssp.p99_latency_sim_us", sim_p99, "us"},
        {"server.cache_hit_rate", serve_.cache_hit_rate, "frac"},
        {"server.batches_started", double(serve_.batches_started), "count"},
        {"server.batched_queries", double(serve_.batched_queries), "count"},
        {"server.landmark_exact", double(serve_.landmark_exact), "count"},
        {"server.goal_directed", double(serve_.goal_directed), "count"},
        {"server.engine_queries", double(engine_queries_), "count"},
        {"server.max_queue_depth", double(serve_.max_queue_depth), "count"},
        {"server.queue_wait_frac",
         ratio(serve_.mean_queue_wait_us, serve_.mean_latency_us), "frac"},
        {"server.events_per_s",
         ratio(static_cast<double>(serve_events_), serve_s()), "1/s"},
        {"server.ctor_frac", median(ctor_frac), "frac"},
        {"server.self_frac", self_frac("server"), "frac"},
        {"dynamic.graph_ctor_frac", median(dyn_frac), "frac"},
        {"dynamic.mutations_applied", double(mutations_applied_), "count"},
        {"dynamic.repaired_queries", double(serve_.repaired_queries),
         "count"},
        {"dynamic.cache_invalidations", double(serve_.cache_invalidations),
         "count"},
        {"dynamic.stale_hits_prevented", double(serve_.stale_hits_prevented),
         "count"},
        {"dynamic.stale_results_dropped", double(stale_results_dropped_),
         "count"},
        {"dynamic.self_frac", self_frac("dynamic"), "frac"},
        {"trace.overhead_frac",
         ratio(median(traced_acic_s_), median(untraced_acic_s_)) - 1.0,
         "frac"},
        {"trace.spans", double(spans_.spans().size()), "count"},
    };
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const SpanLog& spans() const { return spans_; }
  const bench::HostSpeed& host_speed() const { return host_; }
  const ArmStats& arm(Arm a) const { return arms_[a]; }
  const std::vector<SetupTimes>& setup_times() const { return setup_times_; }
  const std::vector<double>& serve_run_seconds() const {
    return serve_run_s_;
  }
  double total_s() const { return total_s_; }

 private:
  double serve_s() const {
    double total = 0.0;
    for (const double r : serve_run_s_) total += r;
    return total;
  }

  /// Re-times the host-speed kernel when due; later samples use the new
  /// scale.
  void refresh_scale() {
    host_.maybe_measure();
    scale_ = host_.scale();
  }

  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }

  std::unique_ptr<Setup> set_up() {
    auto s = std::make_unique<Setup>();
    const std::uint64_t id = setup_times_.size();
    SpanLog::Scope scope(spans_, "set-up", "bench", id);
    SetupTimes t;
    if (shape_.serving) {
      graph::GenParams p;
      p.num_vertices = graph::VertexId{1} << shape_.scale;
      p.num_edges = 16ull * p.num_vertices;
      p.seed = args_.seed;
      t.build = spans_.time("graph::generate_uniform_random", "graph", id,
                            [&] { s->edges = graph::generate_uniform_random(p); });
      t.build += spans_.time("Csr::from_edge_list", "graph", id, [&] {
        s->csr = graph::Csr::from_edge_list(s->edges);
      });
    } else {
      stats::ExperimentSpec spec;
      spec.graph = shape_.kind;
      spec.scale = shape_.scale;
      spec.edge_factor = 16;
      spec.seed = args_.seed;
      spec.threads = kThreads;
      t.build = spans_.time("stats::build_graph", "graph", id,
                            [&] { s->csr = stats::build_graph(spec); });
    }
    t.write = spans_.time("graph::write_csr_file", "graph", id, [&] {
      if (!graph::write_csr_file(s->csr, csr_path_)) {
        die("cannot write " + csr_path_);
      }
    });
    // Untimed: flushing to disk is the mmap arm's need, not set-up work.
    spans_.time("fdatasync + posix_fadvise(DONTNEED)", "graph", id,
                [&] { evict_from_page_cache(csr_path_, /*sync=*/true); });
    t.total = t.build + t.write;
    if (shape_.serving) {
      if (shape_.churn) {
        t.dyn_ctor = spans_.time("DynamicGraph()", "dynamic", id, [&] {
          s->dyn = std::make_unique<dynamic::DynamicGraph>(s->edges);
          s->dyn->set_retain_history(true);
        });
      }
      t.total += t.dyn_ctor;
      t.total += spans_.time("Machine()", "runtime", id, [&] {
        s->machine = std::make_unique<runtime::Machine>(shape_.topology);
        s->partition = std::make_unique<graph::Partition1D>(
            graph::Partition1D::block(s->csr.num_vertices(),
                                      s->machine->num_pes()));
      });
      server::ServiceConfig config;
      config.max_inflight = 3;
      config.cache_capacity = 24;
      config.batching.max_batch = 8;
      config.landmarks.num_landmarks = 8;
      t.service_ctor = spans_.time("QueryService()", "server", id, [&] {
        s->service =
            shape_.churn
                ? std::make_unique<server::QueryService>(
                      *s->machine, *s->dyn, *s->partition, config)
                : std::make_unique<server::QueryService>(
                      *s->machine, s->csr, *s->partition, config);
      });
      t.total += t.service_ctor;
    }
    setup_times_.push_back(t);
    return s;
  }

  /// Distinct sources with out-degree >= 1, in a seeded order.
  std::vector<graph::VertexId> pick_sources(const graph::Csr& csr) const {
    std::mt19937_64 rng(args_.seed * 0x9e3779b97f4a7c15ull + 17);
    std::uniform_int_distribution<graph::VertexId> pick(
        0, csr.num_vertices() - 1);
    std::vector<graph::VertexId> out;
    std::vector<bool> taken(csr.num_vertices(), false);
    const std::size_t want = std::min<std::size_t>(256, csr.num_vertices() / 4);
    for (std::size_t tries = 0; out.size() < want && tries < 64 * want;
         ++tries) {
      const graph::VertexId v = pick(rng);
      if (taken[v] || csr.out_degree(v) == 0) continue;
      taken[v] = true;
      out.push_back(v);
    }
    if (out.empty()) die("graph has no vertex with an out-edge");
    return out;
  }

  Solve machine_solve(const char* solver, const char* span, const char* layer,
                      const graph::Csr& csr, graph::VertexId source,
                      unsigned threads) {
    std::unique_ptr<runtime::Machine> machine;
    spans_.time("Machine()", "runtime", source, [&] {
      machine = std::make_unique<runtime::Machine>(shape_.topology);
    });
    machine->set_threads(threads);
    Solve s;
    s.raw_s = spans_.time(span, layer, source, [&] {
      s.run = sssp::run_solver(solver, *machine, csr, source, solver_opts_);
    });
    s.host_s = s.raw_s * scale_;
    for (runtime::PeId p = 0; p < machine->num_pes(); ++p) {
      s.tasks += static_cast<double>(machine->pe_tasks_run(p));
    }
    s.events = static_cast<double>(machine->total_events_processed());
    s.messages = static_cast<double>(machine->total_messages_sent());
    s.bytes = static_cast<double>(machine->total_bytes_sent());
    s.windows = static_cast<double>(machine->total_windows());
    s.merges = static_cast<double>(machine->total_window_merges());
    s.steals = static_cast<double>(machine->total_shard_steals());
    s.threads_used = machine->last_threads_used();
    return s;
  }

  void check_against(const Solve& s, const std::vector<graph::Dist>& ref,
                     const char* what, graph::VertexId source) {
    const std::string tag = std::string(what) + " source " +
                            std::to_string(source);
    check(!s.run.telemetry.hit_time_limit, tag + " hit the time limit");
    spans_.time("graph::compare_distances", "verify", source, [&] {
      const graph::ValidationResult v =
          graph::compare_distances(s.run.sssp.dist, ref);
      check(v.ok, tag + " vs Dijkstra: " + v.error);
    });
  }

  /// Same distances bit for bit and the same simulated time.
  void check_identical(const Solve& a, const Solve& b, const char* what,
                       graph::VertexId source) {
    check(a.run.sssp.dist == b.run.sssp.dist &&
              a.run.sssp.metrics.sim_time_us == b.run.sssp.metrics.sim_time_us,
          std::string(what) + " source " + std::to_string(source) +
              " differs from acic t=4");
  }

  /// Runs one source through the arms; returns the acic t=4 solve.
  const Solve& solve_round(const graph::Csr& csr, graph::VertexId source,
                           bool all_arms, bool timed) {
    SpanLog::Scope scope(spans_, "source", "bench", source);
    refresh_scale();
    sssp::SolverRun ref;
    const double dijkstra_s =
        spans_.time("run_solver(sequential)", "baselines", source, [&] {
          ref = sssp::run_solver("sequential", seq_machine_, csr, source,
                                 solver_opts_);
        });
    const std::vector<graph::Dist>& truth = ref.sssp.dist;
    if (timed) {
      arms_[kDijkstra].host_s.push_back(dijkstra_s * scale_);
      arms_[kDijkstra].raw_s.push_back(dijkstra_s);
    }

    last_acic4_ = machine_solve("acic", "run_solver(acic, t=4)", "core", csr,
                                source, kThreads);
    check_against(last_acic4_, truth, "acic t=4", source);
    if (timed) arms_[kAcic4].add(last_acic4_);
    if (!all_arms) return last_acic4_;

    const Solve acic1 =
        machine_solve("acic", "run_solver(acic, t=1)", "core", csr, source, 1);
    check_identical(acic1, last_acic4_, "acic t=1", source);
    if (timed) arms_[kAcic1].add(acic1);

    const Solve delta =
        machine_solve("delta_stepping_dist", "run_solver(delta, t=4)",
                      "baselines", csr, source, kThreads);
    check_against(delta, truth, "delta t=4", source);
    if (timed) arms_[kDelta4].add(delta);

    spans_.time("posix_fadvise(DONTNEED)", "graph", source,
                [&] { evict_from_page_cache(csr_path_, /*sync=*/false); });
    std::unique_ptr<graph::MappedCsr> mapped;
    spans_.time("MappedCsr()", "graph", source, [&] {
      mapped = std::make_unique<graph::MappedCsr>(csr_path_);
    });
    const Faults before = fault_counts();
    const Solve mmap = machine_solve("acic", "run_solver(acic, t=1, mmap)",
                                     "core", mapped->csr(), source, 1);
    const Faults after = fault_counts();
    spans_.time("~MappedCsr()", "graph", source, [&] { mapped.reset(); });
    check_identical(mmap, last_acic4_, "acic t=1 mmap", source);
    if (timed) {
      arms_[kAcicMmap].add(mmap);
      arms_[kAcicMmap].major_faults += after.major - before.major;
      arms_[kAcicMmap].minor_faults += after.minor - before.minor;
    }
    return last_acic4_;
  }

  /// One extra untimed serial acic solve with a registry attached: the
  /// registry forces the serial engine, so its counters are labelled
  /// serial-registry and kept out of every timed solve.
  void registry_solve(const graph::Csr& csr, graph::VertexId source) {
    runtime::Machine machine(shape_.topology);
    obs::Registry registry(machine.topology());
    sssp::SolverOptions opts = solver_opts_;
    opts.registry = &registry;
    spans_.time("run_solver(acic, serial-registry)", "core", source, [&] {
      sssp::run_solver("acic", machine, csr, source, opts);
    });
    auto total = [&](const char* name) {
      return static_cast<double>(registry.total(name));
    };
    registry_.messages_inter_node = total("net/messages_inter_node");
    registry_.bytes_inter_node = total("net/bytes_inter_node");
    registry_.items_inserted = total("tram/items_inserted");
    registry_.items_delivered = total("tram/items_delivered");
    registry_.aggregate_messages = total("tram/aggregate_messages");
    registry_.auto_flushes = total("tram/auto_flushes");
    registry_.manual_flushes = total("tram/manual_flushes");
  }

  /// Reference distances for (source, epoch), computed once.
  const std::vector<graph::Dist>& reference(const Setup& setup,
                                            graph::VertexId source,
                                            std::uint64_t epoch) {
    auto it = refs_.find({source, epoch});
    if (it != refs_.end()) return it->second;
    std::shared_ptr<const dynamic::GraphSnapshot> snap;
    const graph::Csr* csr = &setup.csr;
    if (setup.dyn != nullptr) {
      snap = setup.dyn->snapshot_at(epoch);
      if (snap == nullptr) die("no snapshot retained for an epoch");
      csr = &snap->csr;
    }
    std::vector<graph::Dist> dist;
    spans_.time("run_solver(sequential, reference)", "verify", source, [&] {
      dist = sssp::run_solver("sequential", seq_machine_, *csr, source,
                              solver_opts_)
                 .sssp.dist;
    });
    return refs_.emplace(std::make_pair(source, epoch), std::move(dist))
        .first->second;
  }

  /// Serves one repetition's streams.  Repetitions draw distinct streams
  /// from the seed (stream r uses seed * 1000 + r), so a run averages
  /// over several query mixes; each repetition is verified in full.
  void serve_rep(Setup& setup, std::size_t rep) {
    SpanLog::Scope scope(spans_, "serving repetition", "bench", rep);
    server::QueryService& service = *setup.service;
    const std::uint64_t stream_seed = args_.seed * 1000 + rep;
    server::WorkloadConfig wl;
    wl.seed = stream_seed;
    wl.qps = 400.0;
    wl.num_queries = shape_.queries;
    wl.source_universe = 48;
    wl.p2p_fraction = 0.3;
    std::vector<server::Query> queries;
    spans_.time("server::generate_workload", "server", rep, [&] {
      queries = server::generate_workload(wl, setup.csr.num_vertices());
    });
    spans_.time("QueryService::submit", "server", rep,
                [&] { service.submit(queries); });
    if (shape_.churn) {
      server::MutationWorkloadConfig mw;
      mw.seed = stream_seed;
      mw.mutation_rate = 25.0;
      mw.batch_size = 8;
      const double span_s = static_cast<double>(shape_.queries) / wl.qps;
      mw.num_batches = static_cast<std::uint64_t>(
          span_s * mw.mutation_rate / static_cast<double>(mw.batch_size) +
          1.0);
      std::vector<server::MutationEvent> events;
      spans_.time("server::generate_mutation_stream", "dynamic", rep, [&] {
        events = server::generate_mutation_stream(mw, setup.dyn->csr());
      });
      spans_.time("QueryService::submit_mutations", "dynamic", rep,
                  [&] { service.submit_mutations(events); });
    }
    // Run in slices of simulated time, then drain, so the host-speed
    // scale is refreshed every slice.
    double run_s = 0.0;
    const runtime::SimTime last_arrival = queries.back().arrival_us;
    for (runtime::SimTime limit = kServeSliceUs;; limit += kServeSliceUs) {
      const bool drain = limit > last_arrival;
      refresh_scale();
      runtime::RunStats stats;
      run_s += scale_ * spans_.time("QueryService::run", "server", rep, [&] {
        stats = service.run(drain ? runtime::kNoTimeLimit : limit);
      });
      serve_events_ += stats.events_processed;
      if (drain) break;
    }
    serve_run_s_.push_back(run_s);
    serve_completed_ += service.completed_count();

    if (rep == 0) {
      serve_ = service.summary();
      mutations_applied_ = service.mutations_applied();
      stale_results_dropped_ = service.stale_results_dropped();
      for (const server::QueryRecord& r : service.records()) {
        if (r.tier == server::ServeTier::kEngine) ++engine_queries_;
      }
    }
    refs_.clear();  // the next repetition has its own epochs
    verify_service(setup, service);
  }

  void verify_service(const Setup& setup,
                      const server::QueryService& service) {
    check(service.completed_count() == service.submitted_count(),
          std::to_string(service.submitted_count() -
                         service.completed_count()) +
              " queries did not complete");
    for (const server::QueryRecord& r : service.records()) {
      if (r.mode != server::ResultMode::kPointToPoint) {
        ++attempted_;  // completion is its check
        continue;
      }
      const server::QueryResult* result = service.result_of(r.id);
      const graph::Dist expected = reference(setup, r.source, r.epoch)[r.target];
      check(result != nullptr && result->distance == expected,
            "p2p query " + std::to_string(r.id) + " answered wrongly");
    }
    // Resident cache entries are exact for the current epoch.
    const std::uint64_t epoch =
        setup.dyn != nullptr ? setup.dyn->epoch() : 0;
    for (const graph::VertexId source : service.cache().cached_sources()) {
      check(*service.cache().peek(source) == reference(setup, source, epoch),
            "cached vector for source " + std::to_string(source) +
                " differs from Dijkstra");
    }
  }

  static double peak_rss_mb() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  }

  Args args_;
  Shape shape_;
  SpanLog spans_;
  bench::HostSpeed host_;
  double scale_ = 1.0;
  runtime::Machine seq_machine_;  // "sequential" ignores its machine
  sssp::SolverOptions solver_opts_;
  std::string csr_path_;

  std::vector<graph::VertexId> sources_;
  std::vector<SetupTimes> setup_times_;
  ArmStats arms_[kNumArms];
  Solve last_acic4_;
  std::vector<double> traced_acic_s_, untraced_acic_s_;
  struct {
    double messages_inter_node = 0, bytes_inter_node = 0;
    double items_inserted = 0, items_delivered = 0, aggregate_messages = 0;
    double auto_flushes = 0, manual_flushes = 0;
  } registry_;

  std::map<std::pair<graph::VertexId, std::uint64_t>,
           std::vector<graph::Dist>>
      refs_;
  std::vector<double> serve_run_s_;  // scaled seconds per repetition
  std::uint64_t serve_completed_ = 0;
  std::uint64_t serve_events_ = 0;
  server::ServiceSummary serve_;  // of the first repetition
  std::uint64_t engine_queries_ = 0;
  std::uint64_t mutations_applied_ = 0;
  std::uint64_t stale_results_dropped_ = 0;

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  double total_s_ = 0.0;
};

/// Shortest text that reads back as exactly `v`.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return std::string(buf, end);
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string samples_json(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(xs[i]);
  }
  return out + "]";
}

bool write_file(const std::string& path, const std::string& text,
                const char* mode = "w") {
  std::FILE* f = std::fopen(path.c_str(), mode);
  if (f == nullptr) return false;
  const bool ok = std::fputs(text.c_str(), f) >= 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Shape shape = shape_for(args);
  Runner runner(args, shape);
  try {
    runner.run();
  } catch (const std::exception& e) {
    die(std::string("error: ") + e.what());
  }

  const std::vector<Metric> metrics =
      args.trace ? runner.per_layer() : runner.end_to_end();
  const bool correct = runner.failed() == 0;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(runner.attempted()) +
      ", \"failed\": " + std::to_string(runner.failed()) +
      ", \"metrics\": " + metrics_json(metrics) + "}";

  // Details beside the result: run parameters and every timed sample.
  static const char* const kArmNames[kNumArms] = {
      "dijkstra", "acic_t4", "acic_t1", "delta_t4", "acic_mmap_t1"};
  std::string details = "{\"workload\": \"" + args.workload +
                        "\", \"seed\": " + std::to_string(args.seed) +
                        ", \"seconds\": " + json_number(args.seconds) +
                        ", \"trace\": " + (args.trace ? "1" : "0") +
                        ", \"smoke\": " + (args.smoke ? "true" : "false") +
                        ", \"host_cores\": " +
                        std::to_string(std::thread::hardware_concurrency()) +
                        ", \"wall_s\": " + json_number(runner.total_s()) +
                        ", \"result\": " + result;
  std::vector<double> setup_s;
  for (const SetupTimes& t : runner.setup_times()) setup_s.push_back(t.total);
  for (const bool raw : {false, true}) {
    details += raw ? ", \"raw_s\": {" : ", \"samples_s\": {";
    for (int a = 0; a < kNumArms; ++a) {
      const ArmStats& arm = runner.arm(static_cast<Arm>(a));
      details += std::string(a > 0 ? ", " : "") + "\"" + kArmNames[a] +
                 "\": " + samples_json(raw ? arm.raw_s : arm.host_s);
    }
    details += "}";
  }
  details += ", \"setup_s\": " + samples_json(setup_s) +
             ", \"serve_run_s\": " + samples_json(runner.serve_run_seconds());
  details += ", \"host_speed_kernel_s\": " +
             samples_json(runner.host_speed().samples()) + "}\n";
  const std::string stem = args.out_dir + "/" + args.workload;
  if (!write_file(stem + (args.trace ? ".trace.json" : ".json"), details) ||
      (!args.log.empty() && !write_file(args.log, details, "a"))) {
    die("cannot write results under " + args.out_dir);
  }
  if (args.trace) {
    std::string layers = "{\"workload\": \"" + args.workload +
                         "\", \"self_s\": {";
    bool first = true;
    for (const auto& [layer, s] : runner.spans().self_seconds_by_layer()) {
      layers += std::string(first ? "" : ", ") + "\"" + layer +
                "\": " + json_number(s);
      first = false;
    }
    layers += "}, \"metrics\": " + metrics_json(metrics) + "}\n";
    if (!write_file(args.out_dir + "/layers-" + args.workload + ".json",
                    layers) ||
        !runner.spans().write_chrome_trace(args.out_dir + "/trace-" +
                                           args.workload + ".json")) {
      die("cannot write trace files under " + args.out_dir);
    }
  }

  for (const Metric& m : metrics) {
    std::printf("%s %s %s\n", m.name.c_str(), json_number(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
