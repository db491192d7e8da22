#pragma once
// Helpers shared by the figure-reproduction bench binaries: option
// parsing into CompareSpec/ExperimentSpec, progress printing, CSV output.

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/obs/export.hpp"
#include "src/obs/registry.hpp"
#include "src/runtime/trace.hpp"
#include "src/stats/compare.hpp"
#include "src/stats/experiment.hpp"
#include "src/util/options.hpp"
#include "src/util/table.hpp"

namespace acic::bench {

/// Parses a comma-separated list of unsigned integers.  A token that is
/// not a plain decimal number (e.g. `--nodes=1,x`) is an option error:
/// the harness prints which token of which option was bad and exits,
/// instead of dying in an uncaught std::stoul exception.
inline std::vector<std::uint32_t> parse_list(const std::string& csv,
                                             const char* option = "list") {
  std::vector<std::uint32_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) {
      std::uint64_t value = 0;
      bool ok = true;
      for (const char c : tok) {
        if (c < '0' || c > '9') {
          ok = false;
          break;
        }
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
        if (value > 0xffffffffull) {
          ok = false;
          break;
        }
      }
      if (!ok) {
        std::fprintf(stderr,
                     "option error: --%s: invalid token '%s' in '%s' "
                     "(want comma-separated unsigned integers)\n",
                     option, tok.c_str(), csv.c_str());
        std::exit(2);
      }
      out.push_back(static_cast<std::uint32_t>(value));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Parses a comma-separated `--threads` list (host worker threads for
/// the engine and graph build).  Shares parse_list's non-numeric
/// handling (a leading '-' is not a digit, so negatives are rejected
/// there) and additionally rejects 0: "zero threads" is always a typo,
/// not a request for a serial run — that is `--threads 1`.
inline std::vector<unsigned> parse_threads_list(
    const std::string& csv, const char* option = "threads") {
  std::vector<unsigned> out;
  for (const std::uint32_t v : parse_list(csv, option)) {
    if (v == 0) {
      std::fprintf(stderr,
                   "option error: --%s: thread counts must be >= 1 "
                   "(got 0 in '%s')\n",
                   option, csv.c_str());
      std::exit(2);
    }
    out.push_back(v);
  }
  if (out.empty()) {
    std::fprintf(stderr, "option error: --%s: empty thread list '%s'\n",
                 option, csv.c_str());
    std::exit(2);
  }
  return out;
}

/// Single-value form of parse_threads_list for binaries that take one
/// `--threads N`.
inline unsigned parse_threads(const std::string& value,
                              const char* option = "threads") {
  const std::vector<unsigned> list = parse_threads_list(value, option);
  if (list.size() != 1) {
    std::fprintf(stderr,
                 "option error: --%s: expected one thread count, got "
                 "'%s'\n",
                 option, value.c_str());
    std::exit(2);
  }
  return list.front();
}

inline stats::CompareSpec compare_spec_from_options(
    const util::Options& opts) {
  stats::CompareSpec spec;
  spec.scale =
      static_cast<std::uint32_t>(opts.get_int("scale", spec.scale));
  spec.edge_factor = static_cast<std::uint32_t>(
      opts.get_int("edge-factor", spec.edge_factor));
  spec.trials =
      static_cast<std::uint32_t>(opts.get_int("trials", spec.trials));
  spec.base_seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 1));
  if (opts.has("nodes")) {
    spec.nodes_list = parse_list(opts.get("nodes", ""), "nodes");
  }
  spec.buffer_override =
      static_cast<std::size_t>(opts.get_int("buffer", 0));
  spec.full_scale_nodes = opts.get_bool("full-nodes", false);
  return spec;
}

inline void print_spec(const stats::CompareSpec& spec) {
  std::printf(
      "  scale=%u (|V|=%u, |E|=%u*|V|), trials=%u, nodes={", spec.scale,
      1u << spec.scale, spec.edge_factor, spec.trials);
  for (std::size_t i = 0; i < spec.nodes_list.size(); ++i) {
    std::printf("%s%u", i ? "," : "", spec.nodes_list[i]);
  }
  std::printf("}  [paper: scale=26, 10 trials, real Delta/Frontier nodes]\n");
}

inline void progress_line(const char* line) {
  std::printf("%s\n", line);
  std::fflush(stdout);
}

inline void write_csv(const util::Table& table, const util::Options& opts,
                      const std::string& default_name) {
  const std::string path = opts.get("csv", default_name);
  if (table.write_csv(path)) {
    std::printf("wrote %s\n", path.c_str());
  }
}

/// One divergence between two supposedly identical runs, for the
/// bit-identity gates (cross-thread, cross-storage, repeat-trial): the
/// simulated-side field that differed and both values, pre-rendered.
struct FieldDiff {
  const char* field;
  std::string a;
  std::string b;
};

/// Prints every diverging field with both values, then — so the reader
/// of a failure knows what was deliberately NOT compared — the
/// host-side diagnostic fields the comparison excludes (they describe
/// how the host executed the schedule, not the schedule itself, and
/// legitimately vary with the thread count), then exits 4.
[[noreturn]] inline void die_divergence(const std::string& context,
                                        const std::vector<FieldDiff>& diffs) {
  for (const FieldDiff& d : diffs) {
    std::fprintf(stderr, "bench: %s: %s diverged (%s vs %s)\n",
                 context.c_str(), d.field, d.a.c_str(), d.b.c_str());
  }
  std::fprintf(stderr,
               "bench: host-side diagnostic fields excluded from this "
               "comparison: threads_used, windows, window_merges\n");
  std::exit(4);
}

/// Process-wide resource high-water marks, for per-config reporting next
/// to wall time.  max_rss_bytes is getrusage's peak resident set — a
/// monotone process-lifetime number, so a harness comparing configs
/// in-process can only attribute it to the *first* config that reached
/// the peak; single-run tools (ooc_smoke) report it per phase honestly.
/// major_faults counts page faults that hit storage — the out-of-core
/// cost the prefetcher exists to hide.
struct ResourceUsage {
  std::uint64_t max_rss_bytes = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t minor_faults = 0;
};

inline ResourceUsage resource_usage() {
  ResourceUsage out;
  struct rusage ru = {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    // Linux reports ru_maxrss in kilobytes.
    out.max_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
    out.major_faults = static_cast<std::uint64_t>(ru.ru_majflt);
    out.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  }
  return out;
}

/// Shared `--trace-json PATH` / `--obs-csv PATH` handling: exports the
/// attached tracer/registry as a Perfetto-loadable Chrome trace and as
/// counter time-series CSV.  Either pointer may be null; flags that were
/// not given are ignored.  If the tracer overflowed its capacity bound,
/// says so (the exported window covers only the most recent spans).
inline void export_observability(const util::Options& opts,
                                 const runtime::Topology& topology,
                                 const runtime::Tracer* tracer,
                                 const obs::Registry* registry) {
  const std::string trace_path = opts.get("trace-json", "");
  if (!trace_path.empty() &&
      obs::write_chrome_trace(trace_path, topology, tracer, registry)) {
    std::printf("wrote %s (open in https://ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  const std::string series_path = opts.get("obs-csv", "");
  if (!series_path.empty() && registry != nullptr &&
      obs::write_timeseries_csv(series_path, *registry)) {
    std::printf("wrote %s\n", series_path.c_str());
  }
  if (tracer != nullptr && tracer->overflowed()) {
    std::printf("note: tracer dropped %llu oldest spans (capacity %zu); "
                "exports cover the most recent window\n",
                static_cast<unsigned long long>(tracer->dropped_spans()),
                tracer->capacity());
  }
}

}  // namespace acic::bench
