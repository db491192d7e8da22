// Figure 1: the aggregated update-distance histogram observed at the
// root mid-run (RMAT graph, one node, p_tram = 0.1, 512 buckets).
//
// Paper shape to reproduce: a large peak of updates above t_tram (stuck
// in tram holds), a smaller peak from priority queues and pq_holds below
// it, a flat (nearly empty) region between them, and nothing below the
// lowest unprocessed bucket.
//
// The bench runs ACIC with histogram recording on, selects the snapshot
// with the greatest active-update mass ("middle of the run"), prints a
// text rendering and reports the two-peak structure quantitatively.

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/core/acic.hpp"
#include "src/graph/partition.hpp"
#include "src/runtime/machine.hpp"

int main(int argc, char** argv) {
  using namespace acic;
  const util::Options opts(argc, argv);

  stats::ExperimentSpec spec;
  spec.graph = stats::GraphKind::kRmat;
  spec.scale = static_cast<std::uint32_t>(opts.get_int("scale", 13));
  // 6 mini-nodes = 48 PEs, matching the paper's single-node runs.
  spec.nodes = static_cast<std::uint32_t>(opts.get_int("nodes", 6));
  spec.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));

  core::AcicConfig config;
  config.p_tram = opts.get_double("p-tram", 0.1);  // the paper's fig. 1 run
  config.record_histograms = true;

  std::printf(
      "Figure 1: aggregated histogram at the root, mid-run "
      "(rmat scale=%u, %u PEs, p_tram=%.2f, %zu buckets)  "
      "[paper: one 48-PE node]\n",
      spec.scale, spec.topology().num_pes(), config.p_tram,
      config.num_buckets);

  const graph::Csr csr = stats::build_graph(spec);
  runtime::Machine machine(spec.topology());
  const auto partition =
      graph::Partition1D::block(csr.num_vertices(), machine.num_pes());
  const core::AcicRunResult run = core::acic_sssp(
      machine, csr, partition, spec.source, config);

  if (run.histograms.empty()) {
    std::printf("no snapshots recorded\n");
    return 1;
  }

  // "Middle of the run": the cycle with the largest active-update mass.
  const auto snap_it = std::max_element(
      run.histograms.begin(), run.histograms.end(),
      [](const auto& a, const auto& b) {
        return a.active_updates < b.active_updates;
      });
  const core::HistogramSnapshot& snap = *snap_it;

  std::printf("snapshot: cycle %llu of %llu, t=%.0fus, active=%.0f, "
              "t_tram=bucket %zu, t_pq=bucket %zu\n",
              static_cast<unsigned long long>(snap.cycle),
              static_cast<unsigned long long>(run.reduction_cycles),
              snap.time_us, snap.active_updates, snap.t_tram, snap.t_pq);

  // Text rendering (one row per group of buckets with any mass).
  std::size_t lowest = snap.counts.size();
  std::size_t highest = 0;
  double peak = 0.0;
  for (std::size_t b = 0; b < snap.counts.size(); ++b) {
    if (snap.counts[b] > 0.0) {
      lowest = std::min(lowest, b);
      highest = std::max(highest, b);
      peak = std::max(peak, snap.counts[b]);
    }
  }
  std::printf("lowest bucket with updates: %zu (all lower distances "
              "already processed)\n", lowest);

  util::Table table({"bucket", "count", "bar"});
  for (std::size_t b = lowest; b <= highest && b < snap.counts.size(); ++b) {
    const double c = snap.counts[b];
    const int bar = peak > 0.0 ? static_cast<int>(50.0 * c / peak) : 0;
    std::string bars(static_cast<std::size_t>(bar), '#');
    // Not `= "."`: GCC 12 reports a false -Wrestrict there at -O2
    // without LTO.
    if (c > 0.0 && bar == 0) bars.assign(1, '.');
    table.add_row({util::strformat("%zu", b), util::strformat("%.0f", c),
                   bars});
  }
  table.print();

  // Quantitative two-peak check: mass below t_pq vs between thresholds vs
  // above t_tram.
  double below_pq = 0.0;
  double between = 0.0;
  double above_tram = 0.0;
  for (std::size_t b = 0; b < snap.counts.size(); ++b) {
    if (b <= snap.t_pq) {
      below_pq += snap.counts[b];
    } else if (b <= snap.t_tram) {
      between += snap.counts[b];
    } else {
      above_tram += snap.counts[b];
    }
  }
  std::printf("mass below t_pq: %.0f | between thresholds: %.0f | above "
              "t_tram (tram holds): %.0f\n", below_pq, between, above_tram);
  std::printf("paper shape: the above-t_tram mass dominates and the "
              "region between the peaks stays comparatively flat\n");

  bench::write_csv([&] {
    util::Table csv({"bucket", "count"});
    for (std::size_t b = 0; b < snap.counts.size(); ++b) {
      csv.add_row({util::strformat("%zu", b),
                   util::strformat("%.0f", snap.counts[b])});
    }
    return csv;
  }(), opts, "fig1_histogram.csv");

  // Optional: the whole histogram evolution (the "evolving windows" of
  // the abstract) as a cycle x bucket matrix for external plotting.
  if (opts.has("evolution")) {
    util::Table evolution({"cycle", "time_us", "active", "t_pq", "t_tram",
                           "bucket", "count"});
    for (const auto& s : run.histograms) {
      for (std::size_t b = 0; b < s.counts.size(); ++b) {
        if (s.counts[b] == 0.0) continue;  // sparse dump
        evolution.add_row({util::strformat("%llu",
                                           (unsigned long long)s.cycle),
                           util::strformat("%.0f", s.time_us),
                           util::strformat("%.0f", s.active_updates),
                           util::strformat("%zu", s.t_pq),
                           util::strformat("%zu", s.t_tram),
                           util::strformat("%zu", b),
                           util::strformat("%.0f", s.counts[b])});
      }
    }
    const std::string path = opts.get("evolution", "fig1_evolution.csv");
    if (evolution.write_csv(path)) {
      std::printf("wrote %s (%zu rows)\n", path.c_str(),
                  evolution.num_rows());
    }
  }
  return 0;
}
