// Tests for the observability layer (src/obs/ + tracer extensions):
// registry counter arithmetic and hierarchy rollups, sample coalescing,
// tracer capacity bounds with oldest-first eviction, ScopedSpan, the
// Chrome trace-event exporter's well-formedness, and the cross-check the
// ISSUE pins down: exported message totals must exactly match the
// machine's RunStats / SsspMetrics network counters.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/graph/generators.hpp"
#include "src/obs/export.hpp"
#include "src/obs/registry.hpp"
#include "src/runtime/machine.hpp"
#include "src/runtime/trace.hpp"
#include "src/server/service.hpp"
#include "src/server/workload.hpp"
#include "src/sssp/solver.hpp"

namespace {

using acic::graph::Csr;
using acic::obs::CounterId;
using acic::obs::Registry;
using acic::obs::Scope;
using acic::obs::SeriesId;
using acic::runtime::Machine;
using acic::runtime::Pe;
using acic::runtime::ScopedSpan;
using acic::runtime::SpanKind;
using acic::runtime::Topology;
using acic::runtime::Tracer;
using acic::server::QueryService;

Csr test_graph(std::uint32_t scale = 9, std::uint64_t seed = 5) {
  acic::graph::GenParams params;
  params.num_vertices = acic::graph::VertexId{1} << scale;
  params.num_edges = params.num_vertices * 8ull;
  params.seed = seed;
  return Csr::from_edge_list(acic::graph::generate_uniform_random(params));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---- counter arithmetic and rollups ------------------------------------

TEST(ObsRegistry, CounterArithmeticAndHierarchyRollup) {
  // 2 nodes x 2 procs x 2 pes: workers 0..7, comm threads 8..11.
  const Topology topo{2, 2, 2};
  Registry registry(topo);

  const CounterId id = registry.counter("test/events");
  registry.add(id, /*entity=*/0, 3, 0.0);   // node 0, proc 0
  registry.add(id, /*entity=*/1, 4, 0.0);   // node 0, proc 0
  registry.add(id, /*entity=*/2, 5, 0.0);   // node 0, proc 1
  registry.add(id, /*entity=*/6, 7, 0.0);   // node 1, proc 3
  registry.add(id, /*entity=*/9, 11, 0.0);  // comm thread of proc 1

  EXPECT_EQ(registry.total(id), 30u);
  EXPECT_EQ(registry.total("test/events"), 30u);
  EXPECT_EQ(registry.total("no/such/counter"), 0u);

  EXPECT_EQ(registry.at(id, Scope::machine()), 30u);
  // Node rollups: comm thread 9 belongs to proc 1 which is in node 0.
  EXPECT_EQ(registry.at(id, Scope::node(0)), 3u + 4u + 5u + 11u);
  EXPECT_EQ(registry.at(id, Scope::node(1)), 7u);
  // Process rollups.
  EXPECT_EQ(registry.at(id, Scope::process(0)), 3u + 4u);
  EXPECT_EQ(registry.at(id, Scope::process(1)), 5u + 11u);
  EXPECT_EQ(registry.at(id, Scope::process(3)), 7u);
  // Single-entity scopes.
  EXPECT_EQ(registry.at(id, Scope::pe(2)), 5u);
  EXPECT_EQ(registry.at(id, Scope::pe(9)), 11u);
  EXPECT_EQ(registry.at(id, Scope::pe(5)), 0u);

  // Node totals partition the machine total.
  EXPECT_EQ(registry.at(id, Scope::node(0)) + registry.at(id, Scope::node(1)),
            registry.total(id));
}

TEST(ObsRegistry, FamiliesSharedByNameAndTimedUpgrade) {
  Registry registry(Topology::tiny(2));
  const CounterId a = registry.counter("shared/family");
  const CounterId b = registry.counter("shared/family", /*timed=*/true);
  EXPECT_EQ(a.index, b.index);
  registry.add(a, 0, 1, 1.0);
  registry.add(b, 1, 2, 2.0);
  EXPECT_EQ(registry.total(a), 3u);
  // Upgraded to timed: increments append (time, machine total) samples.
  const auto* family = registry.find_counter("shared/family");
  ASSERT_NE(family, nullptr);
  EXPECT_TRUE(family->timed);
  ASSERT_EQ(family->samples.size(), 2u);
  EXPECT_DOUBLE_EQ(family->samples.back().value, 3.0);
}

TEST(ObsRegistry, SampleCoalescingKeepsFinalValueExact) {
  // Every sample is kept, except one stamped earlier than its track's
  // last: that one overwrites the last sample's value, so track times
  // never decrease and the final sample carries the exact total.
  Registry registry(Topology::tiny(2));
  const CounterId id = registry.counter("coalesced/count", /*timed=*/true);
  registry.add(id, 0, 1, 5.0);
  registry.add(id, 1, 1, 5.0);  // same time: appended
  registry.add(id, 0, 1, 3.0);  // earlier: overwrites (5.0, 2)
  registry.add(id, 1, 1, 8.0);
  const auto* family = registry.find_counter("coalesced/count");
  ASSERT_NE(family, nullptr);
  EXPECT_EQ(family->total, 4u);
  ASSERT_EQ(family->samples.size(), 3u);
  EXPECT_DOUBLE_EQ(family->samples[0].time_us, 5.0);
  EXPECT_DOUBLE_EQ(family->samples[0].value, 1.0);
  EXPECT_DOUBLE_EQ(family->samples[1].time_us, 5.0);
  EXPECT_DOUBLE_EQ(family->samples[1].value, 3.0);
  EXPECT_DOUBLE_EQ(family->samples[2].time_us, 8.0);
  EXPECT_DOUBLE_EQ(family->samples[2].value, 4.0);

  // Series follow the same rule.
  const SeriesId sid = registry.series("coalesced/depth");
  registry.append(sid, 2.0, 10.0);
  registry.append(sid, 1.0, 20.0);  // earlier: overwrites
  registry.append(sid, 2.0, 30.0);
  const auto* series = registry.find_series("coalesced/depth");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->points.size(), 2u);
  EXPECT_DOUBLE_EQ(series->points[0].time_us, 2.0);
  EXPECT_DOUBLE_EQ(series->points[0].value, 20.0);
  EXPECT_DOUBLE_EQ(series->points[1].value, 30.0);
}

TEST(ObsRegistry, SeriesScopedByNameAndScope) {
  Registry registry(Topology::tiny(4));
  const SeriesId machine_wide = registry.series("depth");
  const SeriesId pe2 = registry.series("depth", Scope::pe(2));
  EXPECT_NE(machine_wide.index, pe2.index);
  // Re-asking returns the same stream.
  EXPECT_EQ(registry.series("depth").index, machine_wide.index);
  EXPECT_EQ(registry.series("depth", Scope::pe(2)).index, pe2.index);
  registry.append(pe2, 1.0, 7.0);
  EXPECT_EQ(registry.all_series()[pe2.index].points.size(), 1u);
  EXPECT_TRUE(registry.all_series()[machine_wide.index].points.empty());
}

TEST(ObsRegistry, HistogramSeriesRecordsCycles) {
  Registry registry(Topology::tiny(2));
  const auto id = registry.histogram_series("test/hist");
  registry.append_histogram(id, 0, 10.0, {1.0, 2.0, 3.0});
  registry.append_histogram(id, 1, 20.0, {0.0, 5.0});
  const auto* series = registry.find_histogram("test/hist");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->samples.size(), 2u);
  EXPECT_EQ(series->samples[0].cycle, 0u);
  EXPECT_EQ(series->samples[1].counts.size(), 2u);
  EXPECT_DOUBLE_EQ(series->samples[1].counts[1], 5.0);
}

// ---- machine wiring ----------------------------------------------------

TEST(ObsRegistry, MachineCountersMatchRunStats) {
  const Topology topo{2, 2, 2};
  Registry registry(topo);
  Machine machine(topo);
  machine.set_registry(&registry);

  // A message chain that crosses every locality tier: 0->1 is
  // intra-process, 0->2 intra-node, 0->4 inter-node.
  machine.schedule_at(0.0, 0, [](Pe& pe) {
    pe.charge(1.0);
    pe.send(1, 64, [](Pe& q) { q.charge(1.0); });
    pe.send(2, 64, [](Pe& q) { q.charge(1.0); });
    pe.send(4, 64, [](Pe& q) { q.charge(1.0); });
  });
  const auto stats = machine.run();

  EXPECT_EQ(registry.total("runtime/tasks_executed"), stats.tasks_executed);
  EXPECT_EQ(registry.total("runtime/idle_polls"), stats.idle_polls);
  const std::uint64_t total_msgs =
      registry.total("net/messages_self") +
      registry.total("net/messages_intra_process") +
      registry.total("net/messages_intra_node") +
      registry.total("net/messages_inter_node");
  EXPECT_EQ(total_msgs, stats.messages_sent);
  EXPECT_EQ(registry.total("net/messages_intra_process"), 1u);
  EXPECT_EQ(registry.total("net/messages_intra_node"), 1u);
  EXPECT_EQ(registry.total("net/messages_inter_node"), 1u);
  const std::uint64_t total_bytes =
      registry.total("net/bytes_self") +
      registry.total("net/bytes_intra_process") +
      registry.total("net/bytes_intra_node") +
      registry.total("net/bytes_inter_node");
  EXPECT_EQ(total_bytes, stats.bytes_sent);

  // Message counters attribute to the *sender*: everything came from
  // PE 0, i.e. node 0 / process 0.
  const auto* family = registry.find_counter("net/messages_inter_node");
  ASSERT_NE(family, nullptr);
  const CounterId id{static_cast<std::size_t>(
      family - registry.counters().data())};
  EXPECT_EQ(registry.at(id, Scope::pe(0)), 1u);
  EXPECT_EQ(registry.at(id, Scope::node(1)), 0u);

  // The ready-task queue-depth series saw the arrivals.
  const auto* depth = registry.find_series("runtime/ready_tasks");
  ASSERT_NE(depth, nullptr);
  EXPECT_FALSE(depth->points.empty());
  EXPECT_DOUBLE_EQ(depth->points.back().value, 0.0);
}

// ---- tracer capacity + ScopedSpan --------------------------------------

TEST(Tracer, CapacityEvictsOldestFirst) {
  Tracer tracer;
  tracer.set_capacity(3);
  EXPECT_EQ(tracer.capacity(), 3u);
  EXPECT_FALSE(tracer.overflowed());
  for (int i = 0; i < 5; ++i) {
    tracer.record(0, i * 10.0, i * 10.0 + 5.0, SpanKind::kTask);
  }
  EXPECT_TRUE(tracer.overflowed());
  EXPECT_EQ(tracer.dropped_spans(), 2u);
  ASSERT_EQ(tracer.spans().size(), 3u);
  // Oldest two (start 0, 10) were evicted; the window holds 20, 30, 40.
  EXPECT_DOUBLE_EQ(tracer.spans().front().start_us, 20.0);
  EXPECT_DOUBLE_EQ(tracer.spans().back().start_us, 40.0);

  tracer.clear();
  EXPECT_FALSE(tracer.overflowed());
  EXPECT_EQ(tracer.dropped_spans(), 0u);

  // Shrinking the capacity evicts immediately.
  tracer.set_capacity(0);  // unbounded
  for (int i = 0; i < 10; ++i) {
    tracer.record(0, i * 1.0, i * 1.0 + 0.5, SpanKind::kTask);
  }
  EXPECT_FALSE(tracer.overflowed());
  tracer.set_capacity(4);
  EXPECT_EQ(tracer.spans().size(), 4u);
  EXPECT_TRUE(tracer.overflowed());
  EXPECT_DOUBLE_EQ(tracer.spans().front().start_us, 6.0);
}

TEST(Tracer, ScopedSpanRecordsNamedSpan) {
  const Topology topo = Topology::tiny(2);
  Tracer tracer;
  Machine machine(topo);
  machine.set_tracer(&tracer);

  machine.schedule_at(0.0, 0, [&tracer](Pe& pe) {
    const ScopedSpan span(&tracer, pe, "test/section");
    pe.charge(7.0);
  });
  machine.run();

  bool found = false;
  for (const auto& span : tracer.spans()) {
    if (span.kind == SpanKind::kNamed) {
      EXPECT_STREQ(span.name, "test/section");
      EXPECT_DOUBLE_EQ(span.end_us - span.start_us, 7.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // Null tracer: a no-op, not a crash.
  machine.schedule_at(100.0, 1, [](Pe& pe) {
    const ScopedSpan span(nullptr, pe, "ignored");
    pe.charge(1.0);
  });
  machine.run();

  // Named spans nest inside task spans, so utilization must not
  // double-count them.
  const auto util = tracer.utilization(topo.num_pes(), 8.0, 1);
  ASSERT_EQ(util.size(), 2u);
  ASSERT_EQ(util[0].size(), 1u);
  EXPECT_LE(util[0][0], 1.0);
}

// ---- exporters ---------------------------------------------------------

TEST(ObsExport, ChromeTraceIsWellFormedAndMatchesCounters) {
  const Csr csr = test_graph();
  const Topology topo{2, 2, 2};
  Registry registry(topo);
  Tracer tracer;
  Machine machine(topo);
  machine.set_tracer(&tracer);

  acic::sssp::SolverOptions opts;
  opts.registry = &registry;
  const auto run =
      acic::sssp::run_solver("acic", machine, csr, 0, opts);

  // Registry message totals == the run's own network-metric counters
  // (both drain from Machine::send), the exactness the ISSUE requires.
  const std::uint64_t total_msgs =
      registry.total("net/messages_self") +
      registry.total("net/messages_intra_process") +
      registry.total("net/messages_intra_node") +
      registry.total("net/messages_inter_node");
  EXPECT_EQ(total_msgs, run.sssp.metrics.network_messages);

  // ACIC introspection streams were published: per-cycle thresholds and
  // the update histogram.
  const auto* t_tram = registry.find_series("acic/t_tram");
  ASSERT_NE(t_tram, nullptr);
  EXPECT_GE(t_tram->points.size(), 1u);
  const auto* hist = registry.find_histogram("acic/update_histogram");
  ASSERT_NE(hist, nullptr);
  EXPECT_GE(hist->samples.size(), 1u);

  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(acic::obs::write_chrome_trace(path, topo, &tracer, &registry));
  // Every write to /dev/full fails with ENOSPC once the buffer flushes;
  // the exporter must report it, not only a failed open.
  EXPECT_FALSE(
      acic::obs::write_chrome_trace("/dev/full", topo, &tracer, &registry));
  const std::string json = slurp(path);
  ASSERT_FALSE(json.empty());

  // Chrome trace-event envelope and the event kinds Perfetto needs.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // slices
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counters
  // One counter track per locality tier.
  EXPECT_NE(json.find("net/messages_intra_process"), std::string::npos);
  EXPECT_NE(json.find("net/messages_intra_node"), std::string::npos);
  EXPECT_NE(json.find("net/messages_inter_node"), std::string::npos);
  // Thread/process naming metadata.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // Balanced braces/brackets — cheap structural well-formedness (the CI
  // workflow additionally runs a real JSON parse over this file).
  std::int64_t braces = 0;
  std::int64_t brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  std::remove(path.c_str());
}

TEST(ObsExport, TimeseriesCsvRoundTrips) {
  const Topology topo = Topology::tiny(2);
  Registry registry(topo);
  const CounterId id = registry.counter("csv/count", /*timed=*/true);
  registry.add(id, 0, 2, 5.0);
  registry.add(id, 1, 3, 9.0);
  registry.append(registry.series("csv/depth"), 1.0, 4.0);

  const std::string path = ::testing::TempDir() + "obs_series_test.csv";
  ASSERT_TRUE(acic::obs::write_timeseries_csv(path, registry));
  EXPECT_FALSE(acic::obs::write_timeseries_csv("/dev/full", registry));
  const std::string csv = slurp(path);
  EXPECT_NE(csv.find("kind,name,time_us,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,csv/count,"), std::string::npos);
  EXPECT_NE(csv.find("series,csv/depth,"), std::string::npos);
  // Final counter sample carries the exact total.
  EXPECT_NE(csv.find("counter,csv/count,9.000,5"), std::string::npos);
  std::remove(path.c_str());
}

// ---- server wiring -----------------------------------------------------

TEST(ObsServer, ServiceMetricsMatchRegistry) {
  const Csr csr = test_graph(8);
  const Topology topo{2, 2, 2};
  Registry registry(topo);
  Tracer tracer;
  tracer.set_capacity(512);
  Machine machine(topo);
  machine.set_tracer(&tracer);
  machine.set_registry(&registry);
  const auto partition = acic::graph::Partition1D::block(
      csr.num_vertices(), machine.num_pes());

  acic::server::ServiceConfig config;
  config.cache_capacity = 16;
  QueryService service(machine, csr, partition, config);

  acic::server::WorkloadConfig wl;
  wl.seed = 11;
  wl.qps = 2000.0;
  wl.num_queries = 24;
  wl.source_universe = 4;  // small universe: guarantees cache hits
  service.submit(acic::server::generate_workload(wl, csr.num_vertices()));
  service.run();

  const auto summary = service.summary();
  EXPECT_EQ(registry.total("server/queries_submitted"), 24u);
  EXPECT_EQ(registry.total("server/completed"), summary.completed);
  EXPECT_EQ(registry.total("server/cache_hits"), summary.cache_hits);
  EXPECT_GT(summary.cache_hits, 0u);

  // The front-end recorded named spans through the capacity-bounded
  // tracer.
  bool saw_arrival = false;
  for (const auto& span : tracer.spans()) {
    if (span.kind == SpanKind::kNamed &&
        std::string(span.name) == "server/arrival") {
      saw_arrival = true;
    }
  }
  EXPECT_TRUE(saw_arrival || tracer.overflowed());
}

}  // namespace
