// Determinism contract of the windowed engine: Machine::set_threads is
// a wall-clock knob, never a results knob.  Every registered solver must
// produce bit-identical distances, simulated times, metrics and machine
// totals at any thread count, and the window merge must break timestamp
// ties exactly like the one-thread (one-shard) run.  The ParallelWindow
// suite attacks the one-barrier window loop directly: a cross-node send
// landing exactly on the widened boundary, sparse traffic that must fit
// in one window, mail crossing in every window (both mailbox
// parities), cross-node traffic inside one shard, several nodes per
// shard, and runs stopped at time limits and resumed at any thread
// count.  The graph builders carry the same contract for their thread
// parameter.

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/acic.hpp"
#include "src/graph/csr.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/partition.hpp"
#include "src/runtime/machine.hpp"
#include "src/sssp/solver.hpp"
#include "src/stats/experiment.hpp"

namespace {

using acic::graph::Csr;
using acic::graph::Edge;
using acic::graph::EdgeList;
using acic::graph::GenParams;
using acic::runtime::Machine;
using acic::runtime::Pe;
using acic::runtime::PeId;
using acic::runtime::RunStats;
using acic::runtime::Topology;

/// Host-side diagnostics that legitimately vary with the engine
/// configuration (never part of the bit-identical contract).
struct Diag {
  std::uint64_t windows = 0;
  unsigned threads_used = 0;
};

/// Everything a run exposes that must be independent of the host
/// thread count.
struct Observed {
  std::vector<acic::graph::Dist> dist;
  double sim_time_us = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t updates_created = 0;
  std::uint64_t updates_processed = 0;
  std::uint64_t updates_rejected = 0;
  std::uint64_t network_messages = 0;
  std::uint64_t network_bytes = 0;
  std::uint64_t machine_events = 0;
  std::uint64_t machine_messages = 0;
  std::uint64_t machine_bytes = 0;
  std::uint64_t tasks = 0;
  std::vector<double> pe_busy_us;
};

Observed run_solver_observed(const std::string& solver,
                             const acic::stats::ExperimentSpec& spec,
                             const Csr& csr, unsigned threads,
                             Diag* diag = nullptr) {
  Machine machine(spec.topology());
  machine.set_threads(threads);
  const acic::sssp::SolverRun run =
      acic::sssp::run_solver(solver, machine, csr, spec.source, {});
  Observed o;
  o.dist = run.sssp.dist;
  o.sim_time_us = run.sssp.metrics.sim_time_us;
  o.cycles = run.telemetry.cycles;
  o.updates_created = run.sssp.metrics.updates_created;
  o.updates_processed = run.sssp.metrics.updates_processed;
  o.updates_rejected = run.sssp.metrics.updates_rejected;
  o.network_messages = run.sssp.metrics.network_messages;
  o.network_bytes = run.sssp.metrics.network_bytes;
  o.machine_events = machine.total_events_processed();
  o.machine_messages = machine.total_messages_sent();
  o.machine_bytes = machine.total_bytes_sent();
  o.pe_busy_us = run.telemetry.pe_busy_us;
  for (PeId p = 0; p < machine.num_pes(); ++p) {
    o.tasks += machine.pe_tasks_run(p);
  }
  if (diag != nullptr) {
    diag->windows = machine.total_windows();
    diag->threads_used = machine.last_threads_used();
  }
  return o;
}

void expect_identical(const Observed& a, const Observed& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.sim_time_us, b.sim_time_us);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.updates_created, b.updates_created);
  EXPECT_EQ(a.updates_processed, b.updates_processed);
  EXPECT_EQ(a.updates_rejected, b.updates_rejected);
  EXPECT_EQ(a.network_messages, b.network_messages);
  EXPECT_EQ(a.network_bytes, b.network_bytes);
  EXPECT_EQ(a.machine_events, b.machine_events);
  EXPECT_EQ(a.machine_messages, b.machine_messages);
  EXPECT_EQ(a.machine_bytes, b.machine_bytes);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.pe_busy_us, b.pe_busy_us);
}

TEST(ParallelEngine, EverySolverMatchesSerialAtAnyThreadCount) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    acic::stats::ExperimentSpec spec;
    spec.graph = acic::stats::GraphKind::kRandom;
    spec.scale = 10;
    spec.edge_factor = 8;
    spec.seed = seed;
    spec.nodes = 4;  // 4 nodes x 8 PEs: real cross-node traffic
    const Csr csr = acic::stats::build_graph(spec);
    for (const std::string& solver : acic::sssp::solver_names()) {
      const Observed serial = run_solver_observed(solver, spec, csr, 1);
      for (const unsigned threads : {2u, 4u}) {
        Diag diag;
        const Observed parallel =
            run_solver_observed(solver, spec, csr, threads, &diag);
        expect_identical(serial, parallel,
                         solver + " seed=" + std::to_string(seed) +
                             " threads=" + std::to_string(threads));
        // The sequential baseline never drives the machine, so the
        // parallel engine (and its thread clamp) only engages for the
        // event-driven solvers — visible as a nonzero window count.
        if (diag.windows > 0) {
          EXPECT_EQ(diag.threads_used, threads);
        } else {
          EXPECT_EQ(solver, "sequential");
        }
      }
    }
  }
}

// Adversarial timestamp ties: six senders on three different nodes all
// deliver to PE 0 at the exact same simulated instant.  The serial
// engine breaks the tie by the composite (node, counter) sequence key;
// the window merge must reproduce that order exactly, not just some
// deterministic order of its own.
TEST(ParallelEngine, WindowMergeBreaksTimestampTiesLikeSerial) {
  auto run_once = [](unsigned threads) {
    Machine machine(Topology{4, 1, 2});
    machine.set_threads(threads);
    std::vector<int> order;
    // PEs 2..7 live on nodes 1..3; node 0 only receives.
    for (PeId p = 2; p < 8; ++p) {
      machine.schedule_at(0.0, p, [&order, p](Pe& pe) {
        pe.send(0, 64, [&order, p](Pe&) {
          order.push_back(static_cast<int>(p));
        });
        pe.send(0, 64, [&order, p](Pe&) {
          order.push_back(100 + static_cast<int>(p));
        });
      });
    }
    const RunStats stats = machine.run();
    return std::pair(order, stats.end_time_us);
  };

  const auto [serial_order, serial_end] = run_once(1);
  EXPECT_EQ(serial_order.size(), 12u);
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    const auto [order, end] = run_once(threads);
    EXPECT_EQ(order, serial_order);
    EXPECT_EQ(end, serial_end);
  }
}

// --- Window suite ----------------------------------------------------

/// Zero-overhead network with a 4 us inter-node wire: zero-byte
/// arrivals land at send time + 4 exactly, and 4 is the lookahead.
acic::runtime::NetworkModel wire4() {
  acic::runtime::NetworkModel net;
  net.send_overhead_us = 0.0;
  net.recv_overhead_us = 0.0;
  net.latency_inter_node_us = 4.0;
  return net;
}

// A cross-node send whose arrival lands *exactly* on the widened window
// boundary.  Two nodes, one PE each, inter-node latency 4, zero
// overheads and zero-byte messages so arrivals sit at send_time + 4
// exactly.  PE 0 runs a(t=0) which mails node 1; node 1's handler at
// t=4 mails a response back that lands at t=8 — exactly the feedback
// bound a(0)'s own send imposes on shard 0 (arrival 4 + lookahead 4).
// The correct order interleaves the response before c(t=9).  An engine
// that widened shard 0's window by the static rule alone (other shards'
// minima only) would run c — and anything after it — before the
// response could land.
TEST(ParallelWindow, CrossNodeArrivalExactlyOnWidenedBoundary) {
  // The response task runs on PE 0, so it can record into the same
  // vector as the locally scheduled probes without a cross-shard write.
  auto run_once = [](unsigned threads) {
    Machine machine(Topology{2, 1, 1}, wire4());
    machine.set_threads(threads);
    std::vector<char> order;
    machine.schedule_at(0.0, 0, [&order](Pe& pe) {
      order.push_back('a');
      pe.send(1, 0, [&order](Pe& peer) {
        peer.send(0, 0, [&order](Pe&) { order.push_back('r'); });
      });
    });
    machine.schedule_at(6.0, 0, [&order](Pe&) { order.push_back('b'); });
    machine.schedule_at(9.0, 0, [&order](Pe&) { order.push_back('c'); });
    const RunStats stats = machine.run();
    return std::tuple(order, stats.end_time_us, machine.total_windows());
  };

  const auto [serial_order, serial_end, serial_windows] = run_once(1);
  EXPECT_EQ(std::string(serial_order.begin(), serial_order.end()), "abrc");
  EXPECT_EQ(serial_windows, 1u);  // a lone shard runs one window
  const auto [order, end, windows] = run_once(2);
  EXPECT_EQ(order, serial_order);
  EXPECT_EQ(end, serial_end);
  EXPECT_GT(windows, 0u);
}

// Sparse cross-node traffic is where the widening rule pays: node 0
// carries a chain of local events spaced 10 simulated-us apart (far
// wider than the 3 us lookahead) and node 1 stays silent.  A window
// fixed at one lookahead would need one window per event; the plan
// covers the whole run in a single window because no other shard can
// ever interfere.
TEST(ParallelWindow, AdaptiveStrictlyReducesWindowsOnSparseTraffic) {
  Machine machine(Topology{2, 1, 1});
  machine.set_threads(2);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    machine.schedule_at(10.0 * i, 0, [&order, i](Pe&) { order.push_back(i); });
  }
  const RunStats stats = machine.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(stats.end_time_us, 90.0);
  EXPECT_EQ(stats.windows, 1u);  // silent peer => unbounded widening
  // No cross-node sends anywhere: no window has mail to merge.
  EXPECT_EQ(stats.window_merges, 0u);
}

// Mail crosses nodes in every window, so the double-buffered outboxes
// alternate parity each window: window k writes parity k % 2 while the
// receivers drain parity (k - 1) % 2.  One ball bounces between two
// nodes for 20 hops (each hop must wait for the previous window's
// mail), a second ball crosses it half a microsecond behind, and each
// node runs a local 1 us tick chain in between.  Every node's record
// must match serial; with the single ball alone, the window and merge
// counts are exact.
TEST(ParallelWindow, MailboxParitiesAlternateEveryWindow) {
  constexpr int kHops = 20;
  struct Records {
    std::vector<int> node[2];
  };
  // Each task records on its own node only, so the two vectors are
  // never written by two shards.
  struct Ball {
    Records* rec;
    int id;
    int hop;
    void operator()(Pe& pe) const {
      rec->node[pe.id()].push_back(1000 * id + hop);
      if (hop < kHops) pe.send(1 - pe.id(), 0, Ball{rec, id, hop + 1});
    }
  };
  auto run_once = [](unsigned threads, bool second_ball, bool ticks) {
    Machine machine(Topology{2, 1, 1}, wire4());
    machine.set_threads(threads);
    Records rec;
    machine.schedule_at(0.0, 0, Ball{&rec, 1, 0});
    if (second_ball) machine.schedule_at(0.5, 1, Ball{&rec, 2, 0});
    if (ticks) {
      for (PeId p = 0; p < 2; ++p) {
        for (int t = 1; t < 4 * kHops; ++t) {
          machine.schedule_at(1.0 * t, p, [&rec, t](Pe& pe) {
            rec.node[pe.id()].push_back(-t);
          });
        }
      }
    }
    const RunStats stats = machine.run();
    return std::tuple(rec.node[0], rec.node[1], stats.end_time_us,
                      stats.windows, stats.window_merges);
  };

  for (const bool second_ball : {false, true}) {
    for (const bool ticks : {false, true}) {
      SCOPED_TRACE(std::string(second_ball ? "two balls" : "one ball") +
                   (ticks ? " + ticks" : ""));
      const auto serial = run_once(1, second_ball, ticks);
      const auto parallel = run_once(2, second_ball, ticks);
      EXPECT_EQ(std::get<0>(parallel), std::get<0>(serial));
      EXPECT_EQ(std::get<1>(parallel), std::get<1>(serial));
      EXPECT_EQ(std::get<2>(parallel), std::get<2>(serial));
      EXPECT_GE(std::get<4>(parallel), static_cast<std::uint64_t>(kHops));
      if (!second_ball && !ticks) {
        // One window per hop; all but the last one sent mail.
        EXPECT_EQ(std::get<3>(parallel), kHops + 1u);
        EXPECT_EQ(std::get<4>(parallel), static_cast<std::uint64_t>(kHops));
      }
    }
  }
}

// Cross-node traffic between two nodes of one shard never waits for a
// window: the shard's own heap orders it.  One ball bounces 20 hops
// between nodes 0 and 1 of a 4-node machine.  At 2 threads shard 0 owns
// both nodes, so the whole run is one window with nothing to merge; at
// 4 threads every hop crosses shards and waits for the next window, as
// in the two-node parity test.  Both records equal the one-thread run.
TEST(ParallelWindow, CrossNodeTrafficInsideOneShardNeedsNoWindow) {
  constexpr int kHops = 20;
  struct Ball {
    std::vector<int>* rec;  // one record per node; PE p is node p
    int hop;
    void operator()(Pe& pe) const {
      rec[pe.id()].push_back(hop);
      if (hop < kHops) pe.send(1 - pe.id(), 0, Ball{rec, hop + 1});
    }
  };
  auto run_once = [](unsigned threads) {
    Machine machine(Topology{4, 1, 1}, wire4());
    machine.set_threads(threads);
    std::vector<int> rec[2];
    machine.schedule_at(0.0, 0, Ball{rec, 0});
    const RunStats stats = machine.run();
    return std::tuple(rec[0], rec[1], stats.end_time_us, stats.windows,
                      stats.window_merges);
  };

  const auto one = run_once(1);
  EXPECT_EQ(std::get<0>(one).size() + std::get<1>(one).size(), kHops + 1u);
  const auto two = run_once(2);
  const auto four = run_once(4);
  for (const auto* run : {&two, &four}) {
    EXPECT_EQ(std::get<0>(*run), std::get<0>(one));
    EXPECT_EQ(std::get<1>(*run), std::get<1>(one));
    EXPECT_EQ(std::get<2>(*run), std::get<2>(one));
  }
  EXPECT_EQ(std::get<3>(two), 1u);
  EXPECT_EQ(std::get<4>(two), 0u);
  EXPECT_EQ(std::get<3>(four), kHops + 1u);
  EXPECT_EQ(std::get<4>(four), static_cast<std::uint64_t>(kHops));
}

// Many more nodes than threads with a skewed R-MAT degree distribution:
// each of the 4 shards owns a fixed range of 3 nodes in one heap.
// Results must stay bit-identical to the one-thread run, and the clamp
// must report the requested thread count (12 nodes >= 4 threads).
TEST(ParallelWindow, TwelveNodesOnFourShardsMatchOneThread) {
  acic::stats::ExperimentSpec spec;
  spec.graph = acic::stats::GraphKind::kRmat;
  spec.scale = 9;
  spec.edge_factor = 8;
  spec.seed = 5;
  spec.nodes = 12;
  const Csr csr = acic::stats::build_graph(spec);
  const Observed serial = run_solver_observed("acic", spec, csr, 1);
  Diag diag;
  const Observed parallel = run_solver_observed("acic", spec, csr, 4, &diag);
  expect_identical(serial, parallel, "12 nodes on 4 threads");
  EXPECT_EQ(diag.threads_used, 4u);
  EXPECT_GT(diag.windows, 0u);
}

// The engine clamps nthreads to the node count; RunStats must report
// the effective number, not the requested one.
TEST(ParallelWindow, ThreadCountClampedToNodeCount) {
  Machine machine(Topology{4, 1, 2});
  machine.set_threads(8);
  int ran = 0;
  machine.schedule_at(0.0, 0, [&ran](Pe&) { ++ran; });
  const RunStats stats = machine.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(stats.threads_used, 4u);
  EXPECT_EQ(machine.last_threads_used(), 4u);
}

/// What a time-sliced acic run must reproduce from one serial run().
struct SlicedOutcome {
  std::vector<acic::graph::Dist> dist;
  double end_time_us = 0.0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
};

/// One acic query on a fresh 4-node machine; `drive` calls run() (and
/// set_threads) however it likes, but must leave the queue drained.
template <typename Drive>
SlicedOutcome run_acic_driven(const Csr& csr, Drive drive) {
  Machine machine(Topology{4, 2, 2});
  const auto partition = acic::graph::Partition1D::block(
      csr.num_vertices(), machine.num_pes());
  acic::core::AcicEngine engine(machine, csr, partition, 0,
                                acic::core::AcicConfig{});
  drive(machine);
  EXPECT_TRUE(engine.complete());
  SlicedOutcome out;
  out.dist = engine.collect().sssp.dist;
  out.end_time_us = machine.current_time();
  out.events = machine.total_events_processed();
  out.messages = machine.total_messages_sent();
  return out;
}

// run(limit) may be called repeatedly at any thread count.  A run
// stopped at a limit leaves tasks queued in PE FIFOs (as slot indices)
// and mail in flight; the next run — at any thread count — must pick
// both up exactly.  Slices of 0.7 us (shorter than the 3 us lookahead),
// 3 us (exactly one lookahead), 5.5 us and 1000 us at 2 and 4 threads,
// plus single thread-count switches mid-run and counts alternating
// every slice, must all reproduce one one-thread run().
TEST(ParallelWindow, TimeSlicedRunsMatchOneSerialRun) {
  GenParams params;
  params.num_vertices = 1u << 11;
  params.num_edges = params.num_vertices * 8ull;
  params.seed = 3;
  const Csr csr =
      Csr::from_edge_list(acic::graph::generate_uniform_random(params));

  const SlicedOutcome serial =
      run_acic_driven(csr, [](Machine& m) { m.run(); });
  ASSERT_GT(serial.end_time_us, 0.0);

  auto expect_same = [&serial](const SlicedOutcome& got,
                               const std::string& label) {
    SCOPED_TRACE(label);
    EXPECT_EQ(got.dist, serial.dist);
    EXPECT_EQ(got.end_time_us, serial.end_time_us);
    EXPECT_EQ(got.events, serial.events);
    EXPECT_EQ(got.messages, serial.messages);
  };
  // Runs slice after slice, choosing the thread count per slice, until
  // a run finishes without hitting its limit.
  auto sliced = [](double slice, auto threads_for) {
    return [slice, threads_for](Machine& m) {
      for (int i = 1;; ++i) {
        m.set_threads(threads_for(i));
        if (!m.run(slice * i).hit_time_limit) break;
      }
    };
  };

  for (const unsigned threads : {2u, 4u}) {
    for (const double slice : {0.7, 3.0, 5.5, 1000.0}) {
      expect_same(
          run_acic_driven(csr, sliced(slice, [threads](int) {
                            return threads;
                          })),
          "threads=" + std::to_string(threads) +
              " slice=" + std::to_string(slice));
    }
  }
  const double mid = serial.end_time_us / 2;
  for (const auto& [first, second] :
       {std::pair{1u, 4u}, std::pair{4u, 1u}, std::pair{2u, 1u}}) {
    expect_same(run_acic_driven(csr,
                                [=](Machine& m) {
                                  m.set_threads(first);
                                  ASSERT_TRUE(m.run(mid).hit_time_limit);
                                  m.set_threads(second);
                                  m.run();
                                }),
                "switch " + std::to_string(first) + "->" +
                    std::to_string(second));
  }
  expect_same(run_acic_driven(csr, sliced(25.0,
                                          [](int i) {
                                            return std::array{1u, 4u,
                                                              2u}[i % 3];
                                          })),
              "alternating 1/4/2 every 25 us");
}

void expect_same_edges(const EdgeList& a, const EdgeList& b) {
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.num_edges(); ++i) {
    const Edge& x = a.edges()[i];
    const Edge& y = b.edges()[i];
    ASSERT_EQ(x.src, y.src) << "edge " << i;
    ASSERT_EQ(x.dst, y.dst) << "edge " << i;
    ASSERT_EQ(x.weight, y.weight) << "edge " << i;
  }
}

TEST(ParallelEngine, GeneratorsIdenticalAtAnyThreadCount) {
  GenParams params;
  params.num_vertices = 1u << 12;
  // Several chunks plus a ragged tail, so the chunk seams are exercised.
  params.num_edges = (1ull << 17) + 12345;
  params.seed = 7;

  using Generator = EdgeList (*)(const GenParams&);
  const Generator generators[] = {
      [](const GenParams& p) { return acic::graph::generate_rmat(p); },
      [](const GenParams& p) {
        return acic::graph::generate_uniform_random(p);
      },
      [](const GenParams& p) {
        return acic::graph::generate_erdos_renyi(p);
      },
  };
  for (const Generator gen : generators) {
    GenParams serial = params;
    serial.threads = 1;
    const EdgeList reference = gen(serial);
    for (const unsigned threads : {2u, 4u}) {
      GenParams parallel = params;
      parallel.threads = threads;
      expect_same_edges(reference, gen(parallel));
    }
  }
}

TEST(ParallelEngine, CsrBuildIdenticalAtAnyThreadCount) {
  GenParams params;
  params.num_vertices = 1u << 12;
  params.num_edges = (1ull << 17) + 999;
  params.seed = 11;
  const EdgeList list = acic::graph::generate_rmat(params);

  const Csr serial = Csr::from_edge_list(list, 1);
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    const Csr parallel = Csr::from_edge_list(list, threads);
    EXPECT_TRUE(std::ranges::equal(serial.offsets(), parallel.offsets()));
    ASSERT_EQ(serial.neighbors().size(), parallel.neighbors().size());
    for (std::size_t i = 0; i < serial.neighbors().size(); ++i) {
      ASSERT_EQ(serial.neighbors()[i].dst, parallel.neighbors()[i].dst)
          << "slot " << i;
      ASSERT_EQ(serial.neighbors()[i].weight,
                parallel.neighbors()[i].weight)
          << "slot " << i;
    }
  }
}

}  // namespace
