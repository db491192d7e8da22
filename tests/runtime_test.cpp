// Unit tests for the discrete-event runtime: topology math, event
// ordering, task/charge semantics, network costing, idle handlers,
// reductions/broadcasts, the termination detector and the superstep
// barrier.

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

#include "src/runtime/collectives.hpp"
#include "src/runtime/machine.hpp"

namespace {

using acic::runtime::IdleHandler;
using acic::runtime::DrainRule;
using acic::runtime::Locality;
using acic::runtime::Machine;
using acic::runtime::NetworkModel;
using acic::runtime::Pe;
using acic::runtime::PeId;
using acic::runtime::Reducer;
using acic::runtime::ReduceOp;
using acic::runtime::RunStats;
using acic::runtime::SimTime;
using acic::runtime::Superstep;
using acic::runtime::TerminationDetector;
using acic::runtime::Topology;

TEST(Topology, CountsAndOwnership) {
  const Topology topo{2, 3, 4};  // 2 nodes, 3 procs/node, 4 PEs/proc
  EXPECT_EQ(topo.num_pes(), 24u);
  EXPECT_EQ(topo.num_procs(), 6u);
  EXPECT_EQ(topo.num_entities(), 30u);
  EXPECT_EQ(topo.proc_of(0), 0u);
  EXPECT_EQ(topo.proc_of(4), 1u);
  EXPECT_EQ(topo.proc_of(23), 5u);
  EXPECT_EQ(topo.node_of(0), 0u);
  EXPECT_EQ(topo.node_of(11), 0u);
  EXPECT_EQ(topo.node_of(12), 1u);
}

TEST(Topology, CommThreadIds) {
  const Topology topo{2, 3, 4};
  EXPECT_FALSE(topo.is_comm_thread(23));
  EXPECT_TRUE(topo.is_comm_thread(24));
  EXPECT_EQ(topo.comm_thread_of_proc(0), 24u);
  EXPECT_EQ(topo.proc_of(topo.comm_thread_of_proc(5)), 5u);
  EXPECT_EQ(topo.node_of(topo.comm_thread_of_proc(3)), 1u);
}

TEST(Topology, LocalityClassification) {
  const Topology topo{2, 2, 2};
  EXPECT_EQ(topo.locality(0, 0), Locality::kSelf);
  EXPECT_EQ(topo.locality(0, 1), Locality::kIntraProcess);
  EXPECT_EQ(topo.locality(0, 2), Locality::kIntraNode);
  EXPECT_EQ(topo.locality(0, 4), Locality::kInterNode);
}

TEST(Topology, PaperNodeIs48Workers) {
  const Topology topo = Topology::paper_node(1);
  EXPECT_EQ(topo.num_pes(), 48u);
  EXPECT_EQ(topo.num_procs(), 8u);
}

TEST(NetworkModel, TransferMonotoneInBytesAndDistance) {
  const NetworkModel net;
  EXPECT_LT(net.transfer_time(Locality::kIntraProcess, 100),
            net.transfer_time(Locality::kIntraNode, 100));
  EXPECT_LT(net.transfer_time(Locality::kIntraNode, 100),
            net.transfer_time(Locality::kInterNode, 100));
  EXPECT_LT(net.transfer_time(Locality::kInterNode, 100),
            net.transfer_time(Locality::kInterNode, 100000));
}

TEST(Machine, TasksRunInScheduleOrder) {
  Machine machine(Topology::tiny(1));
  std::vector<int> order;
  machine.schedule_at(2.0, 0, [&](Pe&) { order.push_back(2); });
  machine.schedule_at(1.0, 0, [&](Pe&) { order.push_back(1); });
  machine.schedule_at(3.0, 0, [&](Pe&) { order.push_back(3); });
  machine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Machine, TieBreaksBySequenceNumber) {
  Machine machine(Topology::tiny(1));
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    machine.schedule_at(1.0, 0, [&order, i](Pe&) { order.push_back(i); });
  }
  machine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Machine, ChargeAdvancesTaskTime) {
  Machine machine(Topology::tiny(1));
  SimTime after_first = 0.0;
  machine.schedule_at(0.0, 0, [&](Pe& pe) {
    pe.charge(10.0);
    after_first = pe.now();
  });
  SimTime second_start = 0.0;
  machine.schedule_at(0.0, 0, [&](Pe& pe) { second_start = pe.now(); });
  machine.run();
  EXPECT_DOUBLE_EQ(after_first, 10.0);
  // The second task cannot start before the first's simulated CPU ends.
  EXPECT_GE(second_start, 10.0);
}

TEST(Machine, SendPaysNetworkCosts) {
  const Topology topo{2, 1, 1};  // two single-PE nodes
  NetworkModel net;
  net.send_overhead_us = 1.0;
  net.recv_overhead_us = 2.0;
  net.latency_inter_node_us = 10.0;
  net.bytes_per_us_inter_node = 100.0;
  Machine machine(topo, net);

  SimTime arrival_time = -1.0;
  machine.schedule_at(0.0, 0, [&](Pe& pe) {
    pe.send(1, 1000, [&](Pe& dst) { arrival_time = dst.now(); });
  });
  machine.run();
  // send overhead 1 + latency 10 + 1000B/100Bpu = 10 + recv overhead 2.
  EXPECT_DOUBLE_EQ(arrival_time, 1.0 + 10.0 + 10.0 + 2.0);
}

TEST(Machine, IntraProcessCheaperThanInterNode) {
  const Topology topo{2, 1, 2};
  Machine machine(topo);
  SimTime local_arrival = 0.0;
  SimTime remote_arrival = 0.0;
  machine.schedule_at(0.0, 0, [&](Pe& pe) {
    pe.send(1, 64, [&](Pe& d) { local_arrival = d.now(); });
  });
  machine.schedule_at(0.0, 1, [&](Pe& pe) {
    pe.send(2, 64, [&](Pe& d) { remote_arrival = d.now(); });
  });
  machine.run();
  EXPECT_LT(local_arrival, remote_arrival);
}

TEST(Machine, RunStatsCountMessagesAndBytes) {
  Machine machine(Topology::tiny(2));
  machine.schedule_at(0.0, 0, [&](Pe& pe) {
    pe.send(1, 100, [](Pe&) {});
    pe.send(1, 200, [](Pe&) {});
  });
  const RunStats stats = machine.run();
  EXPECT_EQ(stats.messages_sent, 2u);
  EXPECT_EQ(stats.bytes_sent, 300u);
  EXPECT_GE(stats.tasks_executed, 3u);  // the kick-off task + 2 arrivals
}

TEST(Machine, IdleHandlerRunsWhenQueueDrains) {
  Machine machine(Topology::tiny(1));
  int polls = 0;
  machine.add_idle_handler(0, [&](Pe&) {
    ++polls;
    return polls < 3;  // do "work" twice, then sleep
  });
  machine.schedule_at(0.0, 0, [](Pe&) {});
  machine.run();
  EXPECT_EQ(polls, 3);
}

TEST(Machine, IdleHandlerWakesAfterNewArrival) {
  Machine machine(Topology::tiny(1));
  int polls = 0;
  machine.add_idle_handler(0, [&](Pe&) {
    ++polls;
    return false;
  });
  machine.schedule_at(0.0, 0, [](Pe&) {});
  machine.schedule_at(100.0, 0, [](Pe&) {});
  machine.run();
  EXPECT_GE(polls, 2);  // once after each task drains the queue
}

TEST(Machine, TimeLimitStopsRun) {
  Machine machine(Topology::tiny(1));
  machine.add_idle_handler(0, [&](Pe& pe) {
    pe.charge(10.0);
    return true;  // work forever
  });
  machine.schedule_at(0.0, 0, [](Pe&) {});
  const RunStats stats = machine.run(1000.0);
  EXPECT_TRUE(stats.hit_time_limit);
  EXPECT_LE(stats.end_time_us, 1100.0);
}

TEST(Machine, HitTimeLimitFalseWhenQueueDrains) {
  Machine machine(Topology::tiny(1));
  machine.schedule_at(0.0, 0, [](Pe& pe) { pe.charge(10.0); });
  const RunStats stats = machine.run();  // no limit
  EXPECT_FALSE(stats.hit_time_limit);

  // A generous explicit limit that is never reached must not trip.
  machine.schedule_at(20.0, 0, [](Pe& pe) { pe.charge(1.0); });
  const RunStats bounded = machine.run(1e9);
  EXPECT_FALSE(bounded.hit_time_limit);
}

TEST(Machine, HitTimeLimitResumableAcrossRuns) {
  Machine machine(Topology::tiny(1));
  int executed = 0;
  machine.schedule_at(0.0, 0, [&](Pe&) { ++executed; });
  machine.schedule_at(500.0, 0, [&](Pe&) { ++executed; });

  const RunStats first = machine.run(100.0);
  EXPECT_TRUE(first.hit_time_limit);
  EXPECT_EQ(executed, 1);  // the 500us event is still queued

  const RunStats second = machine.run();
  EXPECT_FALSE(second.hit_time_limit);
  EXPECT_EQ(executed, 2);
  EXPECT_GE(second.end_time_us, 500.0);
}

TEST(Machine, IdleHandlersMultiplexRoundRobin) {
  // Two tenants on one PE: the machine must poll both (no clobbering)
  // and rotate the starting handler so neither starves the other.
  Machine machine(Topology::tiny(1));
  std::vector<int> served;
  int a_budget = 3;
  int b_budget = 3;
  machine.add_idle_handler(0, [&](Pe& pe) {
    if (a_budget == 0) return false;
    --a_budget;
    served.push_back(0);
    pe.charge(1.0);
    return true;
  });
  machine.add_idle_handler(0, [&](Pe& pe) {
    if (b_budget == 0) return false;
    --b_budget;
    served.push_back(1);
    pe.charge(1.0);
    return true;
  });
  machine.schedule_at(0.0, 0, [](Pe&) {});
  machine.run();
  ASSERT_EQ(served.size(), 6u);
  // Strict alternation: after a handler does work, the next poll starts
  // with the other one.
  for (std::size_t i = 1; i < served.size(); ++i) {
    EXPECT_NE(served[i], served[i - 1]) << "at poll " << i;
  }
}

TEST(Machine, RemoveIdleHandlerStopsPolling) {
  Machine machine(Topology::tiny(1));
  int a_polls = 0;
  int b_polls = 0;
  const auto id_a = machine.add_idle_handler(0, [&](Pe&) {
    ++a_polls;
    return false;
  });
  machine.add_idle_handler(0, [&](Pe&) {
    ++b_polls;
    return false;
  });
  machine.schedule_at(0.0, 0, [](Pe&) {});
  machine.run();
  // Two polls: registration pokes the PE (one wake-up poll covers both
  // adds), then the scheduled task drains and triggers a second poll.
  EXPECT_EQ(a_polls, 2);
  EXPECT_EQ(b_polls, 2);
  EXPECT_EQ(machine.num_idle_handlers(0), 2u);

  machine.remove_idle_handler(0, id_a);
  EXPECT_EQ(machine.num_idle_handlers(0), 1u);
  machine.schedule_at(1000.0, 0, [](Pe&) {});
  machine.run();
  EXPECT_EQ(a_polls, 2);  // removed handler is never polled again
  EXPECT_EQ(b_polls, 3);
}

TEST(TopologyDeath, RejectsZeroDimensions) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(Machine(Topology{0, 1, 1}), "nodes must be > 0");
  EXPECT_DEATH(Machine(Topology{1, 0, 1}), "procs_per_node must be > 0");
  EXPECT_DEATH(Machine(Topology{1, 1, 0}), "pes_per_proc must be > 0");
}

TEST(Machine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Machine machine(Topology{1, 2, 2});
    std::vector<std::pair<PeId, SimTime>> log;
    for (PeId p = 0; p < machine.num_pes(); ++p) {
      machine.schedule_at(0.0, p, [&log, p](Pe& pe) {
        pe.charge(1.0);
        pe.send((p + 1) % 4, 64, [&log](Pe& dst) {
          log.emplace_back(dst.id(), dst.now());
        });
      });
    }
    machine.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Reducer, SumsAllContributionsAtRoot) {
  Machine machine(Topology::tiny(7));
  std::vector<double> root_sum;
  Reducer reducer(
      machine, 2,
      [&](Pe&, std::uint64_t, const std::vector<double>& sum)
          -> std::optional<std::vector<double>> {
        root_sum = sum;
        return std::nullopt;
      },
      [](Pe&, std::uint64_t, const std::vector<double>&) {});
  for (PeId p = 0; p < machine.num_pes(); ++p) {
    machine.schedule_at(0.0, p, [&reducer, p](Pe& pe) {
      reducer.contribute(pe, {1.0, static_cast<double>(p)});
    });
  }
  machine.run();
  ASSERT_EQ(root_sum.size(), 2u);
  EXPECT_DOUBLE_EQ(root_sum[0], 7.0);
  EXPECT_DOUBLE_EQ(root_sum[1], 21.0);  // 0+1+...+6
}

TEST(Reducer, BroadcastReachesEveryPe) {
  Machine machine(Topology{1, 2, 3});
  std::vector<int> seen(machine.num_pes(), 0);
  Reducer reducer(
      machine, 1,
      [](Pe&, std::uint64_t,
         const std::vector<double>&) -> std::optional<std::vector<double>> {
        return std::vector<double>{42.0};
      },
      [&](Pe& pe, std::uint64_t, const std::vector<double>& payload) {
        EXPECT_DOUBLE_EQ(payload[0], 42.0);
        ++seen[pe.id()];
      });
  for (PeId p = 0; p < machine.num_pes(); ++p) {
    machine.schedule_at(0.0, p, [&reducer](Pe& pe) {
      reducer.contribute(pe, {1.0});
    });
  }
  machine.run();
  for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST(Reducer, PipelinedCyclesKeepSumsSeparate) {
  Machine machine(Topology::tiny(3));
  std::vector<double> sums;
  Reducer reducer(
      machine, 1,
      [&](Pe&, std::uint64_t, const std::vector<double>& sum)
          -> std::optional<std::vector<double>> {
        sums.push_back(sum[0]);
        return std::nullopt;
      },
      [](Pe&, std::uint64_t, const std::vector<double>&) {});
  for (PeId p = 0; p < machine.num_pes(); ++p) {
    machine.schedule_at(0.0, p, [&reducer](Pe& pe) {
      reducer.contribute(pe, {1.0});  // cycle 0
      reducer.contribute(pe, {10.0});  // cycle 1 immediately after
    });
  }
  machine.run();
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_DOUBLE_EQ(sums[0], 3.0);
  EXPECT_DOUBLE_EQ(sums[1], 30.0);
}

TEST(Reducer, SingletonMachineReducesTrivially) {
  Machine machine(Topology::tiny(1));
  int cycles = 0;
  Reducer reducer(
      machine, 1,
      [&](Pe&, std::uint64_t,
          const std::vector<double>& sum) -> std::optional<std::vector<double>> {
        ++cycles;
        EXPECT_DOUBLE_EQ(sum[0], 5.0);
        return std::nullopt;
      },
      [](Pe&, std::uint64_t, const std::vector<double>&) {});
  machine.schedule_at(0.0, 0, [&reducer](Pe& pe) {
    reducer.contribute(pe, {5.0});
  });
  machine.run();
  EXPECT_EQ(cycles, 1);
}

TEST(Reducer, ShortContributionsSumLikeZeroPaddedOnes) {
  // PE p contributes its first p slots (PE 0 an empty vector) of integer
  // counts, some negative; the reference run pads every contribution
  // with zeros to the full width.  Root sums, bytes and every PE's clock
  // (the combine charge) must not tell the two apart.
  static constexpr std::size_t kWidth = 10;
  struct Outcome {
    std::vector<double> root;
    std::vector<SimTime> busy;
    SimTime end = 0.0;
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;
  };
  const auto run = [&](bool pad) {
    Machine machine(Topology{2, 1, 4});
    Outcome out;
    Reducer reducer(
        machine, kWidth,
        [&](Pe&, std::uint64_t, const std::vector<double>& sum)
            -> std::optional<std::vector<double>> {
          out.root = sum;
          return std::nullopt;
        },
        [](Pe&, std::uint64_t, const std::vector<double>&) {},
        /*fanout=*/2);
    for (PeId p = 0; p < machine.num_pes(); ++p) {
      machine.schedule_at(0.0, p, [&reducer, p, pad](Pe& pe) {
        std::vector<double> value;
        for (PeId i = 0; i < p; ++i) {
          value.push_back(static_cast<double>(static_cast<int>(i) - 3));
        }
        if (pad) value.resize(kWidth, 0.0);
        reducer.contribute(pe, value);
      });
    }
    out.end = machine.run().end_time_us;
    out.bytes = machine.total_bytes_sent();
    out.messages = machine.total_messages_sent();
    for (PeId p = 0; p < machine.num_pes(); ++p) {
      out.busy.push_back(machine.pe_busy_us(p));
    }
    return out;
  };
  const Outcome short_run = run(false);
  const Outcome padded = run(true);
  ASSERT_EQ(short_run.root.size(), kWidth);
  EXPECT_EQ(short_run.root, padded.root);
  EXPECT_DOUBLE_EQ(short_run.root[0], -21.0);  // seven PEs contribute -3
  EXPECT_DOUBLE_EQ(short_run.root[kWidth - 1], 0.0);  // nobody reached it
  EXPECT_EQ(short_run.busy, padded.busy);
  EXPECT_EQ(short_run.end, padded.end);
  EXPECT_EQ(short_run.bytes, padded.bytes);
  EXPECT_EQ(short_run.messages, padded.messages);
}

TEST(PeMeter, AddsEqualChargesBitForBit) {
  // The same charge sequence, once through charge() and once through a
  // Meter that commits around an interleaved charge (as a tram flush
  // does), must leave identical clocks and busy totals.
  const std::vector<SimTime> costs = {0.01, 0.008, 0.012, 0.004,
                                      0.001, 0.3,   0.02};
  for (const double factor : {1.0, 0.7, 3.0}) {
    Machine charged(Topology::tiny(2));
    Machine metered(Topology::tiny(2));
    charged.set_speed_factor(1, factor);
    metered.set_speed_factor(1, factor);
    SimTime charged_now = 0.0;
    SimTime metered_now = 0.0;
    SimTime held_now = 0.0;
    charged.schedule_at(1.5, 1, [&](Pe& pe) {
      for (int rep = 0; rep < 50; ++rep) {
        for (const SimTime c : costs) pe.charge(c);
        if (rep == 20) pe.charge(0.05);
      }
      charged_now = pe.now();
    });
    metered.schedule_at(1.5, 1, [&](Pe& pe) {
      Pe::Meter meter(pe);
      for (int rep = 0; rep < 50; ++rep) {
        for (const SimTime c : costs) meter.add(pe.scaled(c));
        if (rep == 20) {
          meter.commit();
          pe.charge(0.05);
          meter.reload();
        }
      }
      held_now = meter.now();
      meter.commit();
      metered_now = pe.now();
    });
    const SimTime charged_end = charged.run().end_time_us;
    const SimTime metered_end = metered.run().end_time_us;
    EXPECT_EQ(charged_now, metered_now) << "factor " << factor;
    EXPECT_EQ(held_now, metered_now) << "factor " << factor;
    EXPECT_EQ(charged.pe_busy_us(1), metered.pe_busy_us(1))
        << "factor " << factor;
    EXPECT_EQ(charged_end, metered_end) << "factor " << factor;
  }
}

// The check is compiled into debug builds only (ACIC_HOT_ASSERT), as are
// its tests; the sanitizer CI jobs build Debug.
#ifndef NDEBUG
TEST(PeMeterDeathTest, UncommittedTimeIsCaughtInDebugBuilds) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto run = [](void (*body)(Pe&)) {
    Machine machine(Topology::tiny(1));
    machine.schedule_at(0.0, 0, [body](Pe& pe) { body(pe); });
    machine.run();
  };
  EXPECT_DEATH(run([](Pe& pe) {
                 Pe::Meter meter(pe);
                 meter.add(pe.scaled(1.0));
                 pe.charge(1.0);
               }),
               "uncommitted time");
  EXPECT_DEATH(run([](Pe& pe) {
                 Pe::Meter meter(pe);
                 meter.add(pe.scaled(1.0));
                 pe.send(0, 8, [](Pe&) {});
               }),
               "uncommitted time");
  EXPECT_DEATH(run([](Pe& pe) {
                 Pe::Meter meter(pe);
                 meter.add(pe.scaled(1.0));
               }),
               "Meter dropped uncommitted");
}
#endif

TEST(DrainRule, NeedsTwoEqualUnchangedObservationsAndRearms) {
  DrainRule rule;
  EXPECT_FALSE(rule.observe(0.0, 0.0));  // first equal observation arms
  EXPECT_TRUE(rule.observe(0.0, 0.0));   // equal and unchanged: drained
  // A drained observation disarms: the next drain needs two fresh ones.
  EXPECT_FALSE(rule.observe(0.0, 0.0));
  EXPECT_TRUE(rule.observe(0.0, 0.0));

  EXPECT_FALSE(rule.observe(7.0, 5.0));  // messages in flight
  EXPECT_FALSE(rule.observe(7.0, 7.0));  // equal: arms
  EXPECT_FALSE(rule.observe(9.0, 9.0));  // equal but changed: arms at 9
  EXPECT_FALSE(rule.observe(9.0, 8.0));  // unequal: disarms
  EXPECT_FALSE(rule.observe(9.0, 9.0));
  EXPECT_TRUE(rule.observe(9.0, 9.0));
}

TEST(TerminationDetector, DetectsQuiescenceAfterStableCounters) {
  Machine machine(Topology::tiny(4));
  std::vector<std::uint64_t> created(4, 1);
  std::vector<std::uint64_t> processed(4, 1);
  std::vector<int> terminated(4, 0);
  TerminationDetector detector(
      machine, 0, 10.0,
      [&](Pe& pe, std::vector<double>& report) {
        report.push_back(static_cast<double>(created[pe.id()]));
        report.push_back(static_cast<double>(processed[pe.id()]));
      },
      [](Pe&, std::uint64_t, const std::vector<double>&) {
        return std::vector<double>{};
      },
      [](Pe&, std::span<const double>) {},
      [&](Pe& pe) { ++terminated[pe.id()]; });
  detector.start();
  machine.run();
  EXPECT_TRUE(detector.terminated());
  for (const int t : terminated) EXPECT_EQ(t, 1);
}

TEST(TerminationDetector, WaitsWhileCountersMove) {
  Machine machine(Topology::tiny(2));
  // PE 0's counters only match from the 3rd report on; termination
  // needs two further stable cycles after that.
  std::uint64_t calls = 0;
  TerminationDetector detector(
      machine, 0, 5.0,
      [&](Pe& pe, std::vector<double>& report) {
        if (pe.id() == 0) ++calls;
        const std::uint64_t processed = (calls >= 3) ? 5u : calls;
        report.push_back(5.0);
        report.push_back(
            static_cast<double>(pe.id() == 0 ? processed : 5u));
      },
      [](Pe&, std::uint64_t, const std::vector<double>&) {
        return std::vector<double>{};
      },
      [](Pe&, std::span<const double>) {}, [](Pe&) {});
  detector.start();
  machine.run();
  EXPECT_TRUE(detector.terminated());
  EXPECT_GE(detector.cycles(), 4u);
}

TEST(TerminationDetector, LiveCyclesTickEveryPeThenDoneRunsOnce) {
  // PE 0 reports its last update processed from its 4th report on, so
  // cycle 3 is the first with equal counters and cycle 4 drains: cycles
  // 0–3 are live.  Each live cycle's root payload must reach
  // every PE's tick hook; each next report must start `kInterval` after
  // its tick ends, the tick's own charge included; and the done hook
  // must run once per PE, after which nothing reports again.
  constexpr SimTime kInterval = 25.0;
  constexpr SimTime kStart = 100.0;
  constexpr SimTime kTickCost = 3.0;
  constexpr PeId kPes = 6;
  Machine machine(Topology::tiny(kPes));
  std::vector<std::vector<SimTime>> reports(kPes);
  std::vector<std::vector<SimTime>> tick_ends(kPes);
  std::vector<std::vector<std::vector<double>>> ticked(kPes);
  std::vector<std::vector<double>> root_payloads;
  std::vector<int> done(kPes, 0);
  TerminationDetector detector(
      machine, 1, kInterval,
      [&](Pe& pe, std::vector<double>& report) {
        EXPECT_TRUE(report.empty());
        reports[pe.id()].push_back(pe.now());
        const bool pending = pe.id() == 0 && reports[0].size() < 4;
        report.push_back(1.0);
        report.push_back(pending ? 0.0 : 1.0);
        report.push_back(static_cast<double>(pe.id()));
      },
      [&](Pe&, std::uint64_t cycle, const std::vector<double>& sums) {
        // Slot 2 sums the PE ids 0 + 1 + ... + 5.
        EXPECT_EQ(sums[2], 15.0);
        root_payloads.push_back(
            {static_cast<double>(cycle), sums[0] - sums[1], 7.0});
        return root_payloads.back();
      },
      [&](Pe& pe, std::span<const double> payload) {
        ticked[pe.id()].emplace_back(payload.begin(), payload.end());
        pe.charge(kTickCost);
        tick_ends[pe.id()].push_back(pe.now());
      },
      [&](Pe& pe) { ++done[pe.id()]; });
  detector.start(kStart);
  const RunStats stats = machine.run(/*time_limit=*/1e5);

  ASSERT_FALSE(stats.hit_time_limit);
  EXPECT_TRUE(detector.terminated());
  ASSERT_EQ(detector.cycles(), 5u);
  ASSERT_EQ(root_payloads.size(), 4u);
  EXPECT_EQ(root_payloads[0], (std::vector<double>{0.0, 1.0, 7.0}));
  EXPECT_EQ(root_payloads[3], (std::vector<double>{3.0, 0.0, 7.0}));
  for (PeId p = 0; p < kPes; ++p) {
    EXPECT_EQ(ticked[p], root_payloads) << "PE " << p;
    ASSERT_EQ(reports[p].size(), detector.cycles()) << "PE " << p;
    EXPECT_EQ(reports[p][0], kStart);
    for (std::size_t k = 0; k < tick_ends[p].size(); ++k) {
      EXPECT_EQ(reports[p][k + 1], tick_ends[p][k] + kInterval)
          << "PE " << p << " cycle " << k;
    }
    EXPECT_EQ(done[p], 1) << "PE " << p;
  }
  // Nothing was left scheduled: a second run has no work.
  EXPECT_EQ(machine.run().tasks_executed, 0u);
}

TEST(Superstep, LateMessageForcesNoopRoundsUntilDrained) {
  // PE 0's first step sends PE 1 a message that lands about 1000 us
  // later, long after both PEs contributed: every round until then is a
  // no-op round, each starting one interval after the broadcast.
  constexpr SimTime kInterval = 100.0;
  Machine machine(Topology::tiny(2));
  std::vector<std::uint64_t> sent(2, 0);
  std::vector<std::uint64_t> received(2, 0);
  std::vector<std::vector<SimTime>> noop_starts(2);
  SimTime landed = 0.0;
  std::vector<double> last_sums;
  bool prev_equal = false;
  Superstep superstep(
      machine, {}, kInterval,
      [&](const std::vector<double>& sums, bool drained)
          -> std::optional<Superstep::Command> {
        // Drained takes two rounds in a row with equal, unchanged counts.
        const bool equal = sums[0] == sums[1];
        EXPECT_EQ(drained, equal && prev_equal);
        prev_equal = equal;
        last_sums = sums;
        return std::nullopt;
      },
      [&](Pe& pe, const Superstep::Command* cmd) {
        if (cmd == nullptr) {
          noop_starts[pe.id()].push_back(pe.now());
        } else if (pe.id() == 0) {
          ++sent[0];
          pe.send(1, 16'000'000, [&](Pe& dst) {
            ++received[dst.id()];
            landed = dst.now();
          });
        }
        return std::vector<double>{static_cast<double>(sent[pe.id()]),
                                   static_cast<double>(received[pe.id()])};
      });
  superstep.start({});
  const RunStats stats = machine.run(/*time_limit=*/1e5);

  ASSERT_FALSE(stats.hit_time_limit);
  EXPECT_GT(landed, 900.0);
  EXPECT_EQ(last_sums, (std::vector<double>{1.0, 1.0}));
  // The message lands during a no-op round; drained needs two equal
  // observations after it.
  EXPECT_GE(noop_starts[0].size(), static_cast<std::size_t>(landed /
                                                            (2 * kInterval)));
  for (const std::vector<SimTime>& starts : noop_starts) {
    ASSERT_EQ(starts.size() + 1, superstep.rounds());
    for (std::size_t i = 1; i < starts.size(); ++i) {
      const SimTime gap = starts[i] - starts[i - 1];
      EXPECT_GE(gap, kInterval);
      EXPECT_LT(gap, kInterval + 10.0);  // plus one reduction round trip
    }
  }
  EXPECT_GT(noop_starts[1].back(), landed);
}

TEST(Superstep, RootHookSeesEveryRoundButDecidesOnlyWhenDrained) {
  Machine machine(Topology::tiny(4));
  std::vector<std::uint64_t> sent(4, 0);
  std::vector<std::uint64_t> received(4, 0);
  std::vector<int> ops_run;
  std::vector<double> args_run;
  std::uint64_t hook_calls = 0;
  std::uint64_t drained_calls = 0;
  double ones_seen = 0.0;
  double min_seen = 0.0;
  Superstep superstep(
      machine, {ReduceOp::kSum, ReduceOp::kMin}, 5.0,
      [&](const std::vector<double>& sums, bool drained)
          -> std::optional<Superstep::Command> {
        ++hook_calls;
        ones_seen += sums[2];
        min_seen = sums[3];
        if (!drained) {
          // Ignored: an undrained round always runs as a no-op.
          return Superstep::Command{9, 9.0};
        }
        ++drained_calls;
        if (drained_calls == 1) return Superstep::Command{1, 7.0};
        return std::nullopt;
      },
      [&](Pe& pe, const Superstep::Command* cmd) {
        if (cmd != nullptr) {
          if (pe.id() == 0) {
            ops_run.push_back(cmd->op);
            args_run.push_back(cmd->arg);
          }
          // Every step sends one message around the ring.
          ++sent[pe.id()];
          pe.send((pe.id() + 1) % 4, 64,
                  [&](Pe& dst) { ++received[dst.id()]; });
        }
        return std::vector<double>{static_cast<double>(sent[pe.id()]),
                                   static_cast<double>(received[pe.id()]),
                                   1.0, static_cast<double>(pe.id() + 3)};
      });
  superstep.start({0, 2.0});
  ASSERT_FALSE(machine.run(/*time_limit=*/1e5).hit_time_limit);

  EXPECT_EQ(ops_run, (std::vector<int>{0, 1}));
  EXPECT_EQ(args_run, (std::vector<double>{2.0, 7.0}));
  EXPECT_EQ(drained_calls, 2u);
  EXPECT_EQ(hook_calls, superstep.rounds());
  EXPECT_GT(hook_calls, drained_calls);
  // Slot 2 sums a 1 from every PE in every round; slot 3 takes the min.
  EXPECT_EQ(ones_seen, 4.0 * static_cast<double>(hook_calls));
  EXPECT_EQ(min_seen, 3.0);
}

TEST(Superstep, DoneStopsEveryContribution) {
  // No traffic: the first round arms the drain rule, the second drains
  // it, and the root ends the run there.
  Machine machine(Topology::tiny(8));
  std::vector<int> steps(8, 0);
  std::uint64_t hook_calls = 0;
  Superstep superstep(
      machine, {}, 10.0,
      [&](const std::vector<double>&, bool) {
        ++hook_calls;
        return std::optional<Superstep::Command>{};
      },
      [&](Pe& pe, const Superstep::Command*) {
        ++steps[pe.id()];
        return std::vector<double>{0.0, 0.0};
      });
  superstep.start({});
  const RunStats stats = machine.run(/*time_limit=*/1e5);

  ASSERT_FALSE(stats.hit_time_limit);
  EXPECT_EQ(superstep.rounds(), 2u);
  EXPECT_EQ(hook_calls, 2u);
  for (const int n : steps) EXPECT_EQ(n, 2);
  // Nothing was left scheduled: a second run has no work.
  EXPECT_EQ(machine.run().tasks_executed, 0u);
}

}  // namespace
