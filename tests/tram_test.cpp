// Tests for tramlib: delivery completeness and order, automatic and
// manual flushing, the four aggregation modes, comm-thread routing and
// statistics.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/baselines/delta_stepping.hpp"
#include "src/graph/csr.hpp"
#include "src/graph/partition2d.hpp"
#include "src/runtime/machine.hpp"
#include "src/sssp/update.hpp"
#include "src/tram/tram.hpp"

namespace {

using acic::runtime::Machine;
using acic::runtime::Pe;
using acic::runtime::PeId;
using acic::runtime::Topology;
using acic::tram::Aggregation;
using acic::tram::Tram;
using acic::tram::TramConfig;

struct Item {
  PeId target;
  int value;
};

class TramModeTest : public ::testing::TestWithParam<Aggregation> {};

TEST_P(TramModeTest, DeliversEveryItemToItsTarget) {
  Machine machine(Topology{2, 2, 2});  // 8 workers across 2 nodes
  TramConfig config;
  config.mode = GetParam();
  config.buffer_items = 4;

  std::map<PeId, std::vector<int>> received;
  Tram<Item> tram(machine, config, [&](Pe& pe, const Item& item) {
    EXPECT_EQ(item.target, pe.id());
    received[pe.id()].push_back(item.value);
  });

  constexpr int kItems = 100;
  machine.schedule_at(0.0, 0, [&](Pe& pe) {
    for (int i = 0; i < kItems; ++i) {
      const PeId target = static_cast<PeId>(i % machine.num_pes());
      tram.insert(pe, target, Item{target, i});
    }
    tram.flush_all(pe);
  });
  machine.run();

  int total = 0;
  for (const auto& [pe, values] : received) {
    total += static_cast<int>(values.size());
  }
  EXPECT_EQ(total, kItems);
  EXPECT_EQ(tram.stats().items_inserted, 100u);
  EXPECT_EQ(tram.stats().items_delivered, 100u);
}

TEST_P(TramModeTest, PerTargetOrderPreserved) {
  Machine machine(Topology{2, 2, 2});
  TramConfig config;
  config.mode = GetParam();
  config.buffer_items = 8;

  std::map<PeId, std::vector<int>> received;
  Tram<Item> tram(machine, config, [&](Pe& pe, const Item& item) {
    received[pe.id()].push_back(item.value);
  });

  machine.schedule_at(0.0, 0, [&](Pe& pe) {
    for (int i = 0; i < 64; ++i) {
      const PeId target = static_cast<PeId>(i % 4);
      tram.insert(pe, target, Item{target, i});
    }
    tram.flush_all(pe);
  });
  machine.run();

  // Items from one sender to one target must arrive in insertion order
  // (buffers are FIFO and fan-out preserves per-target order).
  for (const auto& [pe, values] : received) {
    for (std::size_t i = 1; i < values.size(); ++i) {
      EXPECT_LT(values[i - 1], values[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, TramModeTest,
                         ::testing::Values(Aggregation::kPP,
                                           Aggregation::kWP,
                                           Aggregation::kWW,
                                           Aggregation::kPW),
                         [](const auto& info) {
                           return acic::tram::aggregation_name(info.param);
                         });

TEST(Tram, AutoFlushAtCapacity) {
  Machine machine(Topology::tiny(2));
  TramConfig config;
  config.mode = Aggregation::kWW;
  config.buffer_items = 3;

  int delivered = 0;
  Tram<Item> tram(machine, config,
                  [&](Pe&, const Item&) { ++delivered; });

  machine.schedule_at(0.0, 0, [&](Pe& pe) {
    tram.insert(pe, 1, Item{1, 0});
    tram.insert(pe, 1, Item{1, 1});
    EXPECT_EQ(tram.stats().auto_flushes, 0u);
    EXPECT_EQ(tram.pending_items(0), 2u);
    tram.insert(pe, 1, Item{1, 2});  // hits capacity -> flush
    EXPECT_EQ(tram.stats().auto_flushes, 1u);
    EXPECT_EQ(tram.pending_items(0), 0u);
  });
  machine.run();
  EXPECT_EQ(delivered, 3);
}

TEST(Tram, ItemsStrandedWithoutFlush) {
  // The tail problem from the paper: with a large buffer and little
  // traffic, updates sit in buffers forever unless explicitly flushed.
  Machine machine(Topology::tiny(2));
  TramConfig config;
  config.buffer_items = 1024;

  int delivered = 0;
  Tram<Item> tram(machine, config,
                  [&](Pe&, const Item&) { ++delivered; });
  machine.schedule_at(0.0, 0, [&](Pe& pe) {
    tram.insert(pe, 1, Item{1, 7});
  });
  machine.run();
  EXPECT_EQ(delivered, 0);  // stranded
  EXPECT_EQ(tram.pending_items(0), 1u);

  machine.schedule_at(machine.current_time(), 0,
                      [&](Pe& pe) { tram.flush_all(pe); });
  machine.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(tram.stats().manual_flushes, 1u);
}

TEST(Tram, EmptyManualFlushCounted) {
  Machine machine(Topology::tiny(1));
  Tram<Item> tram(machine, {}, [](Pe&, const Item&) {});
  machine.schedule_at(0.0, 0, [&](Pe& pe) { tram.flush_all(pe); });
  machine.run();
  EXPECT_EQ(tram.stats().manual_flushes, 1u);
  EXPECT_EQ(tram.stats().flushed_empty, 1u);
}

TEST(Tram, AggregationReducesMessageCount) {
  // The reason tramlib exists: N items in one buffer must cost far fewer
  // network messages than N individual sends.
  const auto run_with_buffer = [](std::size_t buffer_items) {
    Machine machine(Topology{2, 1, 1});
    TramConfig config;
    config.mode = Aggregation::kWW;
    config.buffer_items = buffer_items;
    int delivered = 0;
    Tram<Item> tram(machine, config,
                    [&](Pe&, const Item&) { ++delivered; });
    machine.schedule_at(0.0, 0, [&](Pe& pe) {
      for (int i = 0; i < 256; ++i) tram.insert(pe, 1, Item{1, i});
      tram.flush_all(pe);
    });
    const auto stats = machine.run();
    EXPECT_EQ(delivered, 256);
    return stats.messages_sent;
  };
  const auto messages_small = run_with_buffer(1);
  const auto messages_large = run_with_buffer(128);
  EXPECT_GE(messages_small, 256u);
  EXPECT_LE(messages_large, 4u);
}

TEST(Tram, ProcessSharedSetsCostAtomicPenalty) {
  // PP/PW modes share buffer sets between a process's PEs; the paper
  // notes they need atomic operations.  The model charges extra time.
  const auto insert_time = [](Aggregation mode) {
    Machine machine(Topology{1, 1, 2});
    TramConfig config;
    config.mode = mode;
    config.buffer_items = 1u << 30;  // never auto-flush
    Tram<Item> tram(machine, config, [](Pe&, const Item&) {});
    double elapsed = 0.0;
    machine.schedule_at(0.0, 0, [&](Pe& pe) {
      const double start = pe.now();
      for (int i = 0; i < 100; ++i) tram.insert(pe, 1, Item{1, i});
      elapsed = pe.now() - start;
    });
    machine.run();
    return elapsed;
  };
  EXPECT_GT(insert_time(Aggregation::kPP), insert_time(Aggregation::kWW));
}

TEST(Tram, RemoteProcessDeliveryGoesThroughCommThread) {
  // A WP aggregate to another process must be routed by that process's
  // comm thread: the comm thread's busy time becomes nonzero.
  Machine machine(Topology{1, 2, 2});
  TramConfig config;
  config.mode = Aggregation::kWP;
  config.buffer_items = 64;
  int delivered = 0;
  Tram<Item> tram(machine, config,
                  [&](Pe&, const Item&) { ++delivered; });
  machine.schedule_at(0.0, 0, [&](Pe& pe) {
    for (int i = 0; i < 32; ++i) {
      tram.insert(pe, 2, Item{2, i});  // PE 2 lives in process 1
      tram.insert(pe, 3, Item{3, i});
    }
    tram.flush_all(pe);
  });
  machine.run();
  EXPECT_EQ(delivered, 64);
  const PeId comm = machine.topology().comm_thread_of_proc(1);
  EXPECT_GT(machine.pe_busy_us(comm), 0.0);
  // Process 0's comm thread had nothing to do.
  EXPECT_EQ(machine.pe_busy_us(machine.topology().comm_thread_of_proc(0)),
            0.0);
}

TEST(Tram, LocalProcessDeliverySkipsCommThread) {
  Machine machine(Topology{1, 2, 2});
  TramConfig config;
  config.mode = Aggregation::kWP;
  int delivered = 0;
  Tram<Item> tram(machine, config,
                  [&](Pe&, const Item&) { ++delivered; });
  machine.schedule_at(0.0, 0, [&](Pe& pe) {
    tram.insert(pe, 1, Item{1, 1});  // same process
    tram.flush_all(pe);
  });
  machine.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(machine.pe_busy_us(machine.topology().comm_thread_of_proc(0)),
            0.0);
}

TEST(Tram, WwModeSendsDirectlyToPe) {
  // Per-destination-PE buffers bypass comm threads entirely.
  Machine machine(Topology{2, 1, 2});
  TramConfig config;
  config.mode = Aggregation::kWW;
  int delivered = 0;
  Tram<Item> tram(machine, config,
                  [&](Pe&, const Item&) { ++delivered; });
  machine.schedule_at(0.0, 0, [&](Pe& pe) {
    tram.insert(pe, 3, Item{3, 1});  // other node
    tram.flush_all(pe);
  });
  machine.run();
  EXPECT_EQ(delivered, 1);
  for (std::uint32_t proc = 0; proc < machine.topology().num_procs();
       ++proc) {
    EXPECT_EQ(
        machine.pe_busy_us(machine.topology().comm_thread_of_proc(proc)),
        0.0);
  }
}

TEST(Tram, AggregateBytesCountItems) {
  // Ten 16-byte items from PE 0 to PE 2 on the other node: one 32-byte
  // envelope plus 160 payload bytes per hop.  Process-destined modes take
  // two hops (sender to the comm thread, comm thread to the worker).
  struct Case {
    Aggregation mode;
    std::uint64_t bytes;
  };
  for (const Case c : {Case{Aggregation::kWW, 192}, Case{Aggregation::kPW, 192},
                       Case{Aggregation::kWP, 384},
                       Case{Aggregation::kPP, 384}}) {
    Machine machine(Topology{2, 1, 2});
    TramConfig config;
    config.mode = c.mode;
    config.item_bytes = 16;
    Tram<Item> tram(machine, config, [](Pe&, const Item&) {});
    machine.schedule_at(0.0, 0, [&](Pe& pe) {
      for (int i = 0; i < 10; ++i) tram.insert(pe, 2, Item{2, i});
      tram.flush_all(pe);
    });
    machine.run();
    EXPECT_EQ(machine.total_bytes_sent(), c.bytes)
        << acic::tram::aggregation_name(c.mode);
  }

  // delta_stepping_2d on a 1x2 grid: the source's out-edges all lead into
  // the other cell's vertex group, so its relaxation ships exactly one
  // candidate batch along the row.  Ten more edges make that batch ten
  // wire updates longer and change nothing else.
  const auto delta_2d_bytes = [](acic::graph::VertexId fanout,
                                 std::uint64_t* messages) {
    acic::graph::EdgeList list(24, {});
    for (acic::graph::VertexId v = 0; v < fanout; ++v) {
      list.add(0, 12 + v, 1.0);
    }
    const acic::graph::Csr csr = acic::graph::Csr::from_edge_list(list);
    Machine machine(Topology{1, 1, 2});
    const acic::graph::Partition2D partition(csr, 1, 2);
    acic::baselines::DeltaConfig config;
    config.delta = 4.0;
    const auto run = acic::baselines::delta_stepping_2d(
        machine, csr, partition, 0, config);
    *messages = run.sssp.metrics.network_messages;
    return run.sssp.metrics.network_bytes;
  };
  std::uint64_t messages_1 = 0;
  std::uint64_t messages_11 = 0;
  const std::uint64_t bytes_1 = delta_2d_bytes(1, &messages_1);
  const std::uint64_t bytes_11 = delta_2d_bytes(11, &messages_11);
  EXPECT_EQ(messages_1, messages_11);
  EXPECT_EQ(bytes_11 - bytes_1, 10 * acic::sssp::kUpdateWireBytes);
}

}  // namespace
