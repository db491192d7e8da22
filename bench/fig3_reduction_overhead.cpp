// Figure 3: overhead of the continuous reduction/broadcast cycle.
//
// Following the paper's standalone experiment: each PE repeatedly
// executes 10-microsecond work methods over a 5-second (simulated)
// window; we count methods executed with and without a concurrent
// reduction/broadcast cycle and report the percentage loss in completed
// work, normalized by the number of reductions that occurred.
//
// Paper shape to reproduce: each reduction-per-second costs only
// ~0.0015–0.0035% of the work — reductions are effectively free next to
// the computation they steer.

#include <cstdio>
#include <optional>
#include <span>

#include "bench/bench_common.hpp"
#include "src/runtime/collectives.hpp"
#include "src/util/assert.hpp"

namespace {

using namespace acic;
using runtime::Machine;
using runtime::Pe;
using runtime::PeId;
using runtime::SimTime;

struct WorkResult {
  std::uint64_t methods = 0;
  std::uint64_t reductions = 0;
};

/// Runs the synthetic workload; `histogram_width` > 0 enables a
/// continuous reduction/broadcast cycle with an ACIC-sized payload: the
/// engines' TerminationDetector, reporting created 1 and processed 0 so
/// it never drains and cycles for the whole window.
WorkResult run_window(std::uint32_t nodes, SimTime window_us,
                      SimTime method_us, std::size_t histogram_width,
                      SimTime interval_us) {
  Machine machine(runtime::Topology::paper_node(nodes));
  std::uint64_t methods = 0;

  for (PeId p = 0; p < machine.num_pes(); ++p) {
    machine.add_idle_handler(p, [&methods, method_us](Pe& pe) {
      pe.charge(method_us);
      ++methods;
      return true;
    });
    machine.schedule_at(0.0, p, [](Pe&) {});
  }

  std::optional<runtime::TerminationDetector> cycle;
  if (histogram_width > 0) {
    ACIC_ASSERT_MSG(histogram_width >= 2,
                    "the payload holds created and processed");
    cycle.emplace(
        machine, histogram_width - 2, interval_us,
        [histogram_width](Pe&, std::vector<double>& report) {
          report.assign(histogram_width, 1.0);
          report[1] = 0.0;  // processed
        },
        [](Pe&, std::uint64_t, const std::vector<double>&) {
          return std::vector<double>{};
        },
        [](Pe&, std::span<const double>) {}, [](Pe&) {});
    cycle->start();
  }

  machine.run(window_us);
  WorkResult result;
  result.methods = methods;
  result.reductions = cycle ? cycle->cycles() : 0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options opts(argc, argv);
  const double window_s = opts.get_double("window", 0.25);  // paper: 5s
  const SimTime window_us = window_s * 1e6;
  const SimTime method_us = opts.get_double("method-us", 10.0);
  const auto width =
      static_cast<std::size_t>(opts.get_int("width", 514));
  const SimTime interval_us = opts.get_double("interval", 100.0);

  std::printf("Figure 3: reduction overhead (10us methods, %.1fs window, "
              "payload width %zu)\n", window_s, width);

  util::Table table({"pes", "methods_off", "methods_on", "reductions",
                     "red_per_s", "loss_pct", "loss_pct_per_red_per_s"});
  for (const std::uint32_t nodes : {1u, 2u, 4u}) {
    const WorkResult off =
        run_window(nodes, window_us, method_us, 0, interval_us);
    const WorkResult on =
        run_window(nodes, window_us, method_us, width, interval_us);
    const double loss_pct =
        100.0 *
        (static_cast<double>(off.methods) - static_cast<double>(on.methods)) /
        static_cast<double>(off.methods);
    const double red_per_s =
        static_cast<double>(on.reductions) / window_s;
    const double normalized = red_per_s > 0.0 ? loss_pct / red_per_s / window_s
                                              : 0.0;
    table.add_row(
        {util::strformat("%u", nodes * 48),
         util::strformat("%llu", (unsigned long long)off.methods),
         util::strformat("%llu", (unsigned long long)on.methods),
         util::strformat("%llu", (unsigned long long)on.reductions),
         util::strformat("%.1f", red_per_s),
         util::strformat("%.4f", loss_pct),
         util::strformat("%.6f", normalized)});
  }
  table.print();
  std::printf("paper shape: loss per (reduction/second) stays tiny "
              "(paper: 0.0015%%-0.0035%%), so continuous introspection is "
              "nearly free\n");
  bench::write_csv(table, opts, "fig3_reduction_overhead.csv");
  return 0;
}
