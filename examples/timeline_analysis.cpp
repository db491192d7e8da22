// Timeline analysis: the paper's asynchrony argument, drawn.
//
// Runs ACIC and the RIKEN-style Δ-stepping baseline on the same workload
// with the execution tracer and the observability registry attached
// (the simulator's analogue of Charm++'s Projections tool), then prints
// per-PE utilization heat maps.  Δ-stepping shows vertical idle stripes
// at every barrier; ACIC shows solid utilization with a gradually
// thinning tail.  Each run is exported twice: the trace CSV for external
// plotting, and a Chrome trace-event JSON (timeline_acic.json /
// timeline_delta.json) that https://ui.perfetto.dev loads directly —
// task spans per PE plus counter tracks for every message-locality tier
// and, for ACIC, the per-reduction-cycle thresholds.
//
//   ./examples/timeline_analysis [--scale N] [--graph random|rmat|road]

#include <cstdio>

#include "src/obs/export.hpp"
#include "src/obs/registry.hpp"
#include "src/runtime/trace.hpp"
#include "src/sssp/solver.hpp"
#include "src/stats/experiment.hpp"
#include "src/util/options.hpp"

int main(int argc, char** argv) {
  using namespace acic;
  const util::Options opts(argc, argv);

  stats::ExperimentSpec spec;
  spec.graph = stats::graph_kind_from_string(opts.get("graph", "random"));
  spec.scale = static_cast<std::uint32_t>(opts.get_int("scale", 12));
  spec.nodes = static_cast<std::uint32_t>(opts.get_int("nodes", 2));
  spec.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const graph::Csr csr = stats::build_graph(spec);
  const runtime::Topology topo = spec.topology();

  std::printf("timeline analysis: %s scale=%u on %u worker PEs\n",
              stats::graph_kind_name(spec.graph), spec.scale,
              topo.num_pes());
  std::printf("legend: . 0-20%%  : 20-40%%  - 40-60%%  = 60-80%%  # "
              "80-100%% busy, one column per time bin\n\n");

  // --- ACIC ---------------------------------------------------------------
  {
    runtime::Tracer tracer;
    obs::Registry registry(topo);
    runtime::Machine machine(topo);
    machine.set_tracer(&tracer);

    sssp::SolverOptions solver_opts;
    solver_opts.registry = &registry;
    const auto run =
        sssp::run_solver("acic", machine, csr, spec.source, solver_opts);
    std::printf("ACIC (asynchronous, %llu reduction cycles, %.3f ms):\n",
                static_cast<unsigned long long>(run.telemetry.cycles),
                run.sssp.metrics.sim_time_us / 1000.0);
    std::printf("%s\n",
                tracer
                    .utilization_art(machine.num_pes(),
                                     run.sssp.metrics.sim_time_us, 64)
                    .c_str());
    tracer.write_csv("timeline_acic.csv");
    obs::write_chrome_trace("timeline_acic.json", topo, &tracer,
                            &registry);
    std::printf("registry totals: %llu msgs intra-process, %llu "
                "intra-node, %llu inter-node; %llu tram inserts; %zu "
                "threshold records\n\n",
                static_cast<unsigned long long>(
                    registry.total("net/messages_intra_process")),
                static_cast<unsigned long long>(
                    registry.total("net/messages_intra_node")),
                static_cast<unsigned long long>(
                    registry.total("net/messages_inter_node")),
                static_cast<unsigned long long>(
                    registry.total("tram/items_inserted")),
                registry.find_series("acic/t_tram")->points.size());
  }

  // --- RIKEN-style Δ-stepping ----------------------------------------------
  {
    runtime::Tracer tracer;
    obs::Registry registry(topo);
    runtime::Machine machine(topo);
    machine.set_tracer(&tracer);

    sssp::SolverOptions solver_opts;
    solver_opts.registry = &registry;
    const auto run = sssp::run_solver("delta_stepping_2d", machine, csr,
                                      spec.source, solver_opts);
    std::printf("Delta-stepping (bulk-synchronous, %llu barrier rounds, "
                "%.3f ms):\n",
                static_cast<unsigned long long>(run.telemetry.cycles),
                run.sssp.metrics.sim_time_us / 1000.0);
    std::printf("%s\n",
                tracer
                    .utilization_art(machine.num_pes(),
                                     run.sssp.metrics.sim_time_us, 64)
                    .c_str());
    tracer.write_csv("timeline_delta.csv");
    obs::write_chrome_trace("timeline_delta.json", topo, &tracer,
                            &registry);
  }

  std::printf("wrote timeline_{acic,delta}.csv (pe,start_us,end_us,kind) "
              "and timeline_{acic,delta}.json (Chrome trace events; open "
              "in https://ui.perfetto.dev)\n");
  std::printf("the stripes of '.' columns in the delta-stepping map are "
              "barrier waits; the thinning right edge of the ACIC map is "
              "the low-concurrency tail the paper describes\n");
  return 0;
}
