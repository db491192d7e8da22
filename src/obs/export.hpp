#pragma once
// Trace and time-series exporters.
//
// `write_chrome_trace` emits Chrome trace-event JSON — the format
// Perfetto (https://ui.perfetto.dev) and chrome://tracing load directly:
//
//   * Tracer spans become slices on *thread tracks*: one track per
//     schedulable entity (pid = owning process, tid = entity id), with
//     metadata events naming every process ("nodeN/procM") and thread
//     ("peK" / "commM").  Named spans (ScopedSpan) keep their names;
//     anonymous machine spans render as "task" / "idle".
//   * Registry timed counters and series become *counter tracks*
//     (`"ph":"C"`), e.g. one track per message-locality tier.  A final
//     sample at the trace end pins every track to its exact total.
//   * Registry histogram series become instant events carrying per-cycle
//     summary args (cycle, active updates, non-empty buckets).
//
// `write_timeseries_csv` dumps every counter track and series as
// `kind,name,time_us,value` rows.  Both writers return false on I/O
// error and never throw.

#include <string>

#include "src/obs/registry.hpp"
#include "src/runtime/topology.hpp"

namespace acic::runtime {
class Tracer;
}

namespace acic::obs {

/// Either of `tracer` / `registry` may be null; the other's events are
/// still exported.  `topology` maps entities to processes for track
/// grouping (use the machine's topology).
bool write_chrome_trace(const std::string& path,
                        const runtime::Topology& topology,
                        const runtime::Tracer* tracer,
                        const Registry* registry);

/// `kind,name,time_us,value` rows for every timed counter and series.
bool write_timeseries_csv(const std::string& path, const Registry& registry);

}  // namespace acic::obs
