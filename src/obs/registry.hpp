#pragma once
// Machine-wide observability registry — the first-class home for the
// counters, gauges and time series that the paper's argument rests on.
//
// ACIC's central claim is that *continuous introspection* (reduction-
// cycle histograms, threshold throttling) explains its speedups; before
// this layer existed the repro could only see that through ad-hoc
// per-solver stats structs collected after the fact.  The registry turns
// the same signals into a live stream any component can publish into:
//
//   * Counters    — monotone event counts, recorded per *entity* (worker
//     PE or comm thread) and rolled up on demand through the machine
//     hierarchy: machine → node → process → PE.  A counter may be
//     `timed`, in which case every increment also appends a
//     (sim time, machine total) sample, producing a counter *track* the
//     Chrome-trace exporter turns into a Perfetto counter timeline.
//   * Series      — free-form (sim time, value) streams at any scope
//     (queue depths, chosen thresholds, buffer occupancy at flush).
//   * Histogram series — per-reduction-cycle snapshots of a full
//     histogram (the paper's fig. 1/2 data as a stream instead of a
//     post-hoc dump).
//
// Publishing is observational only: no registry call ever charges
// simulated CPU, so attaching a registry never perturbs a run — the
// equivalence tests rely on that.
//
// Ownership: the registry must outlive every component publishing into
// it (Machine, Tram, engines).  All ids are stable for the registry's
// lifetime.  Names are shared namespaces: two components defining the
// same counter name intentionally merge into one machine-wide family
// (e.g. every per-query tram instance feeding "tram/items_inserted").

#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/network.hpp"
#include "src/runtime/topology.hpp"

namespace acic::obs {

/// Level of the machine hierarchy a query or series refers to.
enum class ScopeKind : std::uint8_t { kMachine, kNode, kProcess, kPe };

const char* scope_kind_name(ScopeKind kind);

/// One position in the hierarchy: the whole machine, one node, one
/// process, or one schedulable entity (worker PE or comm thread).
struct Scope {
  ScopeKind kind = ScopeKind::kMachine;
  std::uint32_t index = 0;

  static Scope machine() { return {ScopeKind::kMachine, 0}; }
  static Scope node(std::uint32_t n) { return {ScopeKind::kNode, n}; }
  static Scope process(std::uint32_t p) { return {ScopeKind::kProcess, p}; }
  static Scope pe(runtime::PeId p) { return {ScopeKind::kPe, p}; }
};

struct CounterId {
  std::size_t index = static_cast<std::size_t>(-1);
  bool valid() const { return index != static_cast<std::size_t>(-1); }
};
struct SeriesId {
  std::size_t index = static_cast<std::size_t>(-1);
  bool valid() const { return index != static_cast<std::size_t>(-1); }
};
struct HistogramSeriesId {
  std::size_t index = static_cast<std::size_t>(-1);
  bool valid() const { return index != static_cast<std::size_t>(-1); }
};

struct TimePoint {
  runtime::SimTime time_us = 0.0;
  double value = 0.0;
};

/// A named monotone counter with one cell per entity.
struct CounterFamily {
  std::string name;
  bool timed = false;
  std::uint64_t total = 0;
  /// Indexed by entity id (worker PEs then comm threads).
  std::vector<std::uint64_t> per_entity;
  /// (time, machine total) track; only appended when `timed`.
  std::vector<TimePoint> samples;
};

/// A named (time, value) stream at a fixed scope.
struct Series {
  std::string name;
  Scope scope;
  std::vector<TimePoint> points;
};

struct HistogramSample {
  std::uint64_t cycle = 0;
  runtime::SimTime time_us = 0.0;
  std::vector<double> counts;
};

struct HistogramSeries {
  std::string name;
  std::vector<HistogramSample> samples;
};

class Registry {
 public:
  explicit Registry(runtime::Topology topology);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  const runtime::Topology& topology() const { return topology_; }

  // ---- counters --------------------------------------------------------

  /// Defines (or finds — families are shared by name) a counter family.
  /// A family defined untimed is upgraded to timed if any caller asks.
  CounterId counter(const std::string& name, bool timed = false);

  /// Increments `entity`'s cell by `delta`.  `now_us` stamps the counter
  /// track sample for timed families (ignored otherwise).
  void add(CounterId id, runtime::PeId entity, std::uint64_t delta,
           runtime::SimTime now_us);

  /// Machine-wide total.
  std::uint64_t total(CounterId id) const;
  /// Machine-wide total by name; 0 for unknown counters.
  std::uint64_t total(const std::string& name) const;
  /// Hierarchy rollup: sum of the cells of every entity inside `scope`
  /// (comm threads attribute to their process/node like their workers).
  std::uint64_t at(CounterId id, Scope scope) const;

  // ---- series ----------------------------------------------------------

  /// Defines (or finds, by name + scope) a time series.
  SeriesId series(const std::string& name, Scope scope = Scope::machine());
  void append(SeriesId id, runtime::SimTime time_us, double value);

  // ---- histogram series ------------------------------------------------

  HistogramSeriesId histogram_series(const std::string& name);
  void append_histogram(HistogramSeriesId id, std::uint64_t cycle,
                        runtime::SimTime time_us,
                        const std::vector<double>& counts);

  // ---- enumeration (exporters, tests) ----------------------------------

  const std::vector<CounterFamily>& counters() const { return counters_; }
  const std::vector<Series>& all_series() const { return series_; }
  const std::vector<HistogramSeries>& histograms() const {
    return histograms_;
  }
  const CounterFamily* find_counter(const std::string& name) const;
  const Series* find_series(const std::string& name) const;
  const HistogramSeries* find_histogram(const std::string& name) const;

 private:
  bool in_scope(runtime::PeId entity, Scope scope) const;

  runtime::Topology topology_;
  std::vector<CounterFamily> counters_;
  std::vector<Series> series_;
  std::vector<HistogramSeries> histograms_;
};

/// Handles for the counters a Machine publishes when a registry is
/// attached (src/runtime/machine.hpp holds these behind a pointer so
/// the runtime layer needs only a forward declaration of obs).
struct RuntimeCounters {
  CounterId tasks_executed;
  CounterId idle_polls;
  // Message and byte counts split by locality tier, attributed to the
  // *sending* entity.
  CounterId messages_self;
  CounterId messages_intra_process;
  CounterId messages_intra_node;
  CounterId messages_inter_node;
  CounterId bytes_self;
  CounterId bytes_intra_process;
  CounterId bytes_intra_node;
  CounterId bytes_inter_node;
  /// Machine-wide count of tasks waiting in PE fifos, sampled in sim
  /// time at every change.
  SeriesId ready_tasks;

  CounterId messages(runtime::Locality loc) const;
  CounterId bytes(runtime::Locality loc) const;
};

/// Defines the runtime counter families on `registry` (idempotent —
/// families are shared by name).
RuntimeCounters define_runtime_counters(Registry& registry);

}  // namespace acic::obs
