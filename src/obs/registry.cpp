#include "src/obs/registry.hpp"

#include "src/util/assert.hpp"

namespace acic::obs {

namespace {

/// Appends (t, value) to a track.  A sample stamped earlier than the
/// track's last one overwrites that sample's value instead, so track
/// times never decrease and the last value is always the latest written.
void push_point(std::vector<TimePoint>* points, runtime::SimTime t,
                double value) {
  if (!points->empty() && t < points->back().time_us) {
    points->back().value = value;
    return;
  }
  points->push_back(TimePoint{t, value});
}

}  // namespace

const char* scope_kind_name(ScopeKind kind) {
  switch (kind) {
    case ScopeKind::kMachine:
      return "machine";
    case ScopeKind::kNode:
      return "node";
    case ScopeKind::kProcess:
      return "process";
    case ScopeKind::kPe:
      return "pe";
  }
  return "?";
}

Registry::Registry(runtime::Topology topology) : topology_(topology) {
  topology_.validate();
}

CounterId Registry::counter(const std::string& name, bool timed) {
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i].name == name) {
      counters_[i].timed = counters_[i].timed || timed;
      return CounterId{i};
    }
  }
  CounterFamily family;
  family.name = name;
  family.timed = timed;
  family.per_entity.assign(topology_.num_entities(), 0);
  counters_.push_back(std::move(family));
  return CounterId{counters_.size() - 1};
}

void Registry::add(CounterId id, runtime::PeId entity, std::uint64_t delta,
                   runtime::SimTime now_us) {
  ACIC_ASSERT(id.valid() && id.index < counters_.size());
  ACIC_ASSERT(entity < topology_.num_entities());
  CounterFamily& family = counters_[id.index];
  family.per_entity[entity] += delta;
  family.total += delta;
  if (family.timed) {
    push_point(&family.samples, now_us,
               static_cast<double>(family.total));
  }
}

std::uint64_t Registry::total(CounterId id) const {
  ACIC_ASSERT(id.valid() && id.index < counters_.size());
  return counters_[id.index].total;
}

std::uint64_t Registry::total(const std::string& name) const {
  const CounterFamily* family = find_counter(name);
  return family != nullptr ? family->total : 0;
}

bool Registry::in_scope(runtime::PeId entity, Scope scope) const {
  switch (scope.kind) {
    case ScopeKind::kMachine:
      return true;
    case ScopeKind::kNode:
      return topology_.node_of(entity) == scope.index;
    case ScopeKind::kProcess:
      return topology_.proc_of(entity) == scope.index;
    case ScopeKind::kPe:
      return entity == scope.index;
  }
  return false;
}

std::uint64_t Registry::at(CounterId id, Scope scope) const {
  ACIC_ASSERT(id.valid() && id.index < counters_.size());
  const CounterFamily& family = counters_[id.index];
  std::uint64_t sum = 0;
  for (runtime::PeId e = 0; e < topology_.num_entities(); ++e) {
    if (in_scope(e, scope)) sum += family.per_entity[e];
  }
  return sum;
}

SeriesId Registry::series(const std::string& name, Scope scope) {
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series_[i].name == name && series_[i].scope.kind == scope.kind &&
        series_[i].scope.index == scope.index) {
      return SeriesId{i};
    }
  }
  Series s;
  s.name = name;
  s.scope = scope;
  series_.push_back(std::move(s));
  return SeriesId{series_.size() - 1};
}

void Registry::append(SeriesId id, runtime::SimTime time_us, double value) {
  ACIC_ASSERT(id.valid() && id.index < series_.size());
  push_point(&series_[id.index].points, time_us, value);
}

HistogramSeriesId Registry::histogram_series(const std::string& name) {
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    if (histograms_[i].name == name) return HistogramSeriesId{i};
  }
  HistogramSeries h;
  h.name = name;
  histograms_.push_back(std::move(h));
  return HistogramSeriesId{histograms_.size() - 1};
}

void Registry::append_histogram(HistogramSeriesId id, std::uint64_t cycle,
                                runtime::SimTime time_us,
                                const std::vector<double>& counts) {
  ACIC_ASSERT(id.valid() && id.index < histograms_.size());
  HistogramSample sample;
  sample.cycle = cycle;
  sample.time_us = time_us;
  sample.counts = counts;
  histograms_[id.index].samples.push_back(std::move(sample));
}

const CounterFamily* Registry::find_counter(const std::string& name) const {
  for (const CounterFamily& family : counters_) {
    if (family.name == name) return &family;
  }
  return nullptr;
}

const Series* Registry::find_series(const std::string& name) const {
  for (const Series& s : series_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const HistogramSeries* Registry::find_histogram(
    const std::string& name) const {
  for (const HistogramSeries& h : histograms_) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

CounterId RuntimeCounters::messages(runtime::Locality loc) const {
  switch (loc) {
    case runtime::Locality::kSelf:
      return messages_self;
    case runtime::Locality::kIntraProcess:
      return messages_intra_process;
    case runtime::Locality::kIntraNode:
      return messages_intra_node;
    case runtime::Locality::kInterNode:
      return messages_inter_node;
  }
  return messages_self;
}

CounterId RuntimeCounters::bytes(runtime::Locality loc) const {
  switch (loc) {
    case runtime::Locality::kSelf:
      return bytes_self;
    case runtime::Locality::kIntraProcess:
      return bytes_intra_process;
    case runtime::Locality::kIntraNode:
      return bytes_intra_node;
    case runtime::Locality::kInterNode:
      return bytes_inter_node;
  }
  return bytes_self;
}

RuntimeCounters define_runtime_counters(Registry& registry) {
  RuntimeCounters c;
  c.tasks_executed = registry.counter("runtime/tasks_executed");
  c.idle_polls = registry.counter("runtime/idle_polls");
  c.messages_self = registry.counter("net/messages_self", /*timed=*/true);
  c.messages_intra_process =
      registry.counter("net/messages_intra_process", /*timed=*/true);
  c.messages_intra_node =
      registry.counter("net/messages_intra_node", /*timed=*/true);
  c.messages_inter_node =
      registry.counter("net/messages_inter_node", /*timed=*/true);
  c.bytes_self = registry.counter("net/bytes_self", /*timed=*/true);
  c.bytes_intra_process =
      registry.counter("net/bytes_intra_process", /*timed=*/true);
  c.bytes_intra_node =
      registry.counter("net/bytes_intra_node", /*timed=*/true);
  c.bytes_inter_node =
      registry.counter("net/bytes_inter_node", /*timed=*/true);
  c.ready_tasks = registry.series("runtime/ready_tasks");
  return c;
}

}  // namespace acic::obs
