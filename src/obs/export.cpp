#include "src/obs/export.hpp"

#include <algorithm>
#include <cstdio>

#include "src/runtime/trace.hpp"

namespace acic::obs {

namespace {

/// JSON string escaping for the few characters that can appear in our
/// metric/span names (no control characters are ever used).
void write_json_string(std::FILE* f, const char* s) {
  std::fputc('"', f);
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') std::fputc('\\', f);
    std::fputc(*s, f);
  }
  std::fputc('"', f);
}

class EventWriter {
 public:
  explicit EventWriter(std::FILE* f) : f_(f) {}

  /// Starts one event object, handling the comma between events.
  void begin() {
    if (!first_) std::fputs(",\n", f_);
    first_ = false;
    std::fputs("  {", f_);
  }
  void end() { std::fputc('}', f_); }

  std::FILE* f() { return f_; }

 private:
  std::FILE* f_ = nullptr;
  bool first_ = true;
};

void counter_sample(EventWriter& out, const std::string& name,
                    runtime::SimTime ts, double value) {
  out.begin();
  std::fputs("\"name\":", out.f());
  write_json_string(out.f(), name.c_str());
  std::fprintf(out.f(),
               ",\"ph\":\"C\",\"ts\":%.3f,\"pid\":0,\"args\":{\"value\":%.3f}",
               ts, value);
  out.end();
}

}  // namespace

bool write_chrome_trace(const std::string& path,
                        const runtime::Topology& topology,
                        const runtime::Tracer* tracer,
                        const Registry* registry) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  EventWriter out(f);

  // The latest timestamp seen anywhere; used to pin counter tracks to
  // their final totals at the end of the trace.
  runtime::SimTime end_ts = 0.0;

  // Metadata: name every process and entity track.
  for (std::uint32_t proc = 0; proc < topology.num_procs(); ++proc) {
    out.begin();
    std::fprintf(f,
                 "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                 "\"args\":{\"name\":\"node%u/proc%u\"}",
                 proc, proc / topology.procs_per_node,
                 proc % topology.procs_per_node);
    out.end();
  }
  for (runtime::PeId e = 0; e < topology.num_entities(); ++e) {
    out.begin();
    std::fprintf(f,
                 "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s%u\"}",
                 topology.proc_of(e), e,
                 topology.is_comm_thread(e) ? "comm" : "pe",
                 topology.is_comm_thread(e) ? topology.proc_of(e) : e);
    out.end();
  }

  if (tracer != nullptr) {
    for (const runtime::TraceSpan& span : tracer->spans()) {
      const char* name = span.name != nullptr ? span.name
                         : span.kind == runtime::SpanKind::kIdlePoll
                             ? "idle"
                             : "task";
      const char* cat = span.kind == runtime::SpanKind::kIdlePoll
                            ? "idle"
                        : span.kind == runtime::SpanKind::kNamed ? "app"
                                                                 : "runtime";
      out.begin();
      std::fputs("\"name\":", f);
      write_json_string(f, name);
      std::fprintf(f,
                   ",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":%u,\"tid\":%u",
                   cat, span.start_us,
                   std::max(0.0, span.end_us - span.start_us),
                   span.pe < topology.num_entities()
                       ? topology.proc_of(span.pe)
                       : 0,
                   span.pe);
      out.end();
      end_ts = std::max(end_ts, span.end_us);
    }
  }

  if (registry != nullptr) {
    for (const CounterFamily& family : registry->counters()) {
      for (const TimePoint& p : family.samples) {
        end_ts = std::max(end_ts, p.time_us);
      }
    }
    for (const Series& s : registry->all_series()) {
      for (const TimePoint& p : s.points) {
        end_ts = std::max(end_ts, p.time_us);
      }
    }
    for (const HistogramSeries& h : registry->histograms()) {
      for (const HistogramSample& sample : h.samples) {
        end_ts = std::max(end_ts, sample.time_us);
      }
    }

    for (const CounterFamily& family : registry->counters()) {
      if (!family.timed) continue;
      // Guarantee every timed counter renders as a track with an exact
      // final value, even if it never fired.
      if (family.samples.empty() ||
          family.samples.front().time_us > 0.0) {
        counter_sample(out, family.name, 0.0, 0.0);
      }
      for (const TimePoint& p : family.samples) {
        counter_sample(out, family.name, p.time_us, p.value);
      }
      counter_sample(out, family.name, end_ts,
                     static_cast<double>(family.total));
    }

    for (const Series& s : registry->all_series()) {
      std::string name = s.name;
      if (s.scope.kind != ScopeKind::kMachine) {
        name += '/';
        name += scope_kind_name(s.scope.kind);
        name += std::to_string(s.scope.index);
      }
      for (const TimePoint& p : s.points) {
        counter_sample(out, name, p.time_us, p.value);
      }
    }

    for (const HistogramSeries& h : registry->histograms()) {
      for (const HistogramSample& sample : h.samples) {
        double active = 0.0;
        std::size_t nonzero = 0;
        for (const double c : sample.counts) {
          active += c;
          if (c > 0.0) ++nonzero;
        }
        out.begin();
        std::fputs("\"name\":", f);
        write_json_string(f, h.name.c_str());
        std::fprintf(f,
                     ",\"cat\":\"histogram\",\"ph\":\"I\",\"s\":\"g\","
                     "\"ts\":%.3f,\"pid\":0,\"args\":{\"cycle\":%llu,"
                     "\"active\":%.0f,\"nonzero_buckets\":%zu}",
                     sample.time_us,
                     static_cast<unsigned long long>(sample.cycle), active,
                     nonzero);
        out.end();
      }
    }
  }

  std::fputs("\n]}\n", f);
  const bool write_failed = std::ferror(f) != 0;
  return std::fclose(f) == 0 && !write_failed;
}

bool write_timeseries_csv(const std::string& path,
                          const Registry& registry) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("kind,name,time_us,value\n", f);
  for (const CounterFamily& family : registry.counters()) {
    for (const TimePoint& p : family.samples) {
      std::fprintf(f, "counter,%s,%.3f,%.3f\n", family.name.c_str(),
                   p.time_us, p.value);
    }
  }
  for (const Series& s : registry.all_series()) {
    for (const TimePoint& p : s.points) {
      std::fprintf(f, "series,%s,%.3f,%.3f\n", s.name.c_str(), p.time_us,
                   p.value);
    }
  }
  const bool write_failed = std::ferror(f) != 0;
  return std::fclose(f) == 0 && !write_failed;
}

}  // namespace acic::obs
