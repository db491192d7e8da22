#pragma once
// Host-time spans around the benchmark's calls into the library's public
// API.  Spans stay in memory and are written once, at exit: as a
// Chrome-trace JSON (loadable in Perfetto) and as per-layer self time,
// where a span's self time is its duration minus the time its child
// spans cover.  Timing a call always returns its host seconds; a span is
// recorded only while recording is on, so one code path serves both the
// untraced and the traced run.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string layer;
    /// Shared by every span of one unit of work (a source vertex, or a
    /// serving repetition).
    std::uint64_t id = 0;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;  // index into spans(), -1 at top level
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Turns recording off and on inside a traced run (the benchmark
  /// alternates to measure tracing overhead).  No effect when disabled.
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return enabled_ && recording_; }

  /// Runs `f` and returns the host seconds it took, recording a span
  /// around it when recording.
  template <typename F>
  double time(const char* name, const char* layer, std::uint64_t id, F&& f) {
    const Clock::time_point start = Clock::now();
    const int index = recording() ? begin(name, layer, id, start) : -1;
    f();
    const Clock::time_point end = Clock::now();
    if (index >= 0) finish(index, end);
    return std::chrono::duration<double>(end - start).count();
  }

  /// A parent span covering a scope: every span timed inside it becomes
  /// its child.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, const char* layer, std::uint64_t id)
        : log_(log),
          index_(log.recording() ? log.begin(name, layer, id, Clock::now())
                                 : -1) {}
    ~Scope() {
      if (index_ >= 0) log_.finish(index_, Clock::now());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds per layer.
  std::map<std::string, double> self_seconds_by_layer() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.layer] += (s.end_us - s.start_us - child_us[i]) * 1e-6;
    }
    return out;
  }

  /// Chrome-trace JSON: one complete ("X") event per span on a single
  /// track, so Perfetto draws children nested under their parents.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %llu, \"parent\": %d}}",
                   i == 0 ? "" : ",\n", s.name.c_str(), s.layer.c_str(),
                   s.start_us, s.end_us - s.start_us,
                   static_cast<unsigned long long>(s.id), s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int begin(const char* name, const char* layer, std::uint64_t id,
            Clock::time_point start) {
    Span s;
    s.name = name;
    s.layer = layer;
    s.id = id;
    s.start_us = micros(start);
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void finish(int index, Clock::time_point end) {
    spans_[index].end_us = micros(end);
    open_.pop_back();
  }

  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  bool recording_ = true;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of spans not yet finished
};

}  // namespace bench
