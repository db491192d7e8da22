#pragma once
// Execution tracing — the simulator's analogue of Charm++'s Projections
// performance-analysis tool.  Attached with Machine::set_tracer, the
// tracer records one span per executed task and idle poll: (pe, start,
// end, kind).  Application code can add *named* spans with the
// ScopedSpan RAII guard, passing the machine's tracer() (src/server/
// wraps its front-end handlers this way).
// Traces can be summarized into per-PE utilization timelines (busy
// fraction per time bin), dumped to CSV for external plotting, or
// exported as Perfetto-loadable Chrome trace JSON together with a
// counter registry (src/obs/export.hpp).
//
// Long-running servers trace unboundedly many spans; set_capacity()
// bounds memory with oldest-first eviction — the tracer then keeps a
// sliding window over the most recent spans and reports the loss via
// overflowed()/dropped_spans().

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/runtime/machine.hpp"

namespace acic::runtime {

enum class SpanKind : std::uint8_t { kTask, kIdlePoll, kNamed };

struct TraceSpan {
  PeId pe = 0;
  SimTime start_us = 0.0;
  SimTime end_us = 0.0;
  SpanKind kind = SpanKind::kTask;
  /// Label for kNamed spans; must be a string literal (or otherwise
  /// outlive the tracer) — spans do not own their names.
  const char* name = nullptr;
};

class Tracer {
 public:
  void record(PeId pe, SimTime start_us, SimTime end_us, SpanKind kind,
              const char* name = nullptr) {
    if (capacity_ != 0 && spans_.size() >= capacity_) {
      spans_.pop_front();
      ++dropped_;
    }
    spans_.push_back(TraceSpan{pe, start_us, end_us, kind, name});
  }

  const std::deque<TraceSpan>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    dropped_ = 0;
  }

  /// Bounds the span store to `max_spans` (0 = unbounded, the default).
  /// When full, recording evicts the *oldest* span; the trace becomes a
  /// sliding window over the most recent activity.  Shrinks immediately
  /// if the store already exceeds the new capacity.
  void set_capacity(std::size_t max_spans) {
    capacity_ = max_spans;
    while (capacity_ != 0 && spans_.size() > capacity_) {
      spans_.pop_front();
      ++dropped_;
    }
  }
  std::size_t capacity() const { return capacity_; }

  /// True once any span has been evicted: utilization and exports then
  /// cover only the retained window.
  bool overflowed() const { return dropped_ != 0; }
  std::uint64_t dropped_spans() const { return dropped_; }

  /// Busy fraction of each PE within [0, horizon), split into `bins`
  /// equal time bins: result[pe][bin] in [0, 1].  Idle polls count as
  /// idle time; named spans are excluded (they overlap the task spans
  /// that already account for the busy time).
  std::vector<std::vector<double>> utilization(std::uint32_t num_pes,
                                               SimTime horizon_us,
                                               std::size_t bins) const;

  /// Writes `pe,start_us,end_us,kind` rows (kind is "task", "idle", or
  /// the span's name); returns false on I/O error.
  bool write_csv(const std::string& path) const;

  /// Renders a coarse text heat-map (one row per PE, one column per
  /// bin; characters . : - = # for 0-100% busy) to a string.
  std::string utilization_art(std::uint32_t num_pes, SimTime horizon_us,
                              std::size_t bins) const;

 private:
  std::deque<TraceSpan> spans_;
  std::size_t capacity_ = 0;  // 0 = unbounded
  std::uint64_t dropped_ = 0;
};

/// RAII guard that records one named span over its own lifetime: the
/// span runs from construction to destruction in the PE's simulated
/// time.  This replaces hand-written Tracer::record calls at
/// instrumentation sites — the guard cannot forget the end timestamp
/// on an early return.  A null tracer makes the guard a no-op, so call
/// sites need no conditionals.  `name` must outlive the tracer (use a
/// string literal).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const Pe& pe, const char* name)
      : tracer_(tracer), pe_(&pe), name_(name), start_us_(pe.now()) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->record(pe_->id(), start_us_, pe_->now(), SpanKind::kNamed,
                      name_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  const Pe* pe_ = nullptr;
  const char* name_ = nullptr;
  SimTime start_us_ = 0.0;
};

}  // namespace acic::runtime
