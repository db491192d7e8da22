#include "src/runtime/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "src/util/assert.hpp"

namespace acic::runtime {

std::vector<std::vector<double>> Tracer::utilization(
    std::uint32_t num_pes, SimTime horizon_us, std::size_t bins) const {
  ACIC_ASSERT(bins > 0 && horizon_us > 0.0);
  std::vector<std::vector<double>> busy(
      num_pes, std::vector<double>(bins, 0.0));
  const double bin_width = horizon_us / static_cast<double>(bins);

  for (const TraceSpan& span : spans_) {
    if (span.pe >= num_pes) continue;          // comm threads etc.
    // Named spans overlap the task spans that already account for the
    // busy time; only kTask contributes.
    if (span.kind != SpanKind::kTask) continue;
    const SimTime start = std::min(span.start_us, horizon_us);
    const SimTime end = std::min(span.end_us, horizon_us);
    auto bin = static_cast<std::size_t>(start / bin_width);
    SimTime cursor = start;
    while (cursor < end && bin < bins) {
      const SimTime bin_end = bin_width * static_cast<double>(bin + 1);
      const SimTime slice = std::min(end, bin_end) - cursor;
      busy[span.pe][bin] += slice;
      cursor += slice;
      ++bin;
    }
  }
  for (auto& row : busy) {
    for (double& cell : row) {
      cell = std::min(1.0, cell / bin_width);
    }
  }
  return busy;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("pe,start_us,end_us,kind\n", f);
  for (const TraceSpan& span : spans_) {
    const char* kind = span.kind == SpanKind::kTask       ? "task"
                       : span.kind == SpanKind::kIdlePoll ? "idle"
                       : span.name != nullptr             ? span.name
                                                          : "named";
    std::fprintf(f, "%u,%.3f,%.3f,%s\n", span.pe, span.start_us,
                 span.end_us, kind);
  }
  const bool write_failed = std::ferror(f) != 0;
  return std::fclose(f) == 0 && !write_failed;
}

std::string Tracer::utilization_art(std::uint32_t num_pes,
                                    SimTime horizon_us,
                                    std::size_t bins) const {
  const auto busy = utilization(num_pes, horizon_us, bins);
  static constexpr char kLevels[] = {'.', ':', '-', '=', '#'};
  std::string art;
  for (std::uint32_t pe = 0; pe < num_pes; ++pe) {
    art += "pe";
    art += std::to_string(pe);
    if (pe < 10) art += ' ';
    art += " |";
    for (const double fraction : busy[pe]) {
      const auto level = static_cast<std::size_t>(
          std::min(4.0, fraction * 5.0));
      art += kLevels[level];
    }
    art += "|\n";
  }
  return art;
}

}  // namespace acic::runtime
