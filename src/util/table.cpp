#include "src/util/table.hpp"

#include <cstdarg>

#include "src/util/assert.hpp"

namespace acic::util {

std::string strformat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  ACIC_ASSERT(needed >= 0);
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

void Table::add_row(std::vector<std::string> cells) {
  ACIC_ASSERT_MSG(cells.size() == headers_.size(),
                  "row width must match header width");
  rows_.push_back(std::move(cells));
}

void Table::print(std::FILE* out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::fputs("|", out);
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::fprintf(out, " %-*s |", static_cast<int>(widths[c]),
                   row[c].c_str());
    }
    std::fputs("\n", out);
  };
  print_row(headers_);
  std::fputs("|", out);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    for (std::size_t i = 0; i < widths[c] + 2; ++i) std::fputc('-', out);
    std::fputc('|', out);
  }
  std::fputs("\n", out);
  for (const auto& row : rows_) print_row(row);
}

bool Table::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto write_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) std::fputc(',', f);
      std::fputs(row[c].c_str(), f);
    }
    std::fputc('\n', f);
  };
  write_row(headers_);
  for (const auto& row : rows_) write_row(row);
  const bool write_failed = std::ferror(f) != 0;
  return std::fclose(f) == 0 && !write_failed;
}

}  // namespace acic::util
