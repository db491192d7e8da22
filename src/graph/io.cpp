#include "src/graph/io.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace acic::graph {

bool write_edge_list_csv(const EdgeList& list, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Edge& e : list.edges()) {
    std::fprintf(f, "%u,%u,%.17g\n", e.src, e.dst, e.weight);
  }
  const bool write_failed = std::ferror(f) != 0;
  return std::fclose(f) == 0 && !write_failed;
}

namespace {

[[noreturn]] void reject(std::FILE* f, const std::string& path,
                         std::size_t line_no, const char* what) {
  std::fclose(f);
  throw std::runtime_error(std::string(what) + " at " + path + ":" +
                           std::to_string(line_no));
}

const char* skip_blanks(const char* p) {
  while (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\n') ++p;
  return p;
}

/// Skips blanks and one comma, if present: the field separator of both
/// the CSV and the whitespace-separated format.
const char* skip_separator(const char* p) {
  p = skip_blanks(p);
  return *p == ',' ? skip_blanks(p + 1) : p;
}

}  // namespace

EdgeList read_edge_list_csv(const std::string& path, VertexId num_vertices) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    throw std::runtime_error("cannot open edge list: " + path);
  }
  EdgeList list;
  char line[256];
  std::size_t line_no = 0;
  VertexId max_vertex = 0;
  // Ids must stay below kInvalidVertex, so max id + 1 still fits.
  const auto parse_id = [&](const char*& p) {
    if (*p == '-') reject(f, path, line_no, "negative vertex id");
    if (std::isdigit(static_cast<unsigned char>(*p)) == 0) {
      reject(f, path, line_no, "malformed edge");
    }
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(p, &end, 10);
    if (errno == ERANGE || value >= kInvalidVertex) {
      reject(f, path, line_no, "vertex id out of range");
    }
    p = end;
    return static_cast<VertexId>(value);
  };
  while (std::fgets(line, sizeof line, f) != nullptr) {
    ++line_no;
    // Skip blank lines and comments.
    if (line[0] == '\n' || line[0] == '#' || line[0] == '\0') continue;
    // Accept both the artifact's CSV (src,dst,weight from
    // rmat_preprocess.py) and PaRMAT's whitespace-separated out.txt.
    const char* p = skip_blanks(line);
    const VertexId src = parse_id(p);
    p = skip_separator(p);
    const VertexId dst = parse_id(p);
    Weight weight = 1.0;
    p = skip_separator(p);
    if (*p != '\0') {
      char* end = nullptr;
      weight = std::strtod(p, &end);
      if (end == p || *skip_blanks(end) != '\0') {
        reject(f, path, line_no, "malformed edge weight");
      }
      // validate_csr's contract: every weight finite and >= 0.
      if (!std::isfinite(weight) || weight < 0.0) {
        reject(f, path, line_no, "edge weight not finite and >= 0");
      }
    }
    list.add(src, dst, weight);
    max_vertex = std::max({max_vertex, src, dst});
  }
  std::fclose(f);
  list.set_num_vertices(num_vertices != 0 ? num_vertices : max_vertex + 1);
  if (!list.endpoints_in_range()) {
    throw std::runtime_error("edge endpoint exceeds num_vertices in " + path);
  }
  return list;
}

}  // namespace acic::graph
