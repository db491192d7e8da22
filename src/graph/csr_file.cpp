#include "src/graph/csr_file.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>
#include <utility>

#include "src/util/assert.hpp"
#include "src/util/parallel.hpp"

namespace acic::graph {

namespace {

/// On-disk neighbor record.  Field-for-field the in-memory Neighbor,
/// with the alignment hole made explicit so it is always written as
/// zero; the asserts below let MappedCsr reinterpret the mmap'd section
/// as `const Neighbor*` with no conversion pass.
struct PackedNeighbor {
  std::uint32_t dst = 0;
  std::uint32_t pad = 0;
  double weight = 0.0;
};
static_assert(sizeof(PackedNeighbor) == 16);
static_assert(sizeof(Neighbor) == sizeof(PackedNeighbor));
static_assert(offsetof(Neighbor, dst) == offsetof(PackedNeighbor, dst));
static_assert(offsetof(Neighbor, weight) == offsetof(PackedNeighbor, weight));
static_assert(sizeof(Edge) == 16);          // packed: u32, u32, f64
static_assert(sizeof(std::size_t) == 8);    // offsets are stored as u64

/// Elements staged per I/O call in the buffered section readers/writers.
constexpr std::size_t kIoBatch = std::size_t{1} << 16;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

std::uint64_t page_align(std::uint64_t pos) {
  return (pos + kCsrFilePageBytes - 1) & ~(kCsrFilePageBytes - 1);
}

bool write_zeros(std::FILE* f, std::uint64_t count) {
  static const char zeros[kCsrFilePageBytes] = {};
  while (count > 0) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(count, sizeof(zeros)));
    if (std::fwrite(zeros, 1, n, f) != n) return false;
    count -= n;
  }
  return true;
}

/// Pads the file from `pos` up to the next page boundary; returns the
/// aligned position.
bool pad_to_page(std::FILE* f, std::uint64_t* pos) {
  const std::uint64_t aligned = page_align(*pos);
  if (!write_zeros(f, aligned - *pos)) return false;
  *pos = aligned;
  return true;
}

CsrFileHeader make_header(std::uint64_t num_vertices,
                          std::uint64_t num_edges) {
  CsrFileHeader h;
  h.num_vertices = num_vertices;
  h.num_edges = num_edges;
  h.offsets_pos = kCsrFilePageBytes;
  h.offsets_bytes = (num_vertices + 1) * sizeof(std::uint64_t);
  h.neighbors_pos = page_align(h.offsets_pos + h.offsets_bytes);
  h.neighbors_bytes = num_edges * sizeof(PackedNeighbor);
  return h;
}

bool write_header_page(std::FILE* f, const CsrFileHeader& h,
                       std::uint64_t* pos) {
  if (std::fwrite(&h, sizeof(h), 1, f) != 1) return false;
  *pos = sizeof(h);
  return pad_to_page(f, pos);
}

bool edge_less(const Edge& a, const Edge& b) {
  if (a.src != b.src) return a.src < b.src;
  if (a.dst != b.dst) return a.dst < b.dst;
  return a.weight < b.weight;
}

/// Streams neighbor records through a bounded staging buffer.
class NeighborWriter {
 public:
  explicit NeighborWriter(std::FILE* f) : f_(f) { buf_.reserve(kIoBatch); }

  bool push(VertexId dst, Weight weight) {
    buf_.push_back(PackedNeighbor{dst, 0, weight});
    return buf_.size() < kIoBatch || flush();
  }

  bool flush() {
    if (buf_.empty()) return true;
    const std::size_t n = buf_.size();
    if (std::fwrite(buf_.data(), sizeof(PackedNeighbor), n, f_) != n) {
      return false;
    }
    buf_.clear();
    written_ += n;
    return true;
  }

  std::uint64_t written() const { return written_; }

 private:
  std::FILE* f_;
  std::vector<PackedNeighbor> buf_;
  std::uint64_t written_ = 0;
};

}  // namespace

bool write_csr_file(const Csr& csr, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;
  const CsrFileHeader h = make_header(csr.num_vertices(), csr.num_edges());
  std::uint64_t pos = 0;
  if (!write_header_page(f.get(), h, &pos)) return false;

  const std::span<const std::size_t> offsets = csr.offsets();
  if (std::fwrite(offsets.data(), sizeof(std::uint64_t), offsets.size(),
                  f.get()) != offsets.size()) {
    return false;
  }
  pos += h.offsets_bytes;
  if (!pad_to_page(f.get(), &pos)) return false;

  NeighborWriter out(f.get());
  for (const Neighbor& nb : csr.neighbors()) {
    if (!out.push(nb.dst, nb.weight)) return false;
  }
  if (!out.flush()) return false;
  pos += h.neighbors_bytes;
  if (!pad_to_page(f.get(), &pos)) return false;
  return std::fflush(f.get()) == 0;
}

bool probe_csr_file(const std::string& path, CsrFileHeader* header) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return false;
  CsrFileHeader h;
  if (std::fread(&h, sizeof(h), 1, f.get()) != 1 ||
      h.magic != kCsrFileMagic) {
    return false;
  }
  if (h.version != kCsrFileVersion) {
    throw std::runtime_error("unsupported on-disk CSR version in " + path);
  }
  // The counts are bounded before the sizes are formed from them, and
  // each section end before it is summed, so no term below can wrap.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (h.page_bytes != kCsrFilePageBytes ||
      h.num_vertices > std::numeric_limits<VertexId>::max() ||
      h.num_edges > kMax / sizeof(PackedNeighbor) ||
      h.offsets_pos < kCsrFilePageBytes ||
      h.offsets_pos % kCsrFilePageBytes != 0 ||
      h.neighbors_pos % kCsrFilePageBytes != 0 ||
      h.offsets_bytes != (h.num_vertices + 1) * sizeof(std::uint64_t) ||
      h.neighbors_bytes != h.num_edges * sizeof(PackedNeighbor) ||
      h.offsets_pos > kMax - h.offsets_bytes ||
      h.neighbors_pos > kMax - h.neighbors_bytes ||
      h.neighbors_pos < h.offsets_pos + h.offsets_bytes) {
    throw std::runtime_error("malformed on-disk CSR header in " + path);
  }
  if (header != nullptr) *header = h;
  return true;
}

StreamingCsrWriter::StreamingCsrWriter(std::string path,
                                       VertexId num_vertices,
                                       Options options)
    : path_(std::move(path)),
      options_(options),
      num_vertices_(num_vertices) {
  ACIC_ASSERT(options_.chunk_edges > 0);
  if (options_.threads == 0) options_.threads = 1;
  chunk_.reserve(static_cast<std::size_t>(options_.chunk_edges));
  degrees_.assign(num_vertices_, 0);
  if (options_.tmp_dir.empty()) {
    options_.tmp_dir = path_ + ".spill";
  } else {
    options_.tmp_dir += "/";
    const std::size_t slash = path_.rfind('/');
    options_.tmp_dir +=
        slash == std::string::npos ? path_ : path_.substr(slash + 1);
    options_.tmp_dir += ".spill";
  }
}

StreamingCsrWriter::~StreamingCsrWriter() {
  for (const Run& run : runs_) std::remove(run.path.c_str());
}

void StreamingCsrWriter::add(const Edge& e) {
  ACIC_HOT_ASSERT(e.src < num_vertices_ && e.dst < num_vertices_);
  ACIC_ASSERT_MSG(!finished_, "StreamingCsrWriter: add after finish");
  ++degrees_[e.src];
  ++num_edges_;
  chunk_.push_back(e);
  if (chunk_.size() >= options_.chunk_edges) spill_chunk();
}

void StreamingCsrWriter::add(std::span<const Edge> edges) {
  for (const Edge& e : edges) add(e);
}

bool StreamingCsrWriter::spill_chunk() {
  if (chunk_.empty()) return true;

  // Sort by (src, dst, weight): the counting-sort-by-src + per-row
  // (dst, weight) order that Csr::from_edge_list produces.  Sub-ranges
  // sort on host threads, then a serial merge cascade restores the total
  // order — ties are byte-identical edges, so the run bytes do not
  // depend on the thread count.
  const unsigned t = std::min<unsigned>(
      options_.threads,
      static_cast<unsigned>(
          std::max<std::size_t>(1, chunk_.size() / 1024)));
  if (t <= 1) {
    std::sort(chunk_.begin(), chunk_.end(), edge_less);
  } else {
    std::vector<std::size_t> bounds(t + 1);
    for (unsigned i = 0; i <= t; ++i) {
      bounds[i] = chunk_.size() * i / t;
    }
    util::parallel_for(t, t, [&](std::uint64_t i) {
      std::sort(chunk_.begin() + bounds[i], chunk_.begin() + bounds[i + 1],
                edge_less);
    });
    for (unsigned gap = 1; gap < t; gap *= 2) {
      for (unsigned i = 0; i + gap <= t; i += 2 * gap) {
        const unsigned hi = std::min(i + 2 * gap, t);
        std::inplace_merge(chunk_.begin() + bounds[i],
                           chunk_.begin() + bounds[i + gap],
                           chunk_.begin() + bounds[hi], edge_less);
      }
    }
  }

  Run run;
  run.path = options_.tmp_dir + "." + std::to_string(runs_.size());
  run.num_edges = chunk_.size();
  FilePtr f(std::fopen(run.path.c_str(), "wb"));
  if (!f || std::fwrite(chunk_.data(), sizeof(Edge), chunk_.size(),
                        f.get()) != chunk_.size()) {
    io_error_ = true;
    return false;
  }
  chunk_.clear();
  runs_.push_back(std::move(run));
  return true;
}

bool StreamingCsrWriter::finish() {
  ACIC_ASSERT_MSG(!finished_, "StreamingCsrWriter: finish called twice");
  finished_ = true;
  if (!spill_chunk() || io_error_) return false;
  chunk_.shrink_to_fit();

  FilePtr out(std::fopen(path_.c_str(), "wb"));
  if (!out) return false;
  const CsrFileHeader h = make_header(num_vertices_, num_edges_);
  std::uint64_t pos = 0;
  if (!write_header_page(out.get(), h, &pos)) return false;

  // Offsets: streamed prefix sum over the degree counts, no |V|+1 array.
  {
    std::vector<std::uint64_t> buf;
    buf.reserve(kIoBatch);
    std::uint64_t acc = 0;
    buf.push_back(0);
    for (VertexId v = 0; v < num_vertices_; ++v) {
      acc += degrees_[v];
      buf.push_back(acc);
      if (buf.size() == kIoBatch) {
        if (std::fwrite(buf.data(), sizeof(std::uint64_t), buf.size(),
                        out.get()) != buf.size()) {
          return false;
        }
        buf.clear();
      }
    }
    if (!buf.empty() &&
        std::fwrite(buf.data(), sizeof(std::uint64_t), buf.size(),
                    out.get()) != buf.size()) {
      return false;
    }
    ACIC_ASSERT(acc == num_edges_);
  }
  pos += h.offsets_bytes;
  if (!pad_to_page(out.get(), &pos)) return false;

  // K-way merge of the sorted runs straight into the neighbors section.
  struct Cursor {
    FilePtr file;
    std::vector<Edge> buf;
    std::size_t next = 0;
    std::uint64_t remaining = 0;

    bool refill() {
      if (next < buf.size()) return true;
      if (remaining == 0) return false;
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(remaining, kIoBatch));
      buf.resize(n);
      if (std::fread(buf.data(), sizeof(Edge), n, file.get()) != n) {
        buf.clear();
        remaining = 0;
        return false;  // truncated run; surfaced as a count mismatch
      }
      remaining -= n;
      next = 0;
      return true;
    }
    const Edge& head() const { return buf[next]; }
  };

  std::vector<Cursor> cursors(runs_.size());
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    cursors[r].file.reset(std::fopen(runs_[r].path.c_str(), "rb"));
    if (!cursors[r].file) return false;
    cursors[r].remaining = runs_[r].num_edges;
  }

  const auto cursor_greater = [&cursors](std::size_t a, std::size_t b) {
    const Edge& ea = cursors[a].head();
    const Edge& eb = cursors[b].head();
    if (edge_less(ea, eb)) return false;
    if (edge_less(eb, ea)) return true;
    return a > b;  // tied edges are byte-identical; any order works
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      decltype(cursor_greater)>
      heap(cursor_greater);
  for (std::size_t r = 0; r < cursors.size(); ++r) {
    if (cursors[r].refill()) heap.push(r);
  }

  NeighborWriter nb_out(out.get());
  while (!heap.empty()) {
    const std::size_t r = heap.top();
    heap.pop();
    const Edge& e = cursors[r].head();
    if (!nb_out.push(e.dst, e.weight)) return false;
    ++cursors[r].next;
    if (cursors[r].refill()) heap.push(r);
  }
  if (!nb_out.flush()) return false;
  if (nb_out.written() != num_edges_) return false;
  pos += h.neighbors_bytes;
  if (!pad_to_page(out.get(), &pos)) return false;
  if (std::fflush(out.get()) != 0) return false;

  for (const Run& run : runs_) std::remove(run.path.c_str());
  runs_.clear();
  return true;
}

}  // namespace acic::graph
