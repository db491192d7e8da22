#pragma once
// Page-aligned on-disk CSR: the out-of-core graph format.
//
// Layout (little-endian, host field layout, every section starting on a
// 4 KiB page boundary so it maps page-aligned):
//
//   [0, 4096)              CsrFileHeader, zero-padded to one page
//   [offsets_pos, ...)     (|V|+1) x u64 row offsets, zero-padded to a page
//   [neighbors_pos, ...)   |E| x 16-byte neighbor records
//                          {u32 dst, u32 zero-pad, f64 weight},
//                          zero-padded to a page
//
// The neighbor record layout is static_asserted to match the in-memory
// `Neighbor`, so an mmap of the neighbors section is directly usable as
// `const Neighbor*` (see MappedCsr).  The struct's padding bytes are
// written as explicit zeros, which makes file bytes a pure function of
// the edge multiset: the same graph always produces the same file,
// whether written from an in-memory Csr or by the streaming builder at
// any chunk size or thread count (the ooc tests pin this).
//
// StreamingCsrWriter builds scale-24+ files without ever holding the
// edge list in RAM: edges accumulate in a bounded chunk buffer, each
// full chunk is sorted by (src, dst, weight) and spilled as a run file,
// and finish() k-way-merges the runs straight into the neighbors
// section.  A global (src, dst, weight) sort is the per-source counting
// sort + per-row (dst, weight) sort that Csr::from_edge_list performs,
// so the merged output is byte-identical to the in-memory build.  Peak
// memory is O(chunk + |V|) — the per-vertex degree counts (8 bytes per
// vertex) plus one chunk buffer — independent of |E|.

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "src/graph/csr.hpp"
#include "src/graph/types.hpp"

namespace acic::graph {

/// "ACICOOC1".
inline constexpr std::uint64_t kCsrFileMagic = 0x31434F4F43494341ULL;
inline constexpr std::uint32_t kCsrFileVersion = 1;
/// Section alignment.  Fixed at the classic 4 KiB page, so files written
/// on a large-page host stay valid everywhere.
inline constexpr std::uint64_t kCsrFilePageBytes = 4096;

struct CsrFileHeader {
  std::uint64_t magic = kCsrFileMagic;
  std::uint32_t version = kCsrFileVersion;
  std::uint32_t page_bytes = static_cast<std::uint32_t>(kCsrFilePageBytes);
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t offsets_pos = 0;      // page-aligned
  std::uint64_t offsets_bytes = 0;    // (num_vertices + 1) * 8
  std::uint64_t neighbors_pos = 0;    // page-aligned
  std::uint64_t neighbors_bytes = 0;  // num_edges * 16
};
static_assert(sizeof(CsrFileHeader) == 64);

/// Writes `csr` to `path` in the on-disk format, streaming section by
/// section (no full-file staging buffer).  Returns false on I/O failure.
bool write_csr_file(const Csr& csr, const std::string& path);

/// Reads just the header.  Returns false (without throwing) if the file
/// is missing or does not carry the on-disk-CSR magic; throws
/// std::runtime_error on an unsupported version or a malformed header:
/// a vertex count VertexId cannot hold, section sizes that disagree with
/// the counts, a section that is unaligned, overlaps the header page or
/// its predecessor, or ends past 2^64.  O(1): the sections are not read.
bool probe_csr_file(const std::string& path, CsrFileHeader* header);

/// Knobs for StreamingCsrWriter (namespace scope so it can serve as a
/// defaulted constructor argument — a nested class's field defaults are
/// not parsed early enough for that).
struct StreamingCsrWriterOptions {
  /// Edges buffered in RAM before a sorted run is spilled (16 bytes
  /// each; the default buffers 64 MiB).
  std::uint64_t chunk_edges = 1ull << 22;
  /// Host threads for sorting chunk sub-ranges.  A chunk is split into
  /// `threads` blocks sorted in parallel and then merged, so the run
  /// bytes — and the final file — are identical at any thread count.
  unsigned threads = 1;
  /// Directory for spill runs; empty means alongside `path`.
  std::string tmp_dir;
};

/// External-memory CSR construction: add() edges in any order, then
/// finish() writes the complete file.  See the file comment for the
/// spill/merge design and the byte-equality contract.
class StreamingCsrWriter {
 public:
  using Options = StreamingCsrWriterOptions;

  StreamingCsrWriter(std::string path, VertexId num_vertices,
                     Options options = {});
  ~StreamingCsrWriter();

  StreamingCsrWriter(const StreamingCsrWriter&) = delete;
  StreamingCsrWriter& operator=(const StreamingCsrWriter&) = delete;

  void add(const Edge& e);
  void add(std::span<const Edge> edges);

  std::uint64_t num_edges_added() const { return num_edges_; }
  /// Sorted runs spilled so far (finish() may add one more for the tail).
  std::size_t num_runs() const { return runs_.size(); }

  /// Sorts/spills the tail chunk, merges all runs into the final file,
  /// and removes the spill files.  Returns false on I/O failure (spill
  /// files are cleaned up either way).  May be called once.
  bool finish();

 private:
  bool spill_chunk();

  std::string path_;
  Options options_;
  VertexId num_vertices_ = 0;
  std::uint64_t num_edges_ = 0;
  bool finished_ = false;
  bool io_error_ = false;
  std::vector<Edge> chunk_;
  std::vector<std::uint64_t> degrees_;  // per-source counts, |V| entries
  struct Run {
    std::string path;
    std::uint64_t num_edges = 0;
  };
  std::vector<Run> runs_;
};

}  // namespace acic::graph
