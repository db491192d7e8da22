#pragma once
// mmap-backed graph storage: opens a CsrFile (src/graph/csr_file.hpp)
// read-only and exposes it as a borrowed `Csr` view.  The sections are
// page-aligned in the file, so the offset and neighbor arrays land
// page-aligned in the mapping and the view's spans point straight into
// the page cache — solvers run unmodified, the kernel faults adjacency
// pages in on first touch, and resident memory is bounded by what the
// access pattern actually touches, not by |E|.

#include <cstddef>
#include <string>

#include "src/graph/csr.hpp"
#include "src/graph/csr_file.hpp"

namespace acic::graph {

class MappedCsr {
 public:
  /// Maps `path` read-only.  Throws std::runtime_error if the file is
  /// missing, not an on-disk CSR, or cannot be mapped.
  explicit MappedCsr(const std::string& path);
  ~MappedCsr();

  MappedCsr(const MappedCsr&) = delete;
  MappedCsr& operator=(const MappedCsr&) = delete;
  MappedCsr(MappedCsr&& other) noexcept;
  MappedCsr& operator=(MappedCsr&& other) noexcept;

  /// Borrowed view into the mapping; valid while this object lives.
  const Csr& csr() const { return view_; }
  const CsrFileHeader& header() const { return header_; }
  VertexId num_vertices() const { return view_.num_vertices(); }
  std::size_t num_edges() const { return view_.num_edges(); }
  std::size_t mapping_bytes() const { return map_bytes_; }

 private:
  void reset() noexcept;

  CsrFileHeader header_;
  Csr view_;
  std::byte* map_ = nullptr;
  std::size_t map_bytes_ = 0;
};

}  // namespace acic::graph
