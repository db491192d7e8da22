#include "src/graph/mapped_csr.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>
#include <utility>

namespace acic::graph {

MappedCsr::MappedCsr(const std::string& path) {
  if (!probe_csr_file(path, &header_)) {
    throw std::runtime_error("not an on-disk CSR file: " + path);
  }

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("cannot open on-disk CSR: " + path);
  }
  // probe_csr_file ordered the sections and ruled out wrapping, so the
  // neighbors section ending inside the file bounds both sections.
  struct stat st = {};
  if (::fstat(fd, &st) != 0 ||
      static_cast<std::uint64_t>(st.st_size) <
          header_.neighbors_pos + header_.neighbors_bytes) {
    ::close(fd);
    throw std::runtime_error("truncated on-disk CSR: " + path);
  }
  map_bytes_ = static_cast<std::size_t>(st.st_size);
  void* map = ::mmap(nullptr, map_bytes_, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) {
    throw std::runtime_error("cannot mmap on-disk CSR: " + path);
  }
  map_ = static_cast<std::byte*>(map);

  const auto* offsets = reinterpret_cast<const std::size_t*>(
      map_ + header_.offsets_pos);
  const auto* neighbors =
      reinterpret_cast<const Neighbor*>(map_ + header_.neighbors_pos);
  if (offsets[0] != 0 ||
      offsets[header_.num_vertices] != header_.num_edges) {
    ::munmap(map_, map_bytes_);
    map_ = nullptr;
    throw std::runtime_error("corrupt on-disk CSR offsets: " + path);
  }
  view_ = Csr::borrow(offsets, neighbors,
                      static_cast<VertexId>(header_.num_vertices),
                      static_cast<std::size_t>(header_.num_edges));
}

void MappedCsr::reset() noexcept {
  if (map_ != nullptr) {
    ::munmap(map_, map_bytes_);
    map_ = nullptr;
  }
  map_bytes_ = 0;
  view_ = Csr();
}

MappedCsr::~MappedCsr() { reset(); }

MappedCsr::MappedCsr(MappedCsr&& other) noexcept
    : header_(other.header_),
      view_(std::move(other.view_)),
      map_(other.map_),
      map_bytes_(other.map_bytes_) {
  other.map_ = nullptr;
  other.map_bytes_ = 0;
  other.view_ = Csr();
}

MappedCsr& MappedCsr::operator=(MappedCsr&& other) noexcept {
  if (this != &other) {
    reset();
    header_ = other.header_;
    view_ = std::move(other.view_);
    map_ = other.map_;
    map_bytes_ = other.map_bytes_;
    other.map_ = nullptr;
    other.map_bytes_ = 0;
    other.view_ = Csr();
  }
  return *this;
}

}  // namespace acic::graph
