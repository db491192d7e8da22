// Out-of-core storage tests: the on-disk CSR format, the streaming
// (external-memory) builder's byte-equality contract, and the
// mmap-backed view, which every solver must run on unmodified at one and
// four host threads.  Every suite here is named Ooc* so CI's TSan job
// can include the whole family.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/csr.hpp"
#include "src/graph/csr_file.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/mapped_csr.hpp"
#include "src/sssp/solver.hpp"
#include "src/stats/experiment.hpp"

namespace {

using namespace acic;
using graph::Csr;
using graph::Edge;
using graph::EdgeList;
using graph::GenParams;
using graph::VertexId;

GenParams make_params(std::uint32_t scale, std::uint64_t seed) {
  GenParams params;
  params.num_vertices = VertexId{1} << scale;
  params.num_edges = 16ull * params.num_vertices;
  params.seed = seed;
  return params;
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string slurp_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void expect_same_csr(const Csr& a, const Csr& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::ranges::equal(a.offsets(), b.offsets()));
  EXPECT_TRUE(std::ranges::equal(a.neighbors(), b.neighbors()));
}

TEST(OocCsrFile, RoundTripMatchesInMemory) {
  for (const std::uint64_t seed : {1ull, 7ull}) {
    for (const std::uint32_t scale : {6u, 9u}) {
      const GenParams params = make_params(scale, seed);
      const Csr csr = Csr::from_edge_list(generate_uniform_random(params));
      const std::string path = tmp_path("ooc_roundtrip.oocsr");
      ASSERT_TRUE(graph::write_csr_file(csr, path));
      {
        const graph::MappedCsr loaded(path);
        expect_same_csr(csr, loaded.csr());
      }
      std::remove(path.c_str());
    }
  }
}

TEST(OocCsrFile, HeaderGeometryIsPageAligned) {
  const Csr csr =
      Csr::from_edge_list(generate_uniform_random(make_params(8, 3)));
  const std::string path = tmp_path("ooc_header.oocsr");
  ASSERT_TRUE(graph::write_csr_file(csr, path));
  graph::CsrFileHeader header;
  ASSERT_TRUE(graph::probe_csr_file(path, &header));
  EXPECT_EQ(header.magic, graph::kCsrFileMagic);
  EXPECT_EQ(header.version, graph::kCsrFileVersion);
  EXPECT_EQ(header.page_bytes, graph::kCsrFilePageBytes);
  EXPECT_EQ(header.num_vertices, csr.num_vertices());
  EXPECT_EQ(header.num_edges, csr.num_edges());
  EXPECT_EQ(header.offsets_pos % graph::kCsrFilePageBytes, 0u);
  EXPECT_EQ(header.neighbors_pos % graph::kCsrFilePageBytes, 0u);
  EXPECT_EQ(header.offsets_bytes,
            (static_cast<std::uint64_t>(csr.num_vertices()) + 1) * 8);
  EXPECT_EQ(header.neighbors_bytes, csr.num_edges() * 16);
  // The file ends page-aligned, with the sections in declared order.
  const std::string bytes = slurp_bytes(path);
  EXPECT_EQ(bytes.size() % graph::kCsrFilePageBytes, 0u);
  EXPECT_GE(bytes.size(), header.neighbors_pos + header.neighbors_bytes);
  std::remove(path.c_str());
}

// The external-memory builder must produce the *identical file bytes*
// as the in-memory writer, at any chunk size (run count) and any sort
// thread count, and regardless of the order edges were added in.
TEST(OocCsrFile, StreamingBuildIsByteIdentical) {
  const GenParams params = make_params(9, 11);
  const EdgeList edges = generate_uniform_random(params);
  const Csr csr = Csr::from_edge_list(edges);
  const std::string ref_path = tmp_path("ooc_ref.oocsr");
  ASSERT_TRUE(graph::write_csr_file(csr, ref_path));
  const std::string ref_bytes = slurp_bytes(ref_path);

  for (const std::uint64_t chunk : {64ull, 1ull << 12, 1ull << 22}) {
    for (const unsigned threads : {1u, 4u}) {
      const std::string path = tmp_path("ooc_stream.oocsr");
      graph::StreamingCsrWriter::Options opts;
      opts.chunk_edges = chunk;
      opts.threads = threads;
      graph::StreamingCsrWriter writer(path, params.num_vertices, opts);
      writer.add(std::span<const Edge>(edges.edges()));
      if (chunk == 64) {
        EXPECT_GT(writer.num_runs(), 1u);
      }
      ASSERT_TRUE(writer.finish());
      EXPECT_EQ(slurp_bytes(path), ref_bytes)
          << "chunk=" << chunk << " threads=" << threads;
      std::remove(path.c_str());
    }
  }

  // Reversed insertion order: same multiset, same file.
  std::vector<Edge> reversed = edges.edges();
  std::reverse(reversed.begin(), reversed.end());
  const std::string path = tmp_path("ooc_stream_rev.oocsr");
  graph::StreamingCsrWriter::Options opts;
  opts.chunk_edges = 1000;  // non-power-of-two chunking
  graph::StreamingCsrWriter writer(path, params.num_vertices, opts);
  for (const Edge& e : reversed) writer.add(e);
  ASSERT_TRUE(writer.finish());
  EXPECT_EQ(slurp_bytes(path), ref_bytes);
  std::remove(path.c_str());
  std::remove(ref_path.c_str());
}

// The chunked streaming generators emit the same edge multiset as the
// materializing ones, so generator -> StreamingCsrWriter -> file equals
// generate -> from_edge_list -> write_csr_file byte for byte.
TEST(OocCsrFile, StreamedGeneratorsMatchMaterialized) {
  struct Arm {
    const char* name;
    EdgeList (*materialize)(const GenParams&);
    void (*stream)(const GenParams&, const graph::EdgeSink&);
  };
  const Arm arms[] = {
      {"random",
       [](const GenParams& p) { return graph::generate_uniform_random(p); },
       [](const GenParams& p, const graph::EdgeSink& sink) {
         graph::stream_uniform_random(p, sink);
       }},
      {"rmat",
       [](const GenParams& p) {
         return graph::generate_rmat(p, graph::RmatParams{});
       },
       [](const GenParams& p, const graph::EdgeSink& sink) {
         graph::stream_rmat(p, sink, graph::RmatParams{});
       }},
  };
  for (const Arm& arm : arms) {
    const GenParams params = make_params(9, 5);
    const Csr csr = Csr::from_edge_list(arm.materialize(params));
    const std::string ref_path = tmp_path("ooc_gen_ref.oocsr");
    ASSERT_TRUE(graph::write_csr_file(csr, ref_path));

    const std::string path = tmp_path("ooc_gen_stream.oocsr");
    graph::StreamingCsrWriter::Options opts;
    opts.chunk_edges = 1 << 12;
    graph::StreamingCsrWriter writer(path, params.num_vertices, opts);
    arm.stream(params, [&writer](std::span<const Edge> chunk) {
      writer.add(chunk);
    });
    ASSERT_TRUE(writer.finish());
    EXPECT_EQ(slurp_bytes(path), slurp_bytes(ref_path)) << arm.name;
    std::remove(path.c_str());
    std::remove(ref_path.c_str());
  }
}

TEST(OocMappedCsr, ViewMatchesInMemory) {
  const Csr csr =
      Csr::from_edge_list(generate_uniform_random(make_params(9, 2)));
  const std::string path = tmp_path("ooc_view.oocsr");
  ASSERT_TRUE(graph::write_csr_file(csr, path));
  graph::MappedCsr mapped(path);
  EXPECT_FALSE(mapped.csr().owns_storage());
  expect_same_csr(csr, mapped.csr());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    const auto a = csr.out_neighbors(v);
    const auto b = mapped.csr().out_neighbors(v);
    ASSERT_TRUE(std::ranges::equal(a, b)) << "vertex " << v;
  }
  std::remove(path.c_str());
}

// Every registered solver, run on the mmap-backed view, must produce
// elementwise-identical distances and the same simulated time as the
// in-memory run, at one host thread and at four (one shard per node).
TEST(OocMappedCsr, AllSolversMatchInMemory) {
  const Csr csr =
      Csr::from_edge_list(generate_uniform_random(make_params(9, 4)));
  const std::string path = tmp_path("ooc_solvers.oocsr");
  ASSERT_TRUE(graph::write_csr_file(csr, path));
  graph::MappedCsr mapped(path);
  stats::ExperimentSpec spec;
  spec.nodes = 4;
  for (const unsigned threads : {1u, 4u}) {
    for (const std::string& solver : sssp::solver_names()) {
      runtime::Machine mem_machine(spec.topology());
      mem_machine.set_threads(threads);
      const sssp::SolverRun mem_run =
          sssp::run_solver(solver, mem_machine, csr, 0);
      runtime::Machine map_machine(spec.topology());
      map_machine.set_threads(threads);
      const sssp::SolverRun map_run =
          sssp::run_solver(solver, map_machine, mapped.csr(), 0);
      ASSERT_EQ(mem_run.sssp.dist.size(), map_run.sssp.dist.size());
      for (std::size_t v = 0; v < mem_run.sssp.dist.size(); ++v) {
        ASSERT_EQ(mem_run.sssp.dist[v], map_run.sssp.dist[v])
            << solver << " threads " << threads << " vertex " << v;
      }
      EXPECT_EQ(mem_run.sssp.metrics.sim_time_us,
                map_run.sssp.metrics.sim_time_us)
          << solver << " threads " << threads;
    }
  }
  std::remove(path.c_str());
}

TEST(OocCsrFile, ProbeRejectsMissingAndForeignFiles) {
  graph::CsrFileHeader header;
  EXPECT_FALSE(graph::probe_csr_file(tmp_path("ooc_no_such_file"), &header));

  // Bytes without the magic are not an on-disk CSR, whether shorter than
  // a header or a full page: probe says "not mine" without throwing, and
  // MappedCsr refuses them.
  const std::string foreign = tmp_path("ooc_foreign.bin");
  for (const std::size_t size : {std::size_t{5}, graph::kCsrFilePageBytes}) {
    SCOPED_TRACE(size);
    {
      std::ofstream out(foreign, std::ios::binary);
      out << std::string(size, 'x');
    }
    EXPECT_FALSE(graph::probe_csr_file(foreign, &header));
    EXPECT_THROW(graph::MappedCsr{foreign}, std::runtime_error);
  }
  std::remove(foreign.c_str());
}

// Crafted headers whose arithmetic wraps.  Each file is 8 KiB: `header`,
// then zeros, so every section the header names reads as zeros and only
// the header itself can mislead the reader.
void write_header_file(const std::string& path,
                       const graph::CsrFileHeader& header) {
  std::string bytes(2 * graph::kCsrFilePageBytes, '\0');
  std::memcpy(bytes.data(), &header, sizeof header);
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_malformed_header(const graph::CsrFileHeader& header,
                             const std::string& name) {
  const std::string path = tmp_path(name);
  write_header_file(path, header);
  graph::CsrFileHeader probed;
  EXPECT_THROW(graph::probe_csr_file(path, &probed), std::runtime_error);
  try {
    const graph::MappedCsr mapped(path);
    ADD_FAILURE() << "MappedCsr opened " << name;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("malformed on-disk CSR header"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(OocCsrFile, RejectsVertexCountWhoseOffsetsSizeWraps) {
  // (2^61 - 1 + 1) * 8 wraps to 0, so offsets_bytes = 0 "matches" the
  // count; mapping it would index offsets[2^32 - 1].
  graph::CsrFileHeader header;
  header.num_vertices = (std::uint64_t{1} << 61) - 1;
  header.offsets_pos = graph::kCsrFilePageBytes;
  header.offsets_bytes = 0;
  header.neighbors_pos = graph::kCsrFilePageBytes;
  expect_malformed_header(header, "ooc_wrapped_offsets_size.oocsr");
}

TEST(OocCsrFile, RejectsSectionEndPast2To64) {
  // The offsets section [2^64 - 4096, 2^64) ends at 0 once wrapped, so
  // the neighbors section seems to follow it; mapping it would read a
  // page below the mapping.
  graph::CsrFileHeader header;
  header.num_vertices = 511;
  header.offsets_pos = std::uint64_t{0} - graph::kCsrFilePageBytes;
  header.offsets_bytes = 512 * sizeof(std::uint64_t);
  header.neighbors_pos = graph::kCsrFilePageBytes;
  expect_malformed_header(header, "ooc_wrapped_section_end.oocsr");
}

TEST(OocCsrFile, RejectsOffsetsInsideTheHeaderPage) {
  graph::CsrFileHeader header;
  header.num_vertices = 3;
  header.offsets_pos = 0;
  header.offsets_bytes = 4 * sizeof(std::uint64_t);
  header.neighbors_pos = graph::kCsrFilePageBytes;
  expect_malformed_header(header, "ooc_offsets_in_header.oocsr");
}

}  // namespace
