#pragma once
// Binary CSR serialization: save a graph to disk and load it back
// bit-identically.  The format is a fixed little-endian header (magic,
// version, |V|, |E|) followed by the raw offset and neighbor arrays; it
// is a cache format, not an interchange format — consistency of the
// producing build is assumed and the magic/version guard the rest.
//
// Two versions share the magic:
//   v1 — a frozen CSR (header + offsets + neighbors), unchanged.
//   v2 — a dynamic graph: the v1 payload of the *base* (epoch 0) CSR,
//        followed by the epoch count and the applied-mutation log.
//        Loading replays the log through DynamicGraph::apply, so the
//        reconstructed graph has bit-identical snapshots, timestamps
//        and epochs (apply is deterministic in the logged stream; the
//        round-trip test pins this).  load_csr rejects v2 files with a
//        version error; load_dynamic_graph accepts v1 files as a
//        dynamic graph with an empty log (epoch 0) for compatibility.

#include <string>

#include "src/dynamic/dynamic_graph.hpp"
#include "src/graph/csr.hpp"

namespace acic::graph {

/// Writes `csr` to `path`; returns false on I/O failure.
bool save_csr(const Csr& csr, const std::string& path);

/// Loads a CSR written by save_csr.  Throws std::runtime_error on
/// missing file, bad magic/version, or truncation.
Csr load_csr(const std::string& path);

/// Writes `graph` (base CSR + applied-mutation log + epoch count) as a
/// v2 file; returns false on I/O failure.
bool save_dynamic_graph(const dynamic::DynamicGraph& graph,
                        const std::string& path);

/// Loads a dynamic graph: v2 files replay their log epoch by epoch
/// (empty epochs included — apply() == one epoch is preserved); v1
/// files load as an epoch-0 dynamic graph with no log.  The stored base
/// must satisfy the simple-graph contract.  Throws std::runtime_error
/// on missing file, bad magic, unknown version, or truncation.
dynamic::DynamicGraph load_dynamic_graph(const std::string& path);

}  // namespace acic::graph
