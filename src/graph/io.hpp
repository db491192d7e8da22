#pragma once
// Text edge-list IO, compatible with the paper's artifact convention:
// CSV rows `src,dst,weight` sorted ascending by source vertex (the format
// produced by the artifact's rmat_preprocess.py from PaRMAT output).
// Unweighted two-column files are accepted; missing weights default to 1.

#include <string>

#include "src/graph/edge_list.hpp"

namespace acic::graph {

/// Writes `src,dst,weight` CSV.  Returns false on I/O failure.
bool write_edge_list_csv(const EdgeList& list, const std::string& path);

/// Reads a CSV edge list.  `num_vertices` of 0 means "infer as
/// max(endpoint)+1".  Throws std::runtime_error, naming the line, on
/// malformed input: a row that does not parse, a negative vertex id or
/// one VertexId cannot hold, or a weight that is negative or not finite.
EdgeList read_edge_list_csv(const std::string& path,
                            VertexId num_vertices = 0);

}  // namespace acic::graph
