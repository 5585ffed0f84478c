// Mini-batch collation (the CPU-Batching phase of the paper's Fig. 5).
//
// Collation concatenates many small graphs into one disconnected graph,
// PyTorch-Geometric style: node features stack, edge indices shift by each
// graph's node offset, and a node->graph assignment vector supports
// graph-level pooling in the GNN.
#pragma once

#include <span>
#include <vector>

#include "graph/sample.hpp"

namespace dds::graph {

/// A batch's size without its bytes: what the simulated step's cost model
/// reads of a batch.
struct BatchShape {
  std::uint32_t num_graphs = 0;
  std::uint32_t num_nodes = 0;
  std::size_t num_edges = 0;
};

/// The shape collate() would produce for `samples`, with collate's checks:
/// a non-empty batch whose samples agree on feature and target dims.
BatchShape shape_of(std::span<const GraphSample> samples);

struct GraphBatch {
  std::uint32_t num_graphs = 0;
  std::uint32_t num_nodes = 0;
  std::uint32_t node_feature_dim = 0;
  std::uint32_t target_dim = 0;

  std::vector<float> node_features;        ///< [num_nodes x feature_dim]
  std::vector<std::uint32_t> edge_src;     ///< shifted into batch node ids
  std::vector<std::uint32_t> edge_dst;
  std::vector<std::uint32_t> node_graph;   ///< node -> graph index
  std::vector<std::uint32_t> graph_offset; ///< graph -> first node id (+end)
  std::vector<float> y;                    ///< [num_graphs x target_dim]

  std::size_t num_edges() const { return edge_src.size(); }

  /// Collates samples (which must agree on feature and target dims).
  static GraphBatch collate(std::span<const GraphSample> samples);

  /// Total payload bytes gathered into this batch (for the cost model).
  std::size_t payload_bytes() const;
};

}  // namespace dds::graph
