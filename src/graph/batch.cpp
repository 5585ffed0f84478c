#include "graph/batch.hpp"

#include <string>

namespace dds::graph {

BatchShape shape_of(std::span<const GraphSample> samples) {
  if (samples.empty()) {
    throw DataError("GraphBatch::collate: empty batch");
  }
  const std::uint32_t feature_dim = samples.front().node_feature_dim;
  const std::uint32_t target_dim = samples.front().target_dim();
  std::size_t total_nodes = 0;
  std::size_t total_edges = 0;
  for (const auto& s : samples) {
    if (s.node_feature_dim != feature_dim) {
      throw DataError("collate: node feature dim mismatch in sample " +
                      std::to_string(s.id));
    }
    if (s.target_dim() != target_dim) {
      throw DataError("collate: target dim mismatch in sample " +
                      std::to_string(s.id));
    }
    total_nodes += s.num_nodes;
    total_edges += s.num_edges();
  }
  return BatchShape{static_cast<std::uint32_t>(samples.size()),
                    static_cast<std::uint32_t>(total_nodes), total_edges};
}

GraphBatch GraphBatch::collate(std::span<const GraphSample> samples) {
  const BatchShape shape = shape_of(samples);
  GraphBatch b;
  b.num_graphs = shape.num_graphs;
  b.num_nodes = shape.num_nodes;
  b.node_feature_dim = samples.front().node_feature_dim;
  b.target_dim = samples.front().target_dim();

  b.node_features.reserve(std::size_t{b.num_nodes} * b.node_feature_dim);
  b.edge_src.reserve(shape.num_edges);
  b.edge_dst.reserve(shape.num_edges);
  b.node_graph.reserve(b.num_nodes);
  b.graph_offset.reserve(samples.size() + 1);
  b.y.reserve(samples.size() * b.target_dim);

  std::uint32_t node_base = 0;
  std::uint32_t graph_index = 0;
  for (const auto& s : samples) {
    b.graph_offset.push_back(node_base);
    b.node_features.insert(b.node_features.end(), s.node_features.begin(),
                           s.node_features.end());
    for (std::size_t e = 0; e < s.num_edges(); ++e) {
      b.edge_src.push_back(s.edge_src[e] + node_base);
      b.edge_dst.push_back(s.edge_dst[e] + node_base);
    }
    for (std::uint32_t n = 0; n < s.num_nodes; ++n) {
      b.node_graph.push_back(graph_index);
    }
    b.y.insert(b.y.end(), s.y.begin(), s.y.end());
    node_base += s.num_nodes;
    ++graph_index;
  }
  b.graph_offset.push_back(node_base);
  return b;
}

std::size_t GraphBatch::payload_bytes() const {
  return node_features.size() * sizeof(float) +
         (edge_src.size() + edge_dst.size() + node_graph.size() +
          graph_offset.size()) *
             sizeof(std::uint32_t) +
         y.size() * sizeof(float);
}

}  // namespace dds::graph
