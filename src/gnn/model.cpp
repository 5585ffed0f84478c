#include "gnn/model.hpp"

namespace dds::gnn {

HydraGnnModel::HydraGnnModel(const GnnConfig& config, std::uint64_t seed)
    : config_(config),
      embed_([&] {
        Rng rng = Rng(seed).stream(0);
        return Linear(config.input_dim, config.hidden, rng, "embed");
      }()),
      head_([&] {
        Rng rng = Rng(seed).stream(3);
        return Linear(config.hidden, config.output_dim, rng, "head");
      }()) {
  DDS_CHECK(config.pna_layers >= 0 && config.fc_layers >= 0);
  Rng rng = Rng(seed).stream(1);
  pna_.reserve(static_cast<std::size_t>(config.pna_layers));
  for (int l = 0; l < config.pna_layers; ++l) {
    pna_.emplace_back(config.hidden, rng, "pna" + std::to_string(l));
  }
  fc_.reserve(static_cast<std::size_t>(config.fc_layers));
  fc_relu_.resize(static_cast<std::size_t>(config.fc_layers));
  for (int l = 0; l < config.fc_layers; ++l) {
    fc_.emplace_back(config.hidden, config.hidden, rng,
                     "fc" + std::to_string(l));
  }
}

Tensor HydraGnnModel::forward(const graph::GraphBatch& batch) {
  DDS_CHECK(batch.node_feature_dim == config_.input_dim);
  Tensor x(batch.num_nodes, config_.input_dim);
  x.v = batch.node_features;
  cached_nodes_ = batch.num_nodes;

  Tensor h = embed_relu_.forward(embed_.forward(std::move(x)));
  for (auto& layer : pna_) h = layer.forward(h, batch);

  // Mean pooling per graph.
  Tensor pooled(batch.num_graphs, config_.hidden);
  pool_counts_.assign(batch.num_graphs, 0);
  for (std::uint32_t node = 0; node < batch.num_nodes; ++node) {
    const std::uint32_t g = batch.node_graph[node];
    ++pool_counts_[g];
    const auto hn = h.row(node);
    auto pg = pooled.row(g);
    for (std::size_t k = 0; k < config_.hidden; ++k) pg[k] += hn[k];
  }
  for (std::uint32_t g = 0; g < batch.num_graphs; ++g) {
    const float inv =
        pool_counts_[g] == 0 ? 0.0f : 1.0f / static_cast<float>(pool_counts_[g]);
    auto pg = pooled.row(g);
    for (std::size_t k = 0; k < config_.hidden; ++k) pg[k] *= inv;
  }

  Tensor y = pooled;
  for (std::size_t l = 0; l < fc_.size(); ++l) {
    y = fc_relu_[l].forward(fc_[l].forward(std::move(y)));
  }
  return head_.forward(std::move(y));
}

void HydraGnnModel::backward(const Tensor& dpred,
                             const graph::GraphBatch& batch) {
  Tensor g = head_.backward(dpred);
  for (std::size_t l = fc_.size(); l-- > 0;) {
    g = fc_[l].backward(fc_relu_[l].backward(g));
  }

  // Un-pool: each node receives dpooled[g]/count[g].
  Tensor dh(cached_nodes_, config_.hidden);
  for (std::uint32_t node = 0; node < batch.num_nodes; ++node) {
    const std::uint32_t gi = batch.node_graph[node];
    const float inv = 1.0f / static_cast<float>(pool_counts_[gi]);
    const auto gg = g.row(gi);
    auto dhn = dh.row(node);
    for (std::size_t k = 0; k < config_.hidden; ++k) dhn[k] = gg[k] * inv;
  }

  for (std::size_t l = pna_.size(); l-- > 0;) {
    dh = pna_[l].backward(dh, batch);
  }
  embed_.backward(embed_relu_.backward(dh));
}

void HydraGnnModel::zero_grad() {
  embed_.zero_grad();
  for (auto& l : pna_) l.zero_grad();
  for (auto& l : fc_) l.zero_grad();
  head_.zero_grad();
}

std::vector<Param> HydraGnnModel::parameters() {
  std::vector<Param> out;
  embed_.collect_params(out);
  for (auto& l : pna_) l.collect_params(out);
  for (auto& l : fc_) l.collect_params(out);
  head_.collect_params(out);
  return out;
}

std::size_t HydraGnnModel::param_count() const {
  std::size_t n = embed_.param_count() + head_.param_count();
  for (const auto& l : pna_) n += l.param_count();
  for (const auto& l : fc_) n += l.param_count();
  return n;
}

std::vector<float> HydraGnnModel::flatten_grads() {
  std::vector<float> flat;
  flat.reserve(param_count());
  for (const auto& p : parameters()) {
    flat.insert(flat.end(), p.grad->begin(), p.grad->end());
  }
  return flat;
}

void HydraGnnModel::load_grads(std::span<const float> flat) {
  std::size_t cursor = 0;
  for (const auto& p : parameters()) {
    DDS_CHECK(cursor + p.grad->size() <= flat.size());
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(cursor),
              flat.begin() + static_cast<std::ptrdiff_t>(cursor +
                                                         p.grad->size()),
              p.grad->begin());
    cursor += p.grad->size();
  }
  DDS_CHECK(cursor == flat.size());
}

double mse_loss(const Tensor& pred, const Tensor& target, Tensor* dpred) {
  DDS_CHECK(pred.rows == target.rows && pred.cols == target.cols);
  DDS_CHECK(pred.size() > 0);
  double loss = 0.0;
  if (dpred != nullptr) *dpred = Tensor(pred.rows, pred.cols);
  const double inv_n = 1.0 / static_cast<double>(pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double diff = pred.v[i] - target.v[i];
    loss += diff * diff;
    if (dpred != nullptr) {
      dpred->v[i] = static_cast<float>(2.0 * diff * inv_n);
    }
  }
  return loss * inv_n;
}

}  // namespace dds::gnn
