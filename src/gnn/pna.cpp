#include "gnn/pna.hpp"

#include <cmath>
#include <limits>

namespace dds::gnn {

namespace {
constexpr float kStdEps = 1e-5f;
constexpr std::uint32_t kNoSource = 0xffffffffu;
}  // namespace

PNAConv::PNAConv(std::size_t hidden, Rng& rng, std::string name, float delta)
    : hidden_(hidden),
      delta_(delta),
      msg_(hidden, hidden, rng, name + ".msg"),
      update_(hidden * (1 + kAggregators * kScalers), hidden, rng,
              name + ".update") {
  DDS_CHECK(delta > 0.0f);
}

float PNAConv::amp_scale(std::uint32_t degree) const {
  return degree == 0 ? 1.0f : std::log(static_cast<float>(degree) + 1.0f) /
                                  delta_;
}

float PNAConv::att_scale(std::uint32_t degree) const {
  return degree == 0 ? 1.0f : delta_ /
                                  std::log(static_cast<float>(degree) + 1.0f);
}

Tensor PNAConv::forward(const Tensor& h, const graph::GraphBatch& batch) {
  const std::size_t n = h.rows;
  const std::size_t H = hidden_;
  DDS_CHECK(h.cols == H);
  DDS_CHECK(n == batch.num_nodes);

  m_ = msg_.forward(h);

  // Build the in-edge CSR (dst <- src) for this batch.
  degree_.assign(n, 0);
  for (const auto dst : batch.edge_dst) ++degree_[dst];
  in_offsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    in_offsets_[i + 1] = in_offsets_[i] + degree_[i];
  }
  in_sources_.assign(batch.num_edges(), 0);
  std::vector<std::uint32_t> cursor(in_offsets_.begin(),
                                    in_offsets_.end() - 1);
  for (std::size_t e = 0; e < batch.num_edges(); ++e) {
    in_sources_[cursor[batch.edge_dst[e]]++] = batch.edge_src[e];
  }

  mean_ = Tensor(n, H);
  std_ = Tensor(n, H);
  Tensor maxv(n, H);
  Tensor minv(n, H);
  argmax_.assign(n * H, kNoSource);
  argmin_.assign(n * H, kNoSource);

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t d = degree_[i];
    if (d == 0) continue;
    auto mean_i = mean_.row(i);
    auto std_i = std_.row(i);
    auto max_i = maxv.row(i);
    auto min_i = minv.row(i);
    const std::span<std::uint32_t> argmax_i(argmax_.data() + i * H, H);
    const std::span<std::uint32_t> argmin_i(argmin_.data() + i * H, H);
    for (std::size_t k = 0; k < H; ++k) {
      max_i[k] = -std::numeric_limits<float>::infinity();
      min_i[k] = std::numeric_limits<float>::infinity();
    }
    for (std::uint32_t e = in_offsets_[i]; e < in_offsets_[i + 1]; ++e) {
      const std::uint32_t j = in_sources_[e];
      const auto mj = m_.row(j);
      // Selects, not branches, so the loop vectorizes.  The comparisons
      // are strict, so on a tie the first in-edge keeps the argmax/argmin.
      for (std::size_t k = 0; k < H; ++k) {
        const float v = mj[k];
        mean_i[k] += v;
        const bool above = v > max_i[k];
        max_i[k] = above ? v : max_i[k];
        argmax_i[k] = above ? j : argmax_i[k];
        const bool below = v < min_i[k];
        min_i[k] = below ? v : min_i[k];
        argmin_i[k] = below ? j : argmin_i[k];
      }
    }
    const float inv_d = 1.0f / static_cast<float>(d);
    for (std::size_t k = 0; k < H; ++k) mean_i[k] *= inv_d;
    for (std::uint32_t e = in_offsets_[i]; e < in_offsets_[i + 1]; ++e) {
      const auto mj = m_.row(in_sources_[e]);
      for (std::size_t k = 0; k < H; ++k) {
        const float c = mj[k] - mean_i[k];
        std_i[k] += c * c;
      }
    }
    for (std::size_t k = 0; k < H; ++k) {
      std_i[k] = std::sqrt(std_i[k] * inv_d + kStdEps);
    }
  }

  // Assemble z = [h | 4 aggregates x 3 scalers].
  const std::size_t Z = H * (1 + kAggregators * kScalers);
  Tensor z(n, Z);
  const Tensor* aggs[kAggregators] = {&mean_, &maxv, &minv, &std_};
  for (std::size_t i = 0; i < n; ++i) {
    auto zi = z.row(i);
    const auto hi = h.row(i);
    for (std::size_t k = 0; k < H; ++k) zi[k] = hi[k];
    const float scale[kScalers] = {1.0f, amp_scale(degree_[i]),
                                   att_scale(degree_[i])};
    std::size_t slot = H;
    for (std::size_t a = 0; a < kAggregators; ++a) {
      const auto agg_i = aggs[a]->row(i);
      for (std::size_t s = 0; s < kScalers; ++s) {
        for (std::size_t k = 0; k < H; ++k) {
          zi[slot + k] = agg_i[k] * scale[s];
        }
        slot += H;
      }
    }
  }

  return relu_.forward(update_.forward(std::move(z)));
}

Tensor PNAConv::backward(const Tensor& gout, const graph::GraphBatch& batch) {
  const std::size_t n = gout.rows;
  const std::size_t H = hidden_;
  DDS_CHECK(n == batch.num_nodes);

  const Tensor gz = update_.backward(relu_.backward(gout));

  // Per-aggregator gradient, scalers folded in:
  // G_a[i,k] = sum_s gz[i, slot(a,s)+k] * scale_s(d_i).
  Tensor g_mean(n, H), g_max(n, H), g_min(n, H), g_std(n, H);
  Tensor* gaggs[kAggregators] = {&g_mean, &g_max, &g_min, &g_std};
  for (std::size_t i = 0; i < n; ++i) {
    const auto gzi = gz.row(i);
    const float scale[kScalers] = {1.0f, amp_scale(degree_[i]),
                                   att_scale(degree_[i])};
    std::size_t slot = H;
    for (std::size_t a = 0; a < kAggregators; ++a) {
      auto ga = gaggs[a]->row(i);
      for (std::size_t s = 0; s < kScalers; ++s) {
        for (std::size_t k = 0; k < H; ++k) {
          ga[k] += gzi[slot + k] * scale[s];
        }
        slot += H;
      }
    }
  }

  // Route aggregator gradients back to the transformed messages m_j.
  Tensor dm(n, H);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t d = degree_[i];
    if (d == 0) continue;
    const float inv_d = 1.0f / static_cast<float>(d);
    const auto gmean_i = g_mean.row(i);
    const auto gstd_i = g_std.row(i);
    const auto mean_i = mean_.row(i);
    const auto std_i = std_.row(i);
    for (std::uint32_t e = in_offsets_[i]; e < in_offsets_[i + 1]; ++e) {
      const std::uint32_t j = in_sources_[e];
      auto dmj = dm.row(j);
      const auto mj = m_.row(j);
      for (std::size_t k = 0; k < H; ++k) {
        // mean: 1/d to every neighbour.
        dmj[k] += gmean_i[k] * inv_d;
        // std: (m_jk - mu_ik) / (d * sigma_ik).
        dmj[k] += gstd_i[k] * (mj[k] - mean_i[k]) * inv_d / std_i[k];
      }
    }
    const auto gmax_i = g_max.row(i);
    const auto gmin_i = g_min.row(i);
    for (std::size_t k = 0; k < H; ++k) {
      const std::uint32_t jmax = argmax_[i * H + k];
      if (jmax != kNoSource) dm.at(jmax, k) += gmax_i[k];
      const std::uint32_t jmin = argmin_[i * H + k];
      if (jmin != kNoSource) dm.at(jmin, k) += gmin_i[k];
    }
  }

  // dh = self-slot gradient + message-transform backward.
  Tensor dh = msg_.backward(dm);
  for (std::size_t i = 0; i < n; ++i) {
    const auto gzi = gz.row(i);
    auto dhi = dh.row(i);
    for (std::size_t k = 0; k < H; ++k) dhi[k] += gzi[k];
  }
  return dh;
}

void PNAConv::zero_grad() {
  msg_.zero_grad();
  update_.zero_grad();
}

void PNAConv::collect_params(std::vector<Param>& out) {
  msg_.collect_params(out);
  update_.collect_params(out);
}

}  // namespace dds::gnn
