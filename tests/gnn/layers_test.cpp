#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "gnn/model.hpp"

namespace dds::gnn {
namespace {

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// The reference: the textbook loops, one dot product per output and one
// axpy per (row, output) pair.  `linear_forward` and `Linear::backward`
// must match them bit for bit.
Tensor reference_forward(const Tensor& x, const Tensor& w,
                         const std::vector<float>& b) {
  Tensor y(x.rows, w.rows);
  for (std::size_t i = 0; i < x.rows; ++i) {
    for (std::size_t o = 0; o < w.rows; ++o) {
      float acc = b[o];
      for (std::size_t k = 0; k < x.cols; ++k) {
        acc += x.v[i * x.cols + k] * w.v[o * w.cols + k];
      }
      y.v[i * w.rows + o] = acc;
    }
  }
  return y;
}

/// Accumulates dW and db into `dw` and `db`; returns dx.
Tensor reference_backward(const Tensor& x, const Tensor& w, const Tensor& gout,
                          std::vector<float>& dw, std::vector<float>& db) {
  for (std::size_t i = 0; i < gout.rows; ++i) {
    for (std::size_t o = 0; o < w.rows; ++o) {
      const float g = gout.v[i * w.rows + o];
      if (g == 0.0f) continue;
      for (std::size_t k = 0; k < w.cols; ++k) {
        dw[o * w.cols + k] += g * x.v[i * w.cols + k];
      }
      db[o] += g;
    }
  }
  Tensor dx(x.rows, x.cols);
  for (std::size_t i = 0; i < gout.rows; ++i) {
    for (std::size_t o = 0; o < w.rows; ++o) {
      const float g = gout.v[i * w.rows + o];
      if (g == 0.0f) continue;
      for (std::size_t k = 0; k < w.cols; ++k) {
        dx.v[i * w.cols + k] += g * w.v[o * w.cols + k];
      }
    }
  }
  return dx;
}

/// Normal values with planted +0, -0 and subnormals of both signs.
void fill_awkward(std::vector<float>& v, Rng& rng) {
  // Subnormals from denorm_min (2^-149) up to about 2^-127.
  const auto subnormal = [&rng] {
    return std::numeric_limits<float>::denorm_min() *
           static_cast<float>(1 + rng.uniform_u64(1 << 22));
  };
  for (float& f : v) {
    switch (rng.uniform_u64(8)) {
      case 0: f = 0.0f; break;
      case 1: f = -0.0f; break;
      case 2: f = subnormal(); break;
      case 3: f = -subnormal(); break;
      default: f = static_cast<float>(rng.normal());
    }
  }
}

TEST(LinearKernels, MatchTheScalarLoopsBitForBit) {
  Rng rng(29);
  for (const std::size_t in : {1, 6, 32, 416}) {
    for (const std::size_t out : {1, 3, 32, 128}) {
      // Rows 0..9 cover every remainder of the kernels' 4-row blocks.
      for (std::size_t rows = 0; rows < 10; ++rows) {
        SCOPED_TRACE(testing::Message() << rows << "x" << in << "->" << out);
        Linear layer(in, out, rng, "t");
        fill_awkward(layer.weight().v, rng);
        fill_awkward(layer.bias(), rng);
        Tensor x(rows, in);
        fill_awkward(x.v, rng);

        const Tensor y = layer.forward(x);
        const Tensor ref_y =
            reference_forward(x, layer.weight(), layer.bias());
        EXPECT_TRUE(same_bits(y.v, ref_y.v));

        std::vector<Param> params;
        layer.collect_params(params);
        std::vector<float>& dw = *params[0].grad;
        std::vector<float>& db = *params[1].grad;
        // Gradients that start at -0 show any zero term the kernels add:
        // -0 + +0 is +0.
        std::fill(dw.begin(), dw.end(), -0.0f);
        std::fill(db.begin(), db.end(), -0.0f);
        std::vector<float> ref_dw = dw;
        std::vector<float> ref_db = db;
        // Two passes, so the second accumulates onto the first.
        for (int pass = 0; pass < 2; ++pass) {
          Tensor gout(rows, out);
          fill_awkward(gout.v, rng);
          for (float& g : gout.v) {
            if (rng.bernoulli(0.3)) g = rng.bernoulli(0.5) ? 0.0f : -0.0f;
          }
          const Tensor dx = layer.backward(gout);
          const Tensor ref_dx =
              reference_backward(x, layer.weight(), gout, ref_dw, ref_db);
          EXPECT_TRUE(same_bits(dx.v, ref_dx.v)) << "pass " << pass;
          EXPECT_TRUE(same_bits(dw, ref_dw)) << "pass " << pass;
          EXPECT_TRUE(same_bits(db, ref_db)) << "pass " << pass;
        }
      }
    }
  }
}

TEST(TensorOps, LinearForwardKnownValues) {
  Tensor x(2, 3);
  x.v = {1, 2, 3, 4, 5, 6};
  Tensor w(2, 3);  // [out=2 x in=3]
  w.v = {1, 0, 0, 0, 1, 0};
  const std::vector<float> b = {10, 20};
  const Tensor y = linear_forward(x, w, b);
  ASSERT_EQ(y.rows, 2u);
  ASSERT_EQ(y.cols, 2u);
  EXPECT_FLOAT_EQ(y.at(0, 0), 11);  // x[0].w[0] + 10 = 1 + 10
  EXPECT_FLOAT_EQ(y.at(0, 1), 22);  // 2 + 20
  EXPECT_FLOAT_EQ(y.at(1, 0), 14);
  EXPECT_FLOAT_EQ(y.at(1, 1), 25);
}

TEST(TensorOps, ShapeMismatchThrows) {
  Tensor x(1, 3), w(2, 4);
  EXPECT_THROW(linear_forward(x, w, {0, 0}), InternalError);
}

TEST(LinearLayer, BackwardMatchesNumericalGradient) {
  Rng rng(1);
  Linear layer(3, 2, rng, "t");
  Tensor x(4, 3);
  for (auto& v : x.v) v = static_cast<float>(rng.normal());

  // Loss = sum(y^2)/2 so dL/dy = y.
  auto loss_fn = [&](Linear& l) {
    const Tensor y = l.forward(x);
    double s = 0;
    for (float v : y.v) s += 0.5 * v * v;
    return s;
  };

  layer.zero_grad();
  const Tensor y = layer.forward(x);
  layer.backward(y);

  std::vector<Param> params;
  layer.collect_params(params);
  const float eps = 1e-3f;
  for (const auto& p : params) {
    for (std::size_t i = 0; i < p.value->size(); i += 3) {
      const float orig = (*p.value)[i];
      (*p.value)[i] = orig + eps;
      const double lp = loss_fn(layer);
      (*p.value)[i] = orig - eps;
      const double lm = loss_fn(layer);
      (*p.value)[i] = orig;
      const double numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR((*p.grad)[i], numeric, 2e-2 * (1 + std::abs(numeric)))
          << p.name << "[" << i << "]";
    }
  }
}

TEST(LinearLayer, BackwardInputGradient) {
  Rng rng(2);
  Linear layer(2, 2, rng, "t");
  Tensor x(1, 2);
  x.v = {0.5f, -0.3f};
  const Tensor y = layer.forward(x);
  Tensor gout(1, 2);
  gout.v = {1.0f, 0.0f};
  const Tensor dx = layer.backward(gout);
  // dx = gout * W = first row of W.
  EXPECT_FLOAT_EQ(dx.at(0, 0), layer.weight().at(0, 0));
  EXPECT_FLOAT_EQ(dx.at(0, 1), layer.weight().at(0, 1));
}

TEST(ReLULayer, ForwardBackwardMask) {
  ReLU relu;
  Tensor x(1, 4);
  x.v = {-1.0f, 0.0f, 2.0f, -3.0f};
  const Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y.v[0], 0.0f);
  EXPECT_FLOAT_EQ(y.v[2], 2.0f);
  Tensor g(1, 4);
  g.v = {5, 5, 5, 5};
  const Tensor dx = relu.backward(g);
  EXPECT_FLOAT_EQ(dx.v[0], 0.0f);
  EXPECT_FLOAT_EQ(dx.v[1], 0.0f);  // not strictly positive
  EXPECT_FLOAT_EQ(dx.v[2], 5.0f);
  EXPECT_FLOAT_EQ(dx.v[3], 0.0f);
}

graph::GraphBatch tiny_batch() {
  // Two graphs: a 3-chain and a 2-chain (bidirectional edges).
  graph::GraphSample a;
  a.id = 0;
  a.num_nodes = 3;
  a.node_feature_dim = 2;
  a.node_features = {0.1f, 0.2f, -0.3f, 0.4f, 0.5f, -0.6f};
  a.edge_src = {0, 1, 1, 2};
  a.edge_dst = {1, 0, 2, 1};
  a.y = {1.0f};
  graph::GraphSample b;
  b.id = 1;
  b.num_nodes = 2;
  b.node_feature_dim = 2;
  b.node_features = {0.7f, -0.8f, 0.9f, 1.0f};
  b.edge_src = {0, 1};
  b.edge_dst = {1, 0};
  b.y = {-1.0f};
  const std::vector<graph::GraphSample> samples = {a, b};
  return graph::GraphBatch::collate(samples);
}

TEST(PNALayer, ForwardShapeAndDeterminism) {
  Rng rng(3);
  PNAConv conv(4, rng, "p");
  const auto batch = tiny_batch();
  Tensor h(batch.num_nodes, 4);
  Rng data_rng(5);
  for (auto& v : h.v) v = static_cast<float>(data_rng.normal());
  const Tensor y1 = conv.forward(h, batch);
  const Tensor y2 = conv.forward(h, batch);
  EXPECT_EQ(y1.rows, batch.num_nodes);
  EXPECT_EQ(y1.cols, 4u);
  EXPECT_EQ(y1.v, y2.v);
}

TEST(PNALayer, IsolatedNodeIsHandled) {
  // A single-node graph with no edges must not crash or produce NaN.
  graph::GraphSample s;
  s.id = 0;
  s.num_nodes = 1;
  s.node_feature_dim = 3;
  s.node_features = {1.0f, 2.0f, 3.0f};
  s.y = {0.0f};
  const std::vector<graph::GraphSample> samples = {s};
  const auto batch = graph::GraphBatch::collate(samples);

  Rng rng(4);
  PNAConv conv(3, rng, "p");
  Tensor h(1, 3);
  h.v = {1.0f, -1.0f, 0.5f};
  const Tensor y = conv.forward(h, batch);
  for (float v : y.v) EXPECT_TRUE(std::isfinite(v));
  Tensor g(1, 3);
  g.v = {1, 1, 1};
  const Tensor dh = conv.backward(g, batch);
  for (float v : dh.v) EXPECT_TRUE(std::isfinite(v));
}

TEST(PNALayer, BackwardMatchesNumericalGradient) {
  Rng rng(6);
  const std::size_t H = 3;
  PNAConv conv(H, rng, "p");
  const auto batch = tiny_batch();
  // Project 2-dim features to H first (fixed input h).
  Tensor h(batch.num_nodes, H);
  Rng data_rng(7);
  for (auto& v : h.v) v = static_cast<float>(data_rng.normal());

  auto loss_fn = [&]() {
    const Tensor y = conv.forward(h, batch);
    double s = 0;
    for (float v : y.v) s += 0.5 * v * v;
    return s;
  };

  conv.zero_grad();
  const Tensor y = conv.forward(h, batch);
  const Tensor dh = conv.backward(y, batch);

  // Parameter gradients.
  std::vector<Param> params;
  conv.collect_params(params);
  const float eps = 1e-3f;
  for (const auto& p : params) {
    for (std::size_t i = 0; i < p.value->size(); i += 7) {
      const float orig = (*p.value)[i];
      (*p.value)[i] = orig + eps;
      const double lp = loss_fn();
      (*p.value)[i] = orig - eps;
      const double lm = loss_fn();
      (*p.value)[i] = orig;
      const double numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR((*p.grad)[i], numeric, 3e-2 * (1 + std::abs(numeric)))
          << p.name << "[" << i << "]";
    }
  }

  // Input gradients.
  for (std::size_t i = 0; i < h.size(); ++i) {
    const float orig = h.v[i];
    h.v[i] = orig + eps;
    const double lp = loss_fn();
    h.v[i] = orig - eps;
    const double lm = loss_fn();
    h.v[i] = orig;
    const double numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(dh.v[i], numeric, 3e-2 * (1 + std::abs(numeric)))
        << "h[" << i << "]";
  }
}

/// Node 0 receives one message from each of `sources`, in that order.
graph::GraphBatch fan_in_batch(std::vector<std::uint32_t> sources) {
  graph::GraphSample s;
  s.id = 0;
  s.num_nodes = 3;
  s.node_feature_dim = 1;
  s.node_features = {0.0f, 0.0f, 0.0f};
  s.edge_src = std::move(sources);
  s.edge_dst.assign(s.edge_src.size(), 0);
  s.y = {0.0f};
  const std::vector<graph::GraphSample> samples = {s};
  return graph::GraphBatch::collate(samples);
}

TEST(PNALayer, TiedMessagesRouteMaxAndMinToTheFirstInEdge) {
  const std::size_t H = 4;
  // Nodes 1 and 2 send node 0 the same message.
  Tensor h(3, H);
  h.v = {-1.0f, -2.0f, -3.0f, -4.0f,  //
         0.5f,  1.5f,  2.5f,  3.5f,   //
         0.5f,  1.5f,  2.5f,  3.5f};
  for (const std::uint32_t first : {1u, 2u}) {
    const std::uint32_t second = 3 - first;
    SCOPED_TRACE(testing::Message() << "first in-edge from node " << first);
    Rng rng(8);
    PNAConv conv(H, rng, "p");
    // The message transform is the identity, and the update reads only the
    // unscaled max and min: y_0 = ReLU(max + min), so ∂y_0/∂max and
    // ∂y_0/∂min are both 1 and reach h only through the argmax and argmin.
    std::vector<Param> params;
    conv.collect_params(params);
    for (const Param& p : params) {
      std::fill(p.value->begin(), p.value->end(), 0.0f);
    }
    std::vector<float>& w_msg = *params[0].value;  // [H x H]
    std::vector<float>& w_up = *params[2].value;   // [H x 13H]
    const std::size_t Z = 13 * H;
    for (std::size_t k = 0; k < H; ++k) {
      w_msg[k * H + k] = 1.0f;
      w_up[k * Z + 4 * H + k] = 1.0f;  // max, identity scaler
      w_up[k * Z + 7 * H + k] = 1.0f;  // min, identity scaler
    }
    const auto batch = fan_in_batch({first, second});
    const Tensor y = conv.forward(h, batch);
    for (std::size_t k = 0; k < H; ++k) {
      EXPECT_EQ(y.at(0, k), 2.0f * h.at(1, k));
    }
    Tensor gout(3, H);
    for (std::size_t k = 0; k < H; ++k) gout.at(0, k) = 1.0f;
    const Tensor dh = conv.backward(gout, batch);
    for (std::size_t k = 0; k < H; ++k) {
      EXPECT_EQ(dh.at(first, k), 2.0f) << k;  // max's 1 plus min's 1
      EXPECT_EQ(dh.at(second, k), 0.0f) << k;
    }
  }
}

TEST(MseLoss, ValueAndGradient) {
  Tensor pred(2, 1), target(2, 1);
  pred.v = {1.0f, 3.0f};
  target.v = {0.0f, 1.0f};
  Tensor dpred;
  const double loss = mse_loss(pred, target, &dpred);
  EXPECT_NEAR(loss, (1.0 + 4.0) / 2.0, 1e-6);
  EXPECT_NEAR(dpred.v[0], 2.0 * 1.0 / 2.0, 1e-6);
  EXPECT_NEAR(dpred.v[1], 2.0 * 2.0 / 2.0, 1e-6);
}

TEST(MseLoss, ShapeMismatchThrows) {
  Tensor a(1, 2), b(2, 1);
  EXPECT_THROW(mse_loss(a, b, nullptr), InternalError);
}

}  // namespace
}  // namespace dds::gnn
