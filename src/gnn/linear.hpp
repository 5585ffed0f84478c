// Fully connected layer with manual backward and optional ReLU.
#pragma once

#include "common/rng.hpp"
#include "gnn/tensor.hpp"

namespace dds::gnn {

/// y = x * W^T + b  (x: [n x in], W: [out x in], b: [out]) -> [n x out].
Tensor linear_forward(const Tensor& x, const Tensor& w,
                      const std::vector<float>& b);

/// A named parameter (weights + gradient) exposed to optimizers and DDP.
struct Param {
  std::string name;
  std::vector<float>* value;
  std::vector<float>* grad;
};

class Linear {
 public:
  Linear(std::size_t in, std::size_t out, Rng& rng, std::string name);

  /// y = x W^T + b; caches x for backward.  Takes x by value so that a
  /// caller done with its input moves it into the cache instead of copying.
  Tensor forward(Tensor x);

  /// Accumulates dW/db from `gout` ([n x out]) and returns dx ([n x in]).
  Tensor backward(const Tensor& gout);

  void zero_grad();
  void collect_params(std::vector<Param>& out);

  std::size_t in_features() const { return w_.cols; }
  std::size_t out_features() const { return w_.rows; }
  std::size_t param_count() const { return w_.size() + b_.size(); }

  Tensor& weight() { return w_; }
  std::vector<float>& bias() { return b_; }

 private:
  std::string name_;
  Tensor w_;   ///< [out x in]
  Tensor dw_;
  std::vector<float> b_;
  std::vector<float> db_;
  Tensor cached_x_;
};

/// In-place ReLU forward; returns the pre-activation mask via `backward`.
class ReLU {
 public:
  Tensor forward(const Tensor& x) {
    mask_.assign(x.size(), 0);
    Tensor y = x;
    for (std::size_t i = 0; i < y.size(); ++i) {
      if (y.v[i] > 0.0f) {
        mask_[i] = 1;
      } else {
        y.v[i] = 0.0f;
      }
    }
    return y;
  }

  Tensor backward(const Tensor& gout) const {
    DDS_CHECK(gout.size() == mask_.size());
    Tensor gin = gout;
    for (std::size_t i = 0; i < gin.size(); ++i) {
      if (mask_[i] == 0) gin.v[i] = 0.0f;
    }
    return gin;
  }

 private:
  std::vector<std::uint8_t> mask_;
};

}  // namespace dds::gnn
