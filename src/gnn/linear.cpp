#include "gnn/linear.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

namespace dds::gnn {

namespace {

// The dense kernels below give every float the operations, in the order,
// of the textbook loops: y[i,o] starts at b[o] and adds x[i,k]·W[o,k] for
// k = 0, 1, …; dW[o,k] adds gout[i,o]·x[i,k] for i = 0, 1, …; dx[i,k]
// starts at 0 and adds gout[i,o]·W[o,k] for o = 0, 1, …; both gradients
// skip the terms whose gout[i,o] is zero, and db[o] adds the rest in row
// order.  Only the loop nests differ: the innermost loop runs across
// independent sums, which GCC vectorizes without reassociating any of
// them, and a block of up to kRowBlock batch rows shares each weight row
// a kernel loads (DESIGN.md, "Real GNN kernels").  The row loops are
// unrolled because at -O2 GCC leaves a 3- or 4-trip loop rolled, and the
// loop over j vectorizes only when it is the innermost.
constexpr std::size_t kRowBlock = 4;

template <std::size_t N>
using Rows = std::integral_constant<std::size_t, N>;

/// Calls `kernel(Rows<n>{})` for 0 < n ≤ kRowBlock, so each kernel's row
/// loop has a constant trip count; n == 0 does nothing.
template <typename Kernel>
void with_rows(std::size_t n, Kernel&& kernel) {
  switch (n) {
    case 1: kernel(Rows<1>{}); break;
    case 2: kernel(Rows<2>{}); break;
    case 3: kernel(Rows<3>{}); break;
    case 4: kernel(Rows<4>{}); break;
    default: DDS_CHECK(n == 0);
  }
}

/// dst[r][j] += a[r] · src[j] for r < N, j < len: one loaded source row
/// feeds N destination rows.
template <std::size_t N>
void axpy_rows(float* const (&dst)[kRowBlock], const float (&a)[kRowBlock],
               const float* src, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) {
    const float s = src[j];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < N; ++r) dst[r][j] += a[r] * s;
  }
}

/// dst[j] += a[r] · src[r][j] for r = 0, 1, …, N−1 in turn, j < len: N
/// source rows fold into one destination row, in row order.
template <std::size_t N>
void fold_rows(float* dst, const float (&a)[kRowBlock],
               const float* const (&src)[kRowBlock], std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) {
    float acc = dst[j];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < N; ++r) acc += a[r] * src[r][j];
    dst[j] = acc;
  }
}

}  // namespace

Tensor linear_forward(const Tensor& x, const Tensor& w,
                      const std::vector<float>& b) {
  DDS_CHECK(x.cols == w.cols);
  DDS_CHECK(b.size() == w.rows);
  const std::size_t in = w.cols;
  const std::size_t out = w.rows;
  Tensor y(x.rows, out);
  // W^T, k-major: row k holds W[0..out)[k], so the axpy over outputs reads
  // it contiguously.
  std::vector<float> wt(in * out);
  for (std::size_t o = 0; o < out; ++o) {
    for (std::size_t k = 0; k < in; ++k) wt[k * out + o] = w.v[o * in + k];
  }
  for (std::size_t i0 = 0; i0 < x.rows; i0 += kRowBlock) {
    with_rows(std::min(kRowBlock, x.rows - i0), [&](auto rows) {
      constexpr std::size_t n = decltype(rows)::value;
      float* yr[kRowBlock] = {};
      for (std::size_t r = 0; r < n; ++r) {
        yr[r] = y.v.data() + (i0 + r) * out;
        std::copy(b.begin(), b.end(), yr[r]);
      }
      for (std::size_t k = 0; k < in; ++k) {
        float xk[kRowBlock] = {};
        for (std::size_t r = 0; r < n; ++r) xk[r] = x.v[(i0 + r) * in + k];
        axpy_rows<n>(yr, xk, wt.data() + k * out, out);
      }
    });
  }
  return y;
}

Linear::Linear(std::size_t in, std::size_t out, Rng& rng, std::string name)
    : name_(std::move(name)),
      w_(out, in),
      dw_(out, in),
      b_(out, 0.0f),
      db_(out, 0.0f) {
  // Kaiming-uniform initialization for ReLU networks.
  const float bound = std::sqrt(6.0f / static_cast<float>(in));
  for (auto& x : w_.v) {
    x = static_cast<float>(rng.uniform(-bound, bound));
  }
}

Tensor Linear::forward(Tensor x) {
  cached_x_ = std::move(x);
  return linear_forward(cached_x_, w_, b_);
}

Tensor Linear::backward(const Tensor& gout) {
  DDS_CHECK(gout.rows == cached_x_.rows);
  DDS_CHECK(gout.cols == w_.rows);
  const std::size_t in = w_.cols;
  const std::size_t out = w_.rows;
  // dW[o,:] += gout[i,o] · x[i,:];  db[o] += gout[i,o];
  // dx[i,:] += gout[i,o] · W[o,:].
  Tensor dx(cached_x_.rows, in);
  for (std::size_t i0 = 0; i0 < gout.rows; i0 += kRowBlock) {
    const std::size_t block = std::min(kRowBlock, gout.rows - i0);
    for (std::size_t o = 0; o < out; ++o) {
      // The block's nonzero gradients for output o, in row order.
      float g[kRowBlock] = {};
      const float* xr[kRowBlock] = {};
      float* dxr[kRowBlock] = {};
      std::size_t n = 0;
      for (std::size_t r = 0; r < block; ++r) {
        const float gr = gout.v[(i0 + r) * out + o];
        g[n] = gr;
        xr[n] = cached_x_.v.data() + (i0 + r) * in;
        dxr[n] = dx.v.data() + (i0 + r) * in;
        n += gr != 0.0f;
      }
      for (std::size_t r = 0; r < n; ++r) db_[o] += g[r];
      with_rows(n, [&](auto rows) {
        constexpr std::size_t m = decltype(rows)::value;
        fold_rows<m>(dw_.v.data() + o * in, g, xr, in);
        axpy_rows<m>(dxr, g, w_.v.data() + o * in, in);
      });
    }
  }
  return dx;
}

void Linear::zero_grad() {
  dw_.fill(0.0f);
  std::fill(db_.begin(), db_.end(), 0.0f);
}

void Linear::collect_params(std::vector<Param>& out) {
  out.push_back(Param{name_ + ".weight", &w_.v, &dw_.v});
  out.push_back(Param{name_ + ".bias", &b_, &db_});
}

}  // namespace dds::gnn
