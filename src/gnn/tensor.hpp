// Minimal dense 2-D float tensor for the CPU GNN.
//
// Row-major [rows x cols]; just enough linear algebra for HydraGNN-style
// message passing with manual backpropagation.  No expression templates,
// no views.  The timing figures use the compute *model*, not this code;
// it exists so convergence is real (Fig. 13), and its dense loops are the
// host time of every real-training run.  Those loops (`linear.cpp`,
// `pna.cpp`) are ordered so that GCC vectorizes them while every float
// gets the same operations in the same order as in the textbook loops
// (DESIGN.md, "Real GNN kernels").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace dds::gnn {

struct Tensor {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<float> v;

  Tensor() = default;
  Tensor(std::size_t r, std::size_t c) : rows(r), cols(c), v(r * c, 0.0f) {}

  float& at(std::size_t r, std::size_t c) {
    DDS_CHECK(r < rows && c < cols);
    return v[r * cols + c];
  }
  float at(std::size_t r, std::size_t c) const {
    DDS_CHECK(r < rows && c < cols);
    return v[r * cols + c];
  }

  std::span<float> row(std::size_t r) {
    DDS_CHECK(r < rows);
    return std::span<float>(v.data() + r * cols, cols);
  }
  std::span<const float> row(std::size_t r) const {
    DDS_CHECK(r < rows);
    return std::span<const float>(v.data() + r * cols, cols);
  }

  std::size_t size() const { return v.size(); }
  void fill(float x) { std::fill(v.begin(), v.end(), x); }

  static Tensor zeros_like(const Tensor& t) { return Tensor(t.rows, t.cols); }
};

}  // namespace dds::gnn
