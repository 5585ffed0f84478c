// Streaming and batch statistics used by the benchmark harnesses.
//
// RunningStats accumulates mean/variance/min/max in one pass (Welford).
// LatencyRecorder collects raw samples for percentile and CDF queries —
// the paper reports 50th/95th/99th percentile graph-loading latencies
// (Table 2/3) and latency CDFs (Fig. 6/12), which map onto these helpers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace dds {

/// One-pass mean / variance / min / max accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  void merge(const RunningStats& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    const double delta = other.mean_ - mean_;
    const auto n = static_cast<double>(n_ + other.n_);
    m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                           static_cast<double>(other.n_) / n;
    mean_ = (mean_ * static_cast<double>(n_) +
             other.mean_ * static_cast<double>(other.n_)) /
            n;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
  }

  std::uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  double sum() const { return sum_; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Collects raw samples; answers percentile and CDF queries after sorting.
class LatencyRecorder {
 public:
  void add(double seconds) {
    samples_.push_back(seconds);
    sorted_ = false;
  }

  void merge(const LatencyRecorder& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
  }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Percentile in [0, 100] by linear interpolation between ranks.
  double percentile(double p) const {
    DDS_CHECK_MSG(!samples_.empty(), "percentile of empty recorder");
    DDS_CHECK(p >= 0.0 && p <= 100.0);
    sort_if_needed();
    if (samples_.size() == 1) return samples_[0];
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  }

  double median() const { return percentile(50.0); }

  double mean() const {
    DDS_CHECK(!samples_.empty());
    double s = 0;
    for (double x : samples_) s += x;
    return s / static_cast<double>(samples_.size());
  }

  double min() const {
    sort_if_needed();
    DDS_CHECK(!samples_.empty());
    return samples_.front();
  }

  double max() const {
    sort_if_needed();
    DDS_CHECK(!samples_.empty());
    return samples_.back();
  }

  /// Fraction of samples <= x (empirical CDF evaluated at x).
  double cdf_at(double x) const {
    sort_if_needed();
    const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
    return static_cast<double>(it - samples_.begin()) /
           static_cast<double>(std::max<std::size_t>(samples_.size(), 1));
  }

  /// Evenly spaced CDF curve: `points` (value, cumulative fraction) pairs.
  std::vector<std::pair<double, double>> cdf_curve(std::size_t points) const {
    DDS_CHECK(points >= 2);
    sort_if_needed();
    std::vector<std::pair<double, double>> curve;
    if (samples_.empty()) return curve;
    curve.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
      const double frac =
          static_cast<double>(i) / static_cast<double>(points - 1);
      const auto idx = static_cast<std::size_t>(
          frac * static_cast<double>(samples_.size() - 1));
      curve.emplace_back(samples_[idx], frac);
    }
    return curve;
  }

  const std::vector<double>& raw() const { return samples_; }

 private:
  void sort_if_needed() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Geometric mean of a set of positive values (used for Fig. 4's geomean bar).
inline double geomean(const std::vector<double>& values) {
  DDS_CHECK(!values.empty());
  double log_sum = 0.0;
  for (double v : values) {
    DDS_CHECK_MSG(v > 0.0, "geomean requires positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace dds
