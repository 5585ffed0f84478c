// Score-P-style phase profiler (used to regenerate the paper's Fig. 7).
//
// Accumulates virtual seconds per named training phase on each rank; an
// epoch report merges the ranks' profiles into their mean
// (EpochReport::merge) without any exchange.  The phases mirror the
// paper's breakdowns: Fig. 5 stacks CPU-Loading / CPU-Batching /
// GPU-Compute / GPU-Comm; Fig. 9 plots per-function durations.
#pragma once

#include <array>

#include "common/error.hpp"

namespace dds::train {

enum class Phase : int {
  Load = 0,      ///< CPU: fetching samples (FS or DDStore)
  Batch,         ///< CPU: collating samples into a batch
  Forward,       ///< GPU: forward pass
  Backward,      ///< GPU: backward pass
  GradComm,      ///< GPU: gradient all-reduce incl. straggler stall
  Optimizer,     ///< GPU: AdamW update
  kCount
};

inline const char* phase_name(Phase p) {
  static const char* names[] = {"CPU-Loading", "CPU-Batching", "GPU-Forward",
                                "GPU-Backward", "GPU-Comm", "GPU-Optimizer"};
  return names[static_cast<int>(p)];
}

class PhaseProfile {
 public:
  static constexpr int kPhases = static_cast<int>(Phase::kCount);

  void add(Phase p, double seconds) {
    DDS_CHECK(seconds >= -1e-12);
    t_[static_cast<std::size_t>(p)] += seconds;
  }

  double get(Phase p) const { return t_[static_cast<std::size_t>(p)]; }

  double total() const {
    double s = 0;
    for (const double v : t_) s += v;
    return s;
  }

  void merge(const PhaseProfile& other) {
    for (int p = 0; p < kPhases; ++p) {
      t_[static_cast<std::size_t>(p)] += other.t_[static_cast<std::size_t>(p)];
    }
  }

  void reset() { t_.fill(0.0); }

  /// Element-wise difference (this - earlier): a per-interval profile.
  PhaseProfile diff(const PhaseProfile& earlier) const {
    PhaseProfile out;
    for (int p = 0; p < kPhases; ++p) {
      out.t_[static_cast<std::size_t>(p)] =
          t_[static_cast<std::size_t>(p)] -
          earlier.t_[static_cast<std::size_t>(p)];
    }
    return out;
  }

  /// Divides every phase by `n`: the mean of `n` merged profiles.
  void divide(int n) {
    for (auto& v : t_) v /= n;
  }

 private:
  std::array<double, kPhases> t_{};
};

}  // namespace dds::train
