#include "core/fetch/health.hpp"

#include <algorithm>
#include <cmath>

namespace dds::core::fetch {

void TargetHealth::observe(double service_s) {
  if (count_ == 0) {
    ewma_ = service_s;
    ewdev_ = 0.0;
  } else {
    const double err = service_s - ewma_;
    // Asymmetric smoothing: degradations accumulate at kHealthAlpha,
    // recoveries at the faster kHealthAlphaDown.
    ewma_ += (err < 0.0 ? kHealthAlphaDown : kHealthAlpha) * err;
    ewdev_ += kHealthAlpha * (std::abs(err) - ewdev_);
  }
  ++count_;
  if (calibrated() && ewma_ > 0.0) best_ = std::min(best_, ewma_);
  penalty_ *= kPenaltyDecay;
}

double TargetHealth::score() const {
  double base = 1.0;
  if (calibrated() && ewma_ > 0.0 && std::isfinite(best_)) {
    base = std::clamp(best_ / ewma_, 0.0, 1.0);
  }
  return base / (1.0 + penalty_);
}

double TargetHealth::deadline() const {
  if (!calibrated()) return std::numeric_limits<double>::infinity();
  double d = ewma_ + kDeadlineSigma * ewdev_;
  if (std::isfinite(best_)) d = std::min(d, kDeadlineCapRatio * best_);
  return std::max(kDeadlineFloorS, d);
}

}  // namespace dds::core::fetch
