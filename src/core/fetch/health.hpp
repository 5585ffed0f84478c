// Per-target health machinery for the resilience stage: a circuit breaker
// with half-open probing, and a continuous health score with an adaptive
// hedging deadline.
//
// Both classes are pure bookkeeping over values the caller feeds them —
// no clocks, no counters, no RNG — which makes them unit-testable in
// isolation and keeps them invisible to the virtual-time model (recording
// an observation costs zero simulated seconds).
//
// CircuitBreaker refines the PR-1 count-based breaker with the classic
// three-state machine:
//
//   Closed --(threshold consecutive failures)--> Open
//   Open   --(cooldown fetches skipped)-------> HalfOpen
//   HalfOpen --probe success--> Closed  /  --probe failure--> Open
//
// The half-open probe failing re-opens the breaker *immediately* (one
// strike), so a still-broken target costs one probe per cooldown instead
// of re-accumulating `threshold` failures every window.
//
// HealthTracker turns per-fetch observations into a score in [0, 1]:
// an EWMA of observed service times (compared against the best target's
// EWMA) discounted by a decaying failure penalty.  Scores feed three
// consumers: candidate steering (quarantined targets are tried last),
// the adaptive hedging deadline (EWMA + sigma * EW-deviation, a p99-ish
// bound per target), and the elastic driver's dead-rank suspicion signal
// (replacing the binary breaker-OR-reduce) — see DESIGN.md "Gray
// failures".
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace dds::core::fetch {

/// Three-state circuit breaker, counted in fetches (not time) so its
/// behaviour is independent of the queueing model's scheduling-sensitive
/// completion times.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { Closed, Open, HalfOpen };

  /// `threshold` consecutive failures trip the breaker; while open it
  /// skips the target for `cooldown` fetches, then admits one probe.
  CircuitBreaker(int threshold = 3, int cooldown = 64)
      : threshold_(threshold), cooldown_(cooldown) {}

  /// Consult before each fetch: true = skip this target this time.  The
  /// call that exhausts the cooldown still skips but arms the half-open
  /// probe, so the *next* fetch goes through.
  bool should_skip() {
    if (state_ != State::Open) return false;
    if (--skip_remaining_ <= 0) state_ = State::HalfOpen;
    return true;
  }

  void on_success() {
    state_ = State::Closed;
    consecutive_failures_ = 0;
    skip_remaining_ = 0;
  }

  /// Records one failed fetch; returns true when this failure (re)opened
  /// the breaker (the caller counts a breaker_trip and abandons the
  /// target).  In HalfOpen a single failed probe re-opens immediately.
  bool on_failure() {
    if (state_ == State::HalfOpen) {
      trip();
      return true;
    }
    if (++consecutive_failures_ >= threshold_) {
      trip();
      return true;
    }
    return false;
  }

  State state() const { return state_; }
  bool open() const { return state_ == State::Open; }

  void reset() {
    state_ = State::Closed;
    consecutive_failures_ = 0;
    skip_remaining_ = 0;
  }

 private:
  void trip() {
    state_ = State::Open;
    consecutive_failures_ = 0;
    skip_remaining_ = cooldown_;
  }

  int threshold_;
  int cooldown_;
  State state_ = State::Closed;
  int consecutive_failures_ = 0;
  int skip_remaining_ = 0;
};

/// HealthTracker constants.  The Resilience stage uses the defaults;
/// tests build their own to exercise the tracker in isolation.
struct HealthParams {
  double alpha = 0.2;             ///< EWMA smoothing, degradations (err > 0)
  /// EWMA smoothing for improvements (err < 0): slow to condemn, quick to
  /// forgive — a recovered rank un-quarantines within a few probation
  /// probes instead of paying the full upward time constant down again.
  double alpha_down = 0.5;
  int min_observations = 8;       ///< calibration gate for score/deadline
  double quarantine_below = 0.3;  ///< scores under this steer fetches away
  double deadline_sigma = 4.0;    ///< deadline = ewma + sigma * deviation
  double deadline_floor_s = 50e-6;  ///< never hedge faster than this
  /// Deadline never exceeds this multiple of the target's best EWMA, so a
  /// degraded target's inflated EWMA cannot push its own hedging deadline
  /// out of reach — probation probes stay bounded at roughly
  /// cap * healthy-service + one backup fetch.
  double deadline_cap_ratio = 6.0;
  double penalty_step = 1.0;      ///< score penalty added per failure
  double penalty_decay = 0.9;     ///< penalty multiplier per clean success
};

class HealthTracker {
 public:
  HealthTracker(std::size_t ntargets, const HealthParams& params)
      : params_(params), entries_(ntargets) {}

  /// Records one successful fetch from `target` that took `service_s`
  /// modeled seconds; successes also decay the failure penalty.
  void observe(std::size_t target, double service_s);

  /// Records one failed fetch (transport error or checksum mismatch).
  void penalize(std::size_t target);

  /// Health in [0, 1]: the target's own best-ever calibrated EWMA service
  /// time over its current EWMA, discounted by the failure penalty.  A
  /// self-relative degradation detector: near/far targets with different
  /// baseline service times all score ~1 while steady, and a target that
  /// slows k-fold against *its own* history scores ~1/k.  Uncalibrated
  /// targets with no failures score 1 (unknown = healthy, so cold starts
  /// are never quarantined); a target degraded since birth also scores 1
  /// — sustained-from-the-start slowness is a baseline, not a failure.
  double score(std::size_t target) const;

  bool quarantined(std::size_t target) const {
    return score(target) < params_.quarantine_below;
  }

  /// Adaptive hedging deadline for `target`: EWMA + sigma * EW-deviation
  /// (a p99-ish bound when service times are light-tailed), capped at
  /// deadline_cap_ratio * best so a degraded EWMA can't disable its own
  /// hedging, clamped to the floor.  +infinity until the target is
  /// calibrated, so hedging never fires on cold-start noise.
  double deadline(std::size_t target) const;

  std::uint64_t observations(std::size_t target) const {
    return entries_.at(target).count;
  }

  void reset(std::size_t target) { entries_.at(target) = Entry{}; }

 private:
  struct Entry {
    double ewma = 0.0;     ///< smoothed service time
    double ewdev = 0.0;    ///< smoothed absolute deviation
    /// Best (smallest) calibrated EWMA this target ever reached — its own
    /// healthy baseline for the score ratio.
    double best = std::numeric_limits<double>::infinity();
    double penalty = 0.0;  ///< decaying failure weight
    std::uint64_t count = 0;
  };

  bool calibrated(const Entry& e) const {
    return e.count >= static_cast<std::uint64_t>(params_.min_observations);
  }

  HealthParams params_;
  std::vector<Entry> entries_;
};

}  // namespace dds::core::fetch
