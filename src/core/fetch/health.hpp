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
//   Closed --(kBreakerThreshold consecutive failures)--> Open
//   Open   --(kBreakerCooldownFetches fetches skipped)--> HalfOpen
//   HalfOpen --probe success--> Closed  /  --probe failure--> Open
//
// The half-open probe failing re-opens the breaker *immediately* (one
// strike), so a still-broken target costs one probe per cooldown instead
// of re-accumulating kBreakerThreshold failures every window.
//
// TargetHealth turns per-fetch observations into a score in [0, 1]:
// an EWMA of observed service times (compared against the target's best
// EWMA) discounted by a decaying failure penalty.  Scores feed three
// consumers: candidate steering (quarantined targets are tried last),
// the adaptive hedging deadline (EWMA + sigma * EW-deviation, a p99-ish
// bound per target), and the elastic driver's dead-rank suspicion signal
// (replacing the binary breaker-OR-reduce) — see DESIGN.md "Gray
// failures".
#pragma once

#include <cstdint>
#include <limits>

namespace dds::core::fetch {

/// Consecutive failures on one target that trip its circuit breaker, and
/// the fetches an open breaker then skips the target for.
inline constexpr int kBreakerThreshold = 3;
inline constexpr int kBreakerCooldownFetches = 64;

/// TargetHealth constants.
inline constexpr double kHealthAlpha = 0.2;  ///< EWMA smoothing, err > 0
/// EWMA smoothing for improvements (err < 0): slow to condemn, quick to
/// forgive — a recovered rank un-quarantines within a few probation
/// probes instead of paying the full upward time constant down again.
inline constexpr double kHealthAlphaDown = 0.5;
inline constexpr std::uint64_t kMinObservations = 8;  ///< calibration gate
inline constexpr double kQuarantineBelow = 0.3;       ///< steer below this
inline constexpr double kDeadlineSigma = 4.0;         ///< ewma + sigma * dev
inline constexpr double kDeadlineFloorS = 50e-6;      ///< never hedge faster
/// Deadline never exceeds this multiple of the target's best EWMA, so a
/// degraded target's inflated EWMA cannot push its own hedging deadline
/// out of reach — probation probes stay bounded at roughly
/// cap * healthy-service + one backup fetch.
inline constexpr double kDeadlineCapRatio = 6.0;
inline constexpr double kPenaltyStep = 1.0;   ///< score penalty per failure
inline constexpr double kPenaltyDecay = 0.9;  ///< its decay per success

/// Three-state circuit breaker, counted in fetches (not time) so its
/// behaviour is independent of the queueing model's scheduling-sensitive
/// completion times.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { Closed, Open, HalfOpen };

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
    if (++consecutive_failures_ >= kBreakerThreshold) {
      trip();
      return true;
    }
    return false;
  }

  State state() const { return state_; }
  bool open() const { return state_ == State::Open; }

 private:
  void trip() {
    state_ = State::Open;
    consecutive_failures_ = 0;
    skip_remaining_ = kBreakerCooldownFetches;
  }

  State state_ = State::Closed;
  int consecutive_failures_ = 0;
  int skip_remaining_ = 0;
};

/// One target's service-time health.  A default-constructed value is an
/// uncalibrated, healthy target.
class TargetHealth {
 public:
  /// Records one successful fetch that took `service_s` modeled seconds;
  /// successes also decay the failure penalty.
  void observe(double service_s);

  /// Records one failed fetch (transport error or checksum mismatch).
  void penalize() { penalty_ += kPenaltyStep; }

  /// Health in [0, 1]: the target's own best-ever calibrated EWMA service
  /// time over its current EWMA, discounted by the failure penalty.  A
  /// self-relative degradation detector: near/far targets with different
  /// baseline service times all score ~1 while steady, and a target that
  /// slows k-fold against *its own* history scores ~1/k.  Uncalibrated
  /// targets with no failures score 1 (unknown = healthy, so cold starts
  /// are never quarantined); a target degraded since birth also scores 1
  /// — sustained-from-the-start slowness is a baseline, not a failure.
  double score() const;

  bool quarantined() const { return score() < kQuarantineBelow; }

  /// Adaptive hedging deadline: EWMA + sigma * EW-deviation (a p99-ish
  /// bound when service times are light-tailed), capped at
  /// kDeadlineCapRatio * best so a degraded EWMA can't disable its own
  /// hedging, clamped to the floor.  +infinity until the target is
  /// calibrated, so hedging never fires on cold-start noise.
  double deadline() const;

 private:
  bool calibrated() const { return count_ >= kMinObservations; }

  double ewma_ = 0.0;   ///< smoothed service time
  double ewdev_ = 0.0;  ///< smoothed absolute deviation
  /// Best (smallest) calibrated EWMA this target ever reached — its own
  /// healthy baseline for the score ratio.
  double best_ = std::numeric_limits<double>::infinity();
  double penalty_ = 0.0;  ///< decaying failure weight
  std::uint64_t count_ = 0;
};

}  // namespace dds::core::fetch
