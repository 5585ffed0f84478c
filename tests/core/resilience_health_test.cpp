// Unit tests for the resilience stage's per-target health machinery
// (core/fetch/health.hpp): the three-state circuit breaker's half-open
// transition edges, and TargetHealth's score / quarantine / adaptive
// deadline behaviour.  Both classes are pure bookkeeping over the library
// constants, so no runtime or virtual clock is needed here.
#include "core/fetch/health.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace dds::core::fetch {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fails kBreakerThreshold - 1 times without tripping, then trips.
void trip(CircuitBreaker& b) {
  for (int i = 1; i < kBreakerThreshold; ++i) ASSERT_FALSE(b.on_failure());
  ASSERT_TRUE(b.on_failure());
}

// ---------------------------------------------------------------- breaker

TEST(CircuitBreaker, TripsAfterThresholdConsecutiveFailures) {
  static_assert(kBreakerThreshold == 3);
  CircuitBreaker b;
  EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
  EXPECT_FALSE(b.on_failure());
  EXPECT_FALSE(b.on_failure());
  EXPECT_FALSE(b.open());
  EXPECT_TRUE(b.on_failure());  // third strike reports the trip
  EXPECT_TRUE(b.open());
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveCount) {
  CircuitBreaker b;
  b.on_failure();
  b.on_failure();
  b.on_success();  // interleaved success forgives the streak
  EXPECT_FALSE(b.on_failure());
  EXPECT_FALSE(b.on_failure());
  EXPECT_FALSE(b.open());
  EXPECT_TRUE(b.on_failure());
}

TEST(CircuitBreaker, CooldownSkipsThenArmsTheHalfOpenProbe) {
  CircuitBreaker b;
  trip(b);
  // Every cooldown consultation skips; the one that exhausts it still
  // skips but arms the probe, so the *next* fetch goes through.
  for (int i = 1; i < kBreakerCooldownFetches; ++i) {
    EXPECT_TRUE(b.should_skip());
    EXPECT_TRUE(b.open());
  }
  EXPECT_TRUE(b.should_skip());
  EXPECT_EQ(b.state(), CircuitBreaker::State::HalfOpen);
  EXPECT_FALSE(b.should_skip());  // probe admitted
}

TEST(CircuitBreaker, HalfOpenProbeSuccessCloses) {
  CircuitBreaker b;
  trip(b);
  while (b.should_skip()) {
  }
  ASSERT_EQ(b.state(), CircuitBreaker::State::HalfOpen);
  b.on_success();
  EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
  // Fully recovered: a single new failure below threshold does not trip.
  EXPECT_FALSE(b.on_failure());
  EXPECT_FALSE(b.open());
}

TEST(CircuitBreaker, HalfOpenProbeFailureReopensImmediately) {
  CircuitBreaker b;
  trip(b);
  while (b.should_skip()) {
  }
  ASSERT_EQ(b.state(), CircuitBreaker::State::HalfOpen);
  // One failed probe re-opens — it does NOT get kBreakerThreshold fresh
  // strikes.
  EXPECT_TRUE(b.on_failure());
  EXPECT_TRUE(b.open());
  // A still-broken target therefore costs exactly one probe per window.
  constexpr int kWindows = 3;
  int probes = 0;
  for (int fetch = 0; fetch < kWindows * (kBreakerCooldownFetches + 1);
       ++fetch) {
    if (!b.should_skip()) {
      ++probes;
      b.on_failure();
    }
  }
  EXPECT_EQ(probes, kWindows);  // cooldown skips + 1 probe per window
}

TEST(CircuitBreaker, ResetClosesAndClearsHistory) {
  // The resilience stage resets a target by dropping its record, which
  // then reads as a default CircuitBreaker.
  CircuitBreaker b;
  trip(b);
  ASSERT_TRUE(b.open());
  b = CircuitBreaker{};
  EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
  EXPECT_FALSE(b.should_skip());
}

// ---------------------------------------------------------------- tracker
// The suite keeps its name; each case drives TargetHealth values.

void feed(TargetHealth& t, double service_s, int n) {
  for (int i = 0; i < n; ++i) t.observe(service_s);
}

TEST(HealthTracker, UncalibratedTargetsAreHealthyAndNeverHedged) {
  TargetHealth t;
  EXPECT_DOUBLE_EQ(t.score(), 1.0);
  EXPECT_FALSE(t.quarantined());
  EXPECT_EQ(t.deadline(), kInf);
  feed(t, 100e-6, 7);  // one short of kMinObservations
  EXPECT_DOUBLE_EQ(t.score(), 1.0);
  EXPECT_EQ(t.deadline(), kInf);
  t.observe(100e-6);  // eighth observation calibrates
  EXPECT_TRUE(std::isfinite(t.deadline()));
  EXPECT_DOUBLE_EQ(t.deadline(), 100e-6);  // calibrated on exactly eight
}

TEST(HealthTracker, SteadyServiceScoresOneWithTightDeadline) {
  TargetHealth t;
  feed(t, 100e-6, 20);
  // First observation seeds the EWMA, so a constant series holds exactly.
  EXPECT_DOUBLE_EQ(t.score(), 1.0);
  EXPECT_DOUBLE_EQ(t.deadline(), 100e-6);  // ewdev 0, above the floor
}

TEST(HealthTracker, DeadlineNeverDropsBelowTheFloor) {
  TargetHealth t;
  feed(t, 10e-6, 10);  // faster than the floor
  EXPECT_DOUBLE_EQ(t.deadline(), 50e-6);
}

TEST(HealthTracker, DegradationQuarantinesAndCapsItsOwnDeadline) {
  TargetHealth t;
  feed(t, 100e-6, 12);  // healthy baseline
  ASSERT_DOUBLE_EQ(t.score(), 1.0);
  feed(t, 1e-3, 8);  // 10x degradation
  EXPECT_LT(t.score(), 0.3);
  EXPECT_TRUE(t.quarantined());
  // The inflated EWMA must not push the hedging deadline out of reach:
  // it is capped at kDeadlineCapRatio * the target's best (healthy) EWMA,
  // so probation probes stay bounded.
  EXPECT_LE(t.deadline(), 6.0 * 100e-6 * (1.0 + 1e-12));
}

TEST(HealthTracker, RecoveryIsFasterThanDegradation) {
  TargetHealth t;
  feed(t, 100e-6, 12);
  feed(t, 1e-3, 8);
  ASSERT_TRUE(t.quarantined());
  // Asymmetric smoothing (kHealthAlphaDown > kHealthAlpha): a recovered
  // target un-quarantines within a few probation probes.
  int probes = 0;
  while (t.quarantined() && probes < 4) {
    t.observe(100e-6);
    ++probes;
  }
  EXPECT_FALSE(t.quarantined());
  EXPECT_LE(probes, 3);
}

TEST(HealthTracker, DegradedSinceBirthIsABaselineNotAFailure) {
  TargetHealth fast;
  TargetHealth slow;
  feed(fast, 100e-6, 20);  // a fast target
  feed(slow, 5e-3, 20);    // a slow-from-the-start target (e.g. remote)
  // Scores are self-relative: steady targets all score 1 regardless of
  // their absolute service time, so far targets are never mis-quarantined.
  EXPECT_DOUBLE_EQ(fast.score(), 1.0);
  EXPECT_DOUBLE_EQ(slow.score(), 1.0);
}

TEST(HealthTracker, BestBaselineRatchetsDownOnImprovement) {
  TargetHealth t;
  feed(t, 1e-3, 12);
  ASSERT_DOUBLE_EQ(t.score(), 1.0);
  feed(t, 100e-6, 30);  // the target gets faster for good
  // Improvement never reads as degradation; the baseline follows it down.
  EXPECT_DOUBLE_EQ(t.score(), 1.0);
  EXPECT_LE(t.deadline(), 6.0 * 1e-3);
}

TEST(HealthTracker, FailurePenaltyDiscountsThenDecays) {
  TargetHealth t;
  feed(t, 100e-6, 12);
  t.penalize();
  EXPECT_DOUBLE_EQ(t.score(), 0.5);  // 1 / (1 + kPenaltyStep)
  t.penalize();
  EXPECT_NEAR(t.score(), 1.0 / 3.0, 1e-12);
  // Penalties bite even before calibration (a failing cold target must not
  // hide behind "unknown = healthy").
  TargetHealth cold;
  cold.penalize();
  EXPECT_DOUBLE_EQ(cold.score(), 0.5);
  // Clean successes decay the penalty back out.
  feed(t, 100e-6, 60);
  EXPECT_GT(t.score(), 0.95);
}

TEST(HealthTracker, ResetForgetsOneTargetOnly) {
  // The resilience stage resets a target by dropping its record, which
  // then reads as a default TargetHealth.
  TargetHealth a;
  TargetHealth b;
  feed(a, 100e-6, 12);
  feed(a, 1e-3, 8);
  feed(b, 100e-6, 12);
  b.penalize();
  ASSERT_TRUE(a.quarantined());
  a = TargetHealth{};
  EXPECT_DOUBLE_EQ(a.score(), 1.0);
  EXPECT_EQ(a.deadline(), kInf);  // back to uncalibrated
  feed(a, 100e-6, 7);
  EXPECT_EQ(a.deadline(), kInf);  // no observation survived the reset
  EXPECT_DOUBLE_EQ(b.score(), 0.5);  // untouched
}

}  // namespace
}  // namespace dds::core::fetch
