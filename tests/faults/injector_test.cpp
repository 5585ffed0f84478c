#include "faults/injector.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace dds::faults {
namespace {

FaultConfig armed_config() {
  FaultConfig fc;
  fc.seed = 99;
  fc.rma_fail_prob = 0.2;
  fc.rma_corrupt_prob = 0.1;
  fc.fs_read_error_prob = 0.05;
  return fc;
}

TEST(FaultConfig, DefaultArmsNothing) {
  EXPECT_FALSE(FaultConfig{}.any());

  FaultConfig fail;
  fail.rma_fail_prob = 0.01;
  EXPECT_TRUE(fail.any());

  FaultConfig corrupt;
  corrupt.rma_corrupt_prob = 0.01;
  EXPECT_TRUE(corrupt.any());

  FaultConfig fs;
  fs.fs_read_error_prob = 0.01;
  EXPECT_TRUE(fs.any());

  FaultConfig straggler;
  straggler.slowdowns.push_back(SlowdownPhase{2, 8.0});
  EXPECT_TRUE(straggler.any());

  FaultConfig dead;
  dead.deaths.push_back(DeathPhase{0, 0.0});
  EXPECT_TRUE(dead.any());
}

TEST(FaultInjector, RejectsInvalidConfig) {
  FaultConfig bad_prob;
  bad_prob.rma_fail_prob = 1.5;
  EXPECT_THROW(FaultInjector(bad_prob, 4), Error);

  FaultConfig bad_sum;
  bad_sum.rma_fail_prob = 0.7;
  bad_sum.rma_corrupt_prob = 0.7;
  EXPECT_THROW(FaultInjector(bad_sum, 4), Error);

  FaultConfig bad_rank;
  bad_rank.deaths.push_back(DeathPhase{4, 0.0});
  EXPECT_THROW(FaultInjector(bad_rank, 4), Error);

  FaultConfig bad_factor;
  bad_factor.slowdowns.push_back(SlowdownPhase{1, 0.5});
  EXPECT_THROW(FaultInjector(bad_factor, 4), Error);
}

TEST(FaultInjector, SameSeedGivesIdenticalDecisionSequences) {
  FaultInjector a(armed_config(), 4);
  FaultInjector b(armed_config(), 4);
  for (int rank = 0; rank < 4; ++rank) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(a.rma_outcome(rank), b.rma_outcome(rank));
      ASSERT_EQ(a.fs_read_fails(rank), b.fs_read_fails(rank));
    }
  }
}

TEST(FaultInjector, RankStreamsAreIndependent) {
  // Rank 0's decision sequence must not depend on how often other ranks
  // draw — that is what makes fault counts scheduling-independent.
  FaultInjector lone(armed_config(), 4);
  FaultInjector busy(armed_config(), 4);
  for (int i = 0; i < 500; ++i) {
    for (int other = 1; other < 4; ++other) {
      (void)busy.rma_outcome(other);
      (void)busy.fs_read_fails(other);
    }
    ASSERT_EQ(lone.rma_outcome(0), busy.rma_outcome(0));
  }
}

TEST(FaultInjector, ExtremeProbabilitiesAreDeterministic) {
  FaultConfig always_fail;
  always_fail.rma_fail_prob = 1.0;
  FaultInjector fail(always_fail, 2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fail.rma_outcome(0), GetOutcome::Fail);
  }

  FaultConfig always_corrupt;
  always_corrupt.rma_corrupt_prob = 1.0;
  FaultInjector corrupt(always_corrupt, 2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(corrupt.rma_outcome(0), GetOutcome::Corrupt);
  }

  FaultInjector clean(FaultConfig{}, 2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(clean.rma_outcome(0), GetOutcome::Ok);
    EXPECT_FALSE(clean.fs_read_fails(0));
  }
}

TEST(FaultInjector, CorruptByteStaysInRange) {
  FaultInjector inj(armed_config(), 2);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(inj.corrupt_byte(0, 17), 17u);
    EXPECT_EQ(inj.corrupt_byte(1, 1), 0u);
  }
}

TEST(FaultInjector, StragglerScaleAppliesOnlyToStraggler) {
  // A whole-run straggler is one SlowdownPhase with the default window:
  // exactly its factor on that rank, at every time, and 1.0 elsewhere.
  FaultConfig fc;
  fc.slowdowns.push_back(SlowdownPhase{2, 8.0});
  FaultInjector inj(fc, 4);
  EXPECT_TRUE(inj.has_dynamic_profiles());
  for (const double now : {0.0, 1.0, 1e9}) {
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(inj.slowdown_of(r, now), r == 2 ? 8.0 : 1.0);
    }
  }
}

TEST(FaultInjector, DeadRankRespectsDeathTime) {
  FaultConfig fc;
  fc.deaths.push_back(DeathPhase{1, 5.0});
  FaultInjector inj(fc, 4);
  EXPECT_FALSE(inj.target_dead(1, 4.9));
  EXPECT_TRUE(inj.target_dead(1, 5.0));
  EXPECT_TRUE(inj.target_dead(1, 100.0));
  EXPECT_FALSE(inj.target_dead(0, 100.0));
  EXPECT_FALSE(inj.target_dead(3, 100.0));
}

}  // namespace
}  // namespace dds::faults
