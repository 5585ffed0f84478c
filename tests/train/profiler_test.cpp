#include "train/profiler.hpp"

#include <gtest/gtest.h>

#include "train/sim_trainer.hpp"

namespace dds::train {
namespace {

TEST(PhaseProfile, AddAndGet) {
  PhaseProfile p;
  p.add(Phase::Load, 1.5);
  p.add(Phase::Load, 0.5);
  p.add(Phase::Forward, 2.0);
  EXPECT_DOUBLE_EQ(p.get(Phase::Load), 2.0);
  EXPECT_DOUBLE_EQ(p.get(Phase::Forward), 2.0);
  EXPECT_DOUBLE_EQ(p.get(Phase::Backward), 0.0);
}

TEST(PhaseProfile, TotalSumsEveryPhase) {
  PhaseProfile p;
  p.add(Phase::Load, 3.0);
  p.add(Phase::GradComm, 2.0);
  p.add(Phase::Optimizer, 1.0);
  EXPECT_DOUBLE_EQ(p.total(), 6.0);
}

TEST(PhaseProfile, MergeSums) {
  PhaseProfile a, b;
  a.add(Phase::Batch, 1.0);
  b.add(Phase::Batch, 2.0);
  b.add(Phase::GradComm, 0.5);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.get(Phase::Batch), 3.0);
  EXPECT_DOUBLE_EQ(a.get(Phase::GradComm), 0.5);
}

TEST(PhaseProfile, DiffGivesInterval) {
  PhaseProfile start;
  start.add(Phase::Load, 1.0);
  PhaseProfile now = start;
  now.add(Phase::Load, 2.0);
  now.add(Phase::Forward, 4.0);
  const PhaseProfile interval = now.diff(start);
  EXPECT_DOUBLE_EQ(interval.get(Phase::Load), 2.0);
  EXPECT_DOUBLE_EQ(interval.get(Phase::Forward), 4.0);
}

TEST(PhaseProfile, ResetZeroes) {
  PhaseProfile p;
  p.add(Phase::Load, 1.0);
  p.reset();
  EXPECT_DOUBLE_EQ(p.total(), 0.0);
}

TEST(PhaseProfile, NegativeTimeRejected) {
  PhaseProfile p;
  EXPECT_THROW(p.add(Phase::Load, -0.5), InternalError);
}

TEST(EpochReport, MergeFoldsRankReportsInRankOrder) {
  // Four ranks' own reports: durations 1..4 s, 10 samples each, Load 1..4
  // s, one counter and an overlap per rank.
  std::vector<EpochReport> own(4);
  std::vector<const EpochReport*> ranks;
  for (int r = 0; r < 4; ++r) {
    EpochReport& e = own[static_cast<std::size_t>(r)];
    e.epoch = 7;
    e.epoch_seconds = r + 1.0;
    e.global_samples = 10;
    e.mean_profile.add(Phase::Load, r + 1.0);
    e.metrics.push_back({"local_gets", static_cast<std::uint64_t>(r)});
    e.overlap_hidden_s = 0.5;
    ranks.push_back(&e);
  }
  const EpochReport job = EpochReport::merge(ranks);
  EXPECT_EQ(job.epoch, 7u);
  EXPECT_EQ(job.epoch_seconds, 4.0);
  EXPECT_EQ(job.global_samples, 40u);
  EXPECT_EQ(job.throughput, 10.0);
  EXPECT_EQ(job.mean_profile.get(Phase::Load), 2.5);
  EXPECT_EQ(job.mean_profile.get(Phase::Forward), 0.0);
  EXPECT_EQ(job.metric("local_gets"), 6u);
  EXPECT_EQ(job.overlap_hidden_s, 2.0);

  own[2].metrics.clear();  // a rank reporting other counters
  EXPECT_THROW((void)EpochReport::merge(ranks), InternalError);
}

TEST(PhaseProfile, PhaseNamesMatchPaperFigures) {
  EXPECT_STREQ(phase_name(Phase::Load), "CPU-Loading");
  EXPECT_STREQ(phase_name(Phase::Batch), "CPU-Batching");
  EXPECT_STREQ(phase_name(Phase::GradComm), "GPU-Comm");
}

}  // namespace
}  // namespace dds::train
