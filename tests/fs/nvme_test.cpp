#include "fs/nvme.hpp"

#include <gtest/gtest.h>

namespace dds::fs {
namespace {

NvmeParams small_params() {
  NvmeParams p;
  p.capacity_bytes = 10'000;
  p.read_latency_s = 100e-6;
  p.write_latency_s = 50e-6;
  p.read_bandwidth_Bps = 1e9;
  p.write_bandwidth_Bps = 0.5e9;
  return p;
}

TEST(NvmeTier, MissThenHit) {
  NvmeTier tier(small_params(), 2);
  model::VirtualClock clock;
  EXPECT_FALSE(tier.try_read(0, 7, 1000, clock));
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);  // miss costs nothing here
  tier.admit(0, 7, 1000, clock);
  EXPECT_GT(clock.now(), 0.0);  // write charged
  const double after_write = clock.now();
  EXPECT_TRUE(tier.try_read(0, 7, 1000, clock));
  EXPECT_GT(clock.now(), after_write);  // read charged
}

TEST(NvmeTier, NodesAreIndependent) {
  NvmeTier tier(small_params(), 2);
  model::VirtualClock clock;
  tier.try_read(0, 1, 100, clock);
  tier.admit(0, 1, 100, clock);
  EXPECT_FALSE(tier.try_read(1, 1, 100, clock));  // other node cold
  EXPECT_TRUE(tier.try_read(0, 1, 100, clock));
}

TEST(NvmeTier, CapacityEvictsLru) {
  NvmeTier tier(small_params(), 1);  // 10 KB device
  model::VirtualClock clock;
  for (std::uint64_t id = 0; id < 20; ++id) {
    tier.try_read(0, id, 1000, clock);  // admit-on-miss bookkeeping
  }
  // Only the last ~10 samples fit; early ones were evicted.
  EXPECT_FALSE(tier.try_read(0, 0, 1000, clock));
  EXPECT_TRUE(tier.try_read(0, 19, 1000, clock));
  EXPECT_LE(tier.used_bytes(0), 10'000u);
}

TEST(NvmeTier, ReadCostScalesWithNominalBytes) {
  auto params = small_params();
  params.capacity_bytes = 10'000'000;  // both samples must fit
  NvmeTier tier(params, 1);
  model::VirtualClock c1, c2;
  tier.try_read(0, 1, 1000, c1);
  tier.try_read(0, 2, 1'000'000, c2);
  tier.admit(0, 1, 1000, c1);
  tier.admit(0, 2, 1'000'000, c2);
  const double t1 = c1.now();
  const double t2 = c2.now();
  EXPECT_GT(t2, t1);  // bigger write
  const double r1_start = c1.now(), r2_start = c2.now();
  tier.try_read(0, 1, 1000, c1);
  tier.try_read(0, 2, 1'000'000, c2);
  EXPECT_GT(c2.now() - r2_start, c1.now() - r1_start);
}

TEST(NvmeTier, ResetClearsResidency) {
  NvmeTier tier(small_params(), 1);
  model::VirtualClock clock;
  tier.try_read(0, 5, 100, clock);
  tier.reset();
  EXPECT_FALSE(tier.try_read(0, 5, 100, clock));
  EXPECT_EQ(tier.used_bytes(0), 100u);  // re-admitted by the probe
}

TEST(NvmeTier, SharedLaneQueuesConcurrentReads) {
  // Two ranks of one node reading at the same virtual time serialize on
  // the device's read lane.
  auto params = small_params();
  params.capacity_bytes = 10'000'000;
  NvmeTier tier(params, 1);
  model::VirtualClock warm;
  tier.try_read(0, 1, 500'000, warm);
  tier.admit(0, 1, 500'000, warm);

  model::VirtualClock a, b;
  EXPECT_TRUE(tier.try_read(0, 1, 500'000, a));
  EXPECT_TRUE(tier.try_read(0, 1, 500'000, b));
  // 500 KB over 1 GB/s = 500 us service each; the second queues.
  EXPECT_NEAR(b.now() - a.now(), 500e-6, 50e-6);
}

TEST(NvmeParams, ConstructionRejectsNonPositiveRates) {
  // A zero bandwidth or latency silently produces infinite/NaN modeled
  // times; the tier must refuse loudly at construction instead.
  const auto expect_rejected = [](void (*break_one)(NvmeParams&)) {
    NvmeParams p = small_params();
    break_one(p);
    EXPECT_THROW(p.validate(), ConfigError);
    EXPECT_THROW(NvmeTier(p, 1), ConfigError);
  };
  expect_rejected([](NvmeParams& p) { p.capacity_bytes = 0; });
  expect_rejected([](NvmeParams& p) { p.read_latency_s = 0.0; });
  expect_rejected([](NvmeParams& p) { p.read_latency_s = -1e-6; });
  expect_rejected([](NvmeParams& p) { p.write_latency_s = 0.0; });
  expect_rejected([](NvmeParams& p) { p.read_bandwidth_Bps = 0.0; });
  expect_rejected([](NvmeParams& p) { p.read_bandwidth_Bps = -1e9; });
  expect_rejected([](NvmeParams& p) { p.write_bandwidth_Bps = 0.0; });
  EXPECT_NO_THROW(small_params().validate());
}

}  // namespace
}  // namespace dds::fs
