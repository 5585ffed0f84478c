// Property sweep: sampler coverage/disjointness invariants across rank
// counts, batch sizes, and epochs.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "train/sampler.hpp"

namespace dds::train {
namespace {

using model::test_machine;
using Config = std::tuple<int /*nranks*/, std::uint64_t /*batch*/,
                          std::uint64_t /*num_samples*/>;

class SamplerSweep : public ::testing::TestWithParam<Config> {};

TEST_P(SamplerSweep, GlobalShuffleExactlyOncePerEpoch) {
  const auto [nranks, batch, num_samples] = GetParam();
  simmpi::Runtime rt(nranks, test_machine());
  std::vector<std::vector<std::uint64_t>> seen(
      static_cast<std::size_t>(nranks));
  rt.run([&, batch = batch, num_samples = num_samples](simmpi::Comm& c) {
    GlobalShuffleSampler s(num_samples, batch, 3);
    for (std::uint64_t epoch = 0; epoch < 2; ++epoch) {
      s.begin_epoch(epoch, c);
      for (std::uint64_t step = 0; step < s.steps_per_epoch(); ++step) {
        const auto ids = s.batch_ids(step);
        EXPECT_EQ(ids.size(), batch);
        if (epoch == 0) {
          auto& mine = seen[static_cast<std::size_t>(c.rank())];
          mine.insert(mine.end(), ids.begin(), ids.end());
        }
      }
    }
  });
  // Across ranks: no duplicates; count = steps * batch * nranks; all in range.
  std::set<std::uint64_t> all;
  for (const auto& v : seen) {
    for (const auto id : v) {
      EXPECT_TRUE(all.insert(id).second) << "duplicate " << id;
      EXPECT_LT(id, num_samples);
    }
  }
  const std::uint64_t expect =
      num_samples / (batch * static_cast<std::uint64_t>(nranks)) * batch *
      static_cast<std::uint64_t>(nranks);
  EXPECT_EQ(all.size(), expect);
}

TEST_P(SamplerSweep, LocalShuffleShardsTileAndStayDisjoint) {
  const auto [nranks, batch, num_samples] = GetParam();
  simmpi::Runtime rt(nranks, test_machine());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> shards(
      static_cast<std::size_t>(nranks));
  rt.run([&, batch = batch, num_samples = num_samples](simmpi::Comm& c) {
    LocalShuffleSampler s(num_samples, batch, 9);
    s.begin_epoch(0, c);
    shards[static_cast<std::size_t>(c.rank())] = s.shard();
    for (std::uint64_t step = 0; step < s.steps_per_epoch(); ++step) {
      for (const auto id : s.batch_ids(step)) {
        EXPECT_GE(id, s.shard().first);
        EXPECT_LT(id, s.shard().second);
      }
    }
  });
  std::uint64_t expect_first = 0;
  for (const auto& [lo, hi] : shards) {
    EXPECT_EQ(lo, expect_first);
    expect_first = hi;
  }
  EXPECT_EQ(expect_first, num_samples);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SamplerSweep,
    ::testing::Values(Config{1, 4, 64}, Config{2, 4, 64}, Config{3, 4, 100},
                      Config{4, 8, 256}, Config{5, 3, 97}, Config{8, 16, 512},
                      Config{7, 1, 49}),
    [](const ::testing::TestParamInfo<Config>& info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += "b";
      name += std::to_string(std::get<1>(info.param));
      name += "s";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

}  // namespace
}  // namespace dds::train
