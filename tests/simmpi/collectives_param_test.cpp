// Property sweep: collective semantics across rank counts, including
// non-powers-of-two (the log-depth cost model must not affect results).
#include <gtest/gtest.h>

#include <bit>
#include <numeric>

#include "simmpi/runtime.hpp"
#include "simmpi/window.hpp"

namespace dds::simmpi {
namespace {

using model::test_machine;

class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, AllreduceSumMatchesClosedForm) {
  const int n = GetParam();
  Runtime rt(n, test_machine());
  rt.run([&](Comm& c) {
    const long total = c.allreduce(static_cast<long>(c.rank()) + 1, Op::Sum);
    EXPECT_EQ(total, static_cast<long>(n) * (n + 1) / 2);
    EXPECT_EQ(c.allreduce(c.rank(), Op::Max), n - 1);
    EXPECT_EQ(c.allreduce(c.rank(), Op::Min), 0);
  });
}

TEST_P(CollectiveSweep, AllgatherOrderedByRank) {
  const int n = GetParam();
  Runtime rt(n, test_machine());
  rt.run([&](Comm& c) {
    const auto all = c.allgather_untimed(c.rank() * 3);
    ASSERT_EQ(static_cast<int>(all.size()), n);
    for (int r = 0; r < n; ++r) EXPECT_EQ(all[r], 3 * r);
  });
}

TEST_P(CollectiveSweep, AllgathervConcatenationComplete) {
  const int n = GetParam();
  Runtime rt(n, test_machine());
  rt.run([&](Comm& c) {
    // Rank r contributes r+1 copies of r.
    std::vector<int> mine(static_cast<std::size_t>(c.rank()) + 1, c.rank());
    std::vector<std::size_t> counts;
    const auto all = c.allgatherv(std::span<const int>(mine), &counts);
    EXPECT_EQ(all.size(), static_cast<std::size_t>(n) * (n + 1) / 2);
    std::size_t cursor = 0;
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(counts[static_cast<std::size_t>(r)],
                static_cast<std::size_t>(r) + 1);
      for (std::size_t k = 0; k <= static_cast<std::size_t>(r); ++k) {
        EXPECT_EQ(all[cursor++], r);
      }
    }
  });
}

TEST_P(CollectiveSweep, GathervOnlyRootReceives) {
  const int n = GetParam();
  Runtime rt(n, test_machine());
  rt.run([&](Comm& c) {
    const std::vector<double> mine = {static_cast<double>(c.rank())};
    const auto got = c.gatherv(std::span<const double>(mine), /*root=*/0);
    if (c.rank() == 0) {
      ASSERT_EQ(static_cast<int>(got.size()), n);
      for (int r = 0; r < n; ++r) EXPECT_DOUBLE_EQ(got[r], r);
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST_P(CollectiveSweep, SplitEvenOddGroups) {
  const int n = GetParam();
  if (n < 2) GTEST_SKIP();
  Runtime rt(n, test_machine());
  rt.run([&](Comm& c) {
    Comm group = c.split(c.rank() % 2, c.rank());
    const int expected = (n + (c.rank() % 2 == 0 ? 1 : 0)) / 2;
    EXPECT_EQ(group.size(), expected);
    // World ranks in the group all share my parity.
    const auto members = group.allgather_untimed(c.rank());
    for (const int m : members) EXPECT_EQ(m % 2, c.rank() % 2);
  });
}

TEST_P(CollectiveSweep, SharePublishesRootObject) {
  const int n = GetParam();
  Runtime rt(n, test_machine());
  rt.run([&](Comm& c) {
    const auto obj = c.share<std::vector<int>>(
        n - 1, [&] { return std::make_shared<std::vector<int>>(5, n); });
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(obj->size(), 5u);
    EXPECT_EQ((*obj)[0], n);
    // Everyone holds the same instance (in-process sharing).
    const auto ptrs =
        c.allgather_untimed(reinterpret_cast<std::uintptr_t>(obj.get()));
    for (const auto p : ptrs) EXPECT_EQ(p, ptrs[0]);
  });
}

TEST_P(CollectiveSweep, BarrierLeavesClocksEqual) {
  const int n = GetParam();
  Runtime rt(n, test_machine());
  rt.run([&](Comm& c) {
    c.clock().advance(1e-3 * (c.rank() + 1));
    c.barrier();
    const auto clocks = c.allgather_untimed(c.clock().now());
    for (const double t : clocks) EXPECT_DOUBLE_EQ(t, clocks[0]);
  });
}

TEST_P(CollectiveSweep, ReductionsFoldInRankOrderOnEveryRank) {
  // Rank r contributes {big, 1, -big, 1}[r % 4]: the float sum depends on
  // the fold order, so a rank that folds its own value first gets other
  // bits.  Every rank must get exactly the rank-order fold.
  const int n = GetParam();
  const auto value = [](int r, auto big) {
    using T = decltype(big);
    const T cycle[4] = {big, T{1}, -big, T{1}};
    return cycle[r % 4];
  };
  const auto rank_order = [&](auto big) {
    auto acc = value(0, big);
    for (int r = 1; r < n; ++r) acc = acc + value(r, big);
    return acc;
  };
  const float f = rank_order(1e8f);
  const double d = rank_order(1e16);
  Runtime rt(n, test_machine());
  rt.run([&](Comm& c) {
    const float mine_f = value(c.rank(), 1e8f);
    const double mine_d = value(c.rank(), 1e16);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(c.allreduce(mine_f, Op::Sum)),
              std::bit_cast<std::uint32_t>(f));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(c.allreduce(mine_d, Op::Sum)),
              std::bit_cast<std::uint64_t>(d));
    EXPECT_EQ(
        std::bit_cast<std::uint32_t>(c.allreduce_untimed(mine_f, Op::Sum)),
        std::bit_cast<std::uint32_t>(f));
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(c.allreduce_untimed(mine_d, Op::Sum)),
        std::bit_cast<std::uint64_t>(d));
  });
}

TEST_P(CollectiveSweep, BarrierMergesOnceInRankOrder) {
  // A share that is not trivially copyable: the merge reads each rank's
  // string by address, once, in rank order, and every rank gets the same
  // result.  The clocks move exactly as under a plain barrier().
  const int n = GetParam();
  const auto skew = [](Comm& c) { c.clock().advance(1e-3 * (c.rank() % 3)); };
  Runtime plain(n, test_machine());
  plain.run([&](Comm& c) {
    skew(c);
    c.barrier();
  });
  std::string expected;
  for (int r = 0; r < n; ++r) expected += std::to_string(r) + ";";
  Runtime rt(n, test_machine());
  int merges = 0;
  rt.run([&](Comm& c) {
    skew(c);
    const std::string mine = std::to_string(c.rank()) + ";";
    const std::string merged =
        c.barrier(mine, [&](std::span<const std::string* const> all) {
          ++merges;
          std::string out;
          for (const std::string* s : all) out += *s;
          return out;
        });
    EXPECT_EQ(merged, expected);
  });
  EXPECT_EQ(merges, 1);
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(rt.clock_of(r).now(), plain.clock_of(r).now()) << "rank " << r;
  }
  EXPECT_EQ(rt.fiber_scheduler()->switch_count(),
            plain.fiber_scheduler()->switch_count());
}

TEST_P(CollectiveSweep, EveryCollectiveKeepsItsBarrierCount) {
  // A collective's barriers are its only scheduling points: N fiber starts
  // plus N - 1 resumes per barrier.  Computing a result once must not add
  // or remove one, or the schedule (and with it modeled time) would move.
  const int n = GetParam();
  constexpr std::uint64_t kBarriers = 2 * 8 + 4 + 3;
  Runtime rt(n, test_machine());
  rt.run([&](Comm& c) {
    // Two barriers each:
    c.barrier();
    (void)c.barrier(c.rank(), [](std::span<const int* const> all) {
      return *all.back();
    });
    (void)c.allreduce(c.rank(), Op::Sum);
    (void)c.allreduce_untimed(c.rank(), Op::Min);
    const std::vector<int> v = {c.rank(), 1};
    (void)c.allgather_untimed(c.rank());
    (void)c.allgatherv(std::span<const int>(v));
    (void)c.gatherv(std::span<const int>(v), n - 1);
    (void)c.share<int>(0, [] { return std::make_shared<int>(7); });
    // Four: the exchange, then publishing the sub-communicator.
    (void)c.split(c.rank() % 2, c.rank());
    // Three: the exchange, then registering every keepalive.
    std::vector<std::byte> region(16);
    const Window win(c, MutableByteSpan(region));
  });
  const auto parked = static_cast<std::uint64_t>(n - 1);
  EXPECT_EQ(rt.fiber_scheduler()->switch_count(),
            static_cast<std::uint64_t>(n) + kBarriers * parked);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveSweep,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 13, 16, 32),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace dds::simmpi
