// Stress/interleaving tests: many ranks mixing collectives, sub-
// communicators, and windows without deadlock.
#include <gtest/gtest.h>

#include "simmpi/window.hpp"

namespace dds::simmpi {
namespace {

using model::test_machine;

TEST(Stress, GridSplitRowAndColumnCommunicators) {
  // 4x4 process grid: split into row comms and column comms (a Cartesian
  // decomposition); row-sum + column-sum must reconstruct the global sum.
  static constexpr int kSide = 4;
  Runtime rt(kSide * kSide, test_machine());
  rt.run([](Comm& c) {
    const int row = c.rank() / kSide;
    const int col = c.rank() % kSide;
    Comm row_comm = c.split(row, col);
    Comm col_comm = c.split(col + 100, row);
    EXPECT_EQ(row_comm.size(), kSide);
    EXPECT_EQ(col_comm.size(), kSide);
    EXPECT_EQ(row_comm.rank(), col);
    EXPECT_EQ(col_comm.rank(), row);

    const int row_sum = row_comm.allreduce(c.rank(), Op::Sum);
    const int col_sum = col_comm.allreduce(row_sum, Op::Sum);
    EXPECT_EQ(col_sum, kSide * kSide * (kSide * kSide - 1) / 2);
  });
}

TEST(Stress, InterleavedWindowsAndCollectives) {
  Runtime rt(8, test_machine());
  rt.run([](Comm& c) {
    std::vector<double> local(16, static_cast<double>(c.rank()));
    Window win(c, MutableByteSpan(
                      reinterpret_cast<std::byte*>(local.data()),
                      local.size() * sizeof(double)));
    for (int round = 0; round < 10; ++round) {
      const int target = (c.rank() + round + 1) % c.size();
      std::vector<double> fetched(16);
      win.lock(target);
      win.get(MutableByteSpan(reinterpret_cast<std::byte*>(fetched.data()),
                              fetched.size() * sizeof(double)),
              target, 0);
      win.unlock(target);
      EXPECT_DOUBLE_EQ(fetched[7], static_cast<double>(target));
      // A collective between RMA epochs must not deadlock or corrupt.
      const double sum = c.allreduce(fetched[0], Op::Sum);
      EXPECT_GT(sum, -1.0);
      win.fence();
    }
  });
}

TEST(Stress, ManyRanksMixedTraffic) {
  static constexpr int kRanks = 64;
  Runtime rt(kRanks, model::perlmutter());
  rt.run([](Comm& c) {
    // Untimed exchange (the trainer's bookkeeping collective).
    const auto ranks = c.allgather_untimed(c.rank());
    for (int r = 0; r < c.size(); ++r) EXPECT_EQ(ranks[r], r);
    // Collective sandwich.
    const int sum = c.allreduce(1, Op::Sum);
    EXPECT_EQ(sum, kRanks);
    // Nested split down to pairs.
    Comm half = c.split(c.rank() / 32, c.rank());
    Comm quad = half.split(half.rank() / 8, half.rank());
    Comm pair = quad.split(quad.rank() / 2, quad.rank());
    EXPECT_EQ(pair.size(), 2);
    EXPECT_EQ(pair.allreduce(1, Op::Sum), 2);
  });
}

TEST(Stress, RepeatedRunsOnOneRuntime) {
  Runtime rt(6, test_machine());
  for (int round = 0; round < 5; ++round) {
    rt.run([round](Comm& c) {
      EXPECT_EQ(c.allreduce(round, Op::Max), round);
      c.barrier();
    });
  }
  EXPECT_GT(rt.max_clock(), 0.0);
}

TEST(Stress, AbortFlagReleasesPeersWhenOneRankThrows) {
  // One rank fails while everyone else sits in collectives: the abort flag
  // must release the survivors (instead of deadlocking the barrier), the
  // original exception must surface from run(), and the runtime must stay
  // usable afterwards.
  Runtime rt(8, test_machine());
  EXPECT_THROW(
      rt.run([](Comm& c) {
        c.barrier();  // everyone reaches the epoch together
        if (c.rank() == 3) {
          throw IoError("rank 3 lost its dataset");
        }
        // Survivors head into more collectives that rank 3 will never join.
        for (int round = 0; round < 50; ++round) {
          c.barrier();
          (void)c.allreduce(round, Op::Sum);
        }
      }),
      IoError);

  // A failed run must not poison the next one.
  rt.run([](Comm& c) {
    EXPECT_EQ(c.allreduce(1, Op::Sum), c.size());
    c.barrier();
  });
}

TEST(Stress, AbortPropagatesThroughSubCommunicatorsAndWindows) {
  Runtime rt(8, test_machine());
  EXPECT_THROW(
      rt.run([](Comm& c) {
        Comm half = c.split(c.rank() / 4, c.rank());
        std::vector<double> local(8, 1.0);
        Window win(c, MutableByteSpan(
                          reinterpret_cast<std::byte*>(local.data()),
                          local.size() * sizeof(double)));
        win.fence();
        if (c.rank() == 5) {
          throw DataError("rank 5 found a corrupt block");
        }
        for (int round = 0; round < 50; ++round) {
          (void)half.allreduce(1, Op::Sum);
          win.fence();
        }
      }),
      DataError);
  rt.run([](Comm& c) { EXPECT_EQ(c.allreduce(2, Op::Max), 2); });
}

}  // namespace
}  // namespace dds::simmpi
