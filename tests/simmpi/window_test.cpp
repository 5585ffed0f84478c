#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "simmpi/window.hpp"

namespace dds::simmpi {
namespace {

using model::test_machine;

/// Fills a buffer with a rank-specific pattern.
ByteBuffer pattern_buffer(int rank, std::size_t n) {
  ByteBuffer buf(n);
  for (std::size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<std::byte>((rank * 131 + i) & 0xff);
  }
  return buf;
}

TEST(Window, GetReadsRemoteMemory) {
  Runtime rt(4, test_machine());
  rt.run([](Comm& c) {
    ByteBuffer local = pattern_buffer(c.rank(), 256);
    Window win(c, MutableByteSpan(local));

    const int target = (c.rank() + 1) % c.size();
    ByteBuffer dst(256);
    win.lock(target, LockType::Shared);
    win.get(MutableByteSpan(dst), target, 0);
    win.unlock(target);

    EXPECT_EQ(dst, pattern_buffer(target, 256));
    win.fence();
  });
}

TEST(Window, GetWithOffsetAndPartialLength) {
  Runtime rt(2, test_machine());
  rt.run([](Comm& c) {
    ByteBuffer local = pattern_buffer(c.rank(), 1024);
    Window win(c, MutableByteSpan(local));
    const int target = 1 - c.rank();

    ByteBuffer dst(100);
    win.lock(target, LockType::Shared);
    win.get(MutableByteSpan(dst), target, 500);
    win.unlock(target);

    const ByteBuffer expect = pattern_buffer(target, 1024);
    EXPECT_EQ(0, std::memcmp(dst.data(), expect.data() + 500, 100));
    win.fence();
  });
}

TEST(Window, GetvReadsEverySegmentInOneTransfer) {
  Runtime rt(2, test_machine());
  rt.run([](Comm& c) {
    ByteBuffer local = pattern_buffer(c.rank(), 1024);
    Window win(c, MutableByteSpan(local));
    const int target = 1 - c.rank();
    const ByteBuffer expect = pattern_buffer(target, 1024);

    ByteBuffer a(64), b(128), d(32);
    const std::vector<Window::GetSegment> segs = {
        {0, MutableByteSpan(a)},
        {256, MutableByteSpan(b)},
        {900, MutableByteSpan(d)},
    };
    const double t0 = c.clock().now();
    win.lock(target, LockType::Shared);
    win.getv(segs, target);
    win.unlock(target);
    const double vectored = c.clock().now() - t0;

    EXPECT_EQ(0, std::memcmp(a.data(), expect.data(), a.size()));
    EXPECT_EQ(0, std::memcmp(b.data(), expect.data() + 256, b.size()));
    EXPECT_EQ(0, std::memcmp(d.data(), expect.data() + 900, d.size()));

    // The same three ranges as individual gets pay the per-get software
    // overhead three times; the vectored transfer pays it once plus two
    // cheap segment descriptors.
    const double t1 = c.clock().now();
    win.lock(target, LockType::Shared);
    win.get(MutableByteSpan(a), target, 0);
    win.get(MutableByteSpan(b), target, 256);
    win.get(MutableByteSpan(d), target, 900);
    win.unlock(target);
    const double separate = c.clock().now() - t1;
    EXPECT_LT(vectored, separate);
    win.fence();
  });
}

TEST(Window, GetvChargeBytesOverridesTimingOnly) {
  Runtime rt(2, test_machine());
  rt.run([](Comm& c) {
    ByteBuffer local = pattern_buffer(c.rank(), 512);
    Window win(c, MutableByteSpan(local));
    const int target = 1 - c.rank();

    ByteBuffer small(16), big(16);
    const std::vector<Window::GetSegment> seg_small = {
        {0, MutableByteSpan(small)}};
    const std::vector<Window::GetSegment> seg_big = {
        {0, MutableByteSpan(big)}};
    win.lock(target, LockType::Shared);
    const double t0 = c.clock().now();
    win.getv(seg_small, target);
    const double cheap = c.clock().now() - t0;
    win.getv(seg_big, target, /*charge_bytes=*/1 << 20);
    const double charged = c.clock().now() - t0 - cheap;
    win.unlock(target);
    EXPECT_GT(charged, cheap);   // nominal bytes dominate the timing
    EXPECT_EQ(small, big);       // data plane moved the same 16 bytes
    win.fence();
  });
}

TEST(Window, GetvAtPricesWithoutAdvancingTheClock) {
  Runtime rt(2, test_machine());
  rt.run([](Comm& c) {
    ByteBuffer local = pattern_buffer(c.rank(), 512);
    Window win(c, MutableByteSpan(local));
    const int target = 1 - c.rank();

    ByteBuffer dst(64);
    const std::vector<Window::GetSegment> segs = {
        {128, MutableByteSpan(dst)}};
    win.lock(target, LockType::Shared);
    const double now = c.clock().now();
    const double done = win.getv_at(segs, target, now + 1e-3);
    win.unlock(target);
    EXPECT_EQ(c.clock().now(), now);  // priced at the issue time, not committed
    EXPECT_GT(done, now + 1e-3);
    EXPECT_EQ(0, std::memcmp(dst.data(),
                             pattern_buffer(target, 512).data() + 128,
                             dst.size()));
    win.fence();
  });
}

TEST(Window, GetvOutOfBoundsThrows) {
  Runtime rt(2, test_machine());
  EXPECT_THROW(rt.run([](Comm& c) {
                 ByteBuffer local(64);
                 Window win(c, MutableByteSpan(local));
                 ByteBuffer dst(32);
                 const std::vector<Window::GetSegment> segs = {
                     {40, MutableByteSpan(dst)}};  // 40+32 > 64
                 win.lock(0, LockType::Shared);
                 win.getv(segs, 0);
                 win.unlock(0);
               }),
               DataError);
}

TEST(Window, GetvWithoutLockThrows) {
  Runtime rt(2, test_machine());
  EXPECT_THROW(rt.run([](Comm& c) {
                 ByteBuffer local(64);
                 Window win(c, MutableByteSpan(local));
                 ByteBuffer dst(8);
                 const std::vector<Window::GetSegment> segs = {
                     {0, MutableByteSpan(dst)}};
                 win.getv(segs, 0);
               }),
               InternalError);
}

TEST(Window, OutOfBoundsGetThrows) {
  Runtime rt(2, test_machine());
  EXPECT_THROW(rt.run([](Comm& c) {
                 ByteBuffer local(64);
                 Window win(c, MutableByteSpan(local));
                 ByteBuffer dst(32);
                 win.lock(0, LockType::Shared);
                 win.get(MutableByteSpan(dst), 0, 40);  // 40+32 > 64
                 win.unlock(0);
               }),
               DataError);
}

TEST(Window, GetWithoutLockThrows) {
  Runtime rt(2, test_machine());
  EXPECT_THROW(rt.run([](Comm& c) {
                 ByteBuffer local(64);
                 Window win(c, MutableByteSpan(local));
                 ByteBuffer dst(8);
                 win.get(MutableByteSpan(dst), 0, 0);
               }),
               InternalError);
}

TEST(Window, UnevenRegionSizes) {
  Runtime rt(3, test_machine());
  rt.run([](Comm& c) {
    // Rank r exposes (r+1)*100 bytes, like uneven DDStore chunks.
    ByteBuffer local = pattern_buffer(c.rank(), (c.rank() + 1) * 100u);
    Window win(c, MutableByteSpan(local));
    for (int t = 0; t < 3; ++t) {
      EXPECT_EQ(win.size_of(t), static_cast<std::size_t>(t + 1) * 100u);
    }
    ByteBuffer dst(300);
    win.lock(2, LockType::Shared);
    win.get(MutableByteSpan(dst), 2, 0);
    win.unlock(2);
    EXPECT_EQ(dst, pattern_buffer(2, 300));
    win.fence();
  });
}

TEST(Window, ConcurrentSharedReadsFromOneTarget) {
  Runtime rt(8, test_machine());
  rt.run([](Comm& c) {
    ByteBuffer local = pattern_buffer(c.rank(), 4096);
    Window win(c, MutableByteSpan(local));
    win.fence();
    // Everyone hammers rank 0 with shared-lock reads.
    const ByteBuffer expect = pattern_buffer(0, 4096);
    for (int iter = 0; iter < 50; ++iter) {
      ByteBuffer dst(64);
      win.lock(0, LockType::Shared);
      win.get(MutableByteSpan(dst), 0, static_cast<std::size_t>(iter) * 64);
      win.unlock(0);
      EXPECT_EQ(0, std::memcmp(dst.data(),
                               expect.data() + iter * 64, 64));
    }
    win.fence();
  });
}

TEST(Window, PutRequiresExclusiveAndWrites) {
  Runtime rt(2, test_machine());
  rt.run([](Comm& c) {
    ByteBuffer local(16, std::byte{0});
    Window win(c, MutableByteSpan(local));
    win.fence();
    if (c.rank() == 0) {
      const ByteBuffer src(16, std::byte{0xab});
      win.lock(1, LockType::Exclusive);
      win.put(ByteSpan(src), 1, 0);
      win.unlock(1);
    }
    win.fence();
    if (c.rank() == 1) {
      EXPECT_EQ(local[0], std::byte{0xab});
      EXPECT_EQ(local[15], std::byte{0xab});
    }
  });
}

TEST(Window, PutWithSharedLockThrows) {
  Runtime rt(2, test_machine());
  EXPECT_THROW(rt.run([](Comm& c) {
                 ByteBuffer local(8);
                 Window win(c, MutableByteSpan(local));
                 const ByteBuffer src(8);
                 win.lock(0, LockType::Shared);
                 win.put(ByteSpan(src), 0, 0);
               }),
               InternalError);
}

TEST(Window, AccumulateAddSumsContributions) {
  Runtime rt(4, test_machine());
  rt.run([](Comm& c) {
    std::vector<double> local(4, 0.0);
    Window win(c, MutableByteSpan(
                      reinterpret_cast<std::byte*>(local.data()),
                      local.size() * sizeof(double)));
    win.fence();
    // Every rank accumulates its rank id into rank 0's array.
    const std::vector<double> contrib(4, static_cast<double>(c.rank()));
    win.lock(0, LockType::Exclusive);
    win.accumulate_add(std::span<const double>(contrib), 0, 0);
    win.unlock(0);
    win.fence();
    if (c.rank() == 0) {
      for (double v : local) EXPECT_DOUBLE_EQ(v, 0.0 + 1 + 2 + 3);
    }
  });
}

TEST(Window, RemoteGetChargesMoreVirtualTimeThanLocal) {
  Runtime rt(8, test_machine());
  std::vector<double> local_cost(8), remote_cost(8);
  rt.run([&](Comm& c) {
    ByteBuffer local(1024);
    Window win(c, MutableByteSpan(local));
    win.fence();
    ByteBuffer dst(1024);

    double t0 = c.clock().now();
    win.lock(c.rank(), LockType::Shared);
    win.get(MutableByteSpan(dst), c.rank(), 0);
    win.unlock(c.rank());
    local_cost[c.rank()] = c.clock().now() - t0;

    const int far = (c.rank() + 4) % 8;  // different node (4 GPUs/node)
    t0 = c.clock().now();
    win.lock(far, LockType::Shared);
    win.get(MutableByteSpan(dst), far, 0);
    win.unlock(far);
    remote_cost[c.rank()] = c.clock().now() - t0;
    win.fence();
  });
  for (int r = 0; r < 8; ++r) {
    EXPECT_GT(remote_cost[r], local_cost[r]) << "rank " << r;
  }
}

TEST(Window, WindowOverSubcommunicator) {
  // DDStore's pattern: windows live inside replica groups.
  Runtime rt(8, test_machine());
  rt.run([](Comm& c) {
    Comm group = c.split(c.rank() / 4, c.rank());
    ByteBuffer local = pattern_buffer(c.rank(), 128);
    Window win(group, MutableByteSpan(local));
    // Read from group-neighbour: world rank differs per group.
    const int t = (group.rank() + 1) % group.size();
    ByteBuffer dst(128);
    win.lock(t, LockType::Shared);
    win.get(MutableByteSpan(dst), t, 0);
    win.unlock(t);
    const int expected_world = (c.rank() / 4) * 4 + (c.rank() + 1) % 4;
    EXPECT_EQ(dst, pattern_buffer(expected_world, 128));
    win.fence();
  });
}

TEST(Window, FenceWithOpenEpochThrows) {
  Runtime rt(2, test_machine());
  EXPECT_THROW(rt.run([](Comm& c) {
                 ByteBuffer local(8);
                 Window win(c, MutableByteSpan(local));
                 win.lock(0, LockType::Shared);
                 win.fence();
               }),
               InternalError);
}

TEST(Window, FreeIsCollectiveAndIdempotentPerWindow) {
  Runtime rt(2, test_machine());
  rt.run([](Comm& c) {
    ByteBuffer local(8);
    Window win(c, MutableByteSpan(local));
    win.free();
  });
}

TEST(Window, HolderFailureReleasesParkedLockRequests) {
  // Rank 0 takes an exclusive epoch, tells rank 1, and parks in recv;
  // rank 1 answers, then requests the same region and parks behind the
  // held lock; rank 0 wakes and throws without unlocking.  The abort must
  // wake rank 1 with the region still held (AbortedError), the holder's own
  // error must surface from run(), and the runtime must stay usable — for
  // a shared and for an exclusive request.
  for (const LockType request : {LockType::Shared, LockType::Exclusive}) {
    Runtime rt(2, test_machine());
    bool waiter_aborted = false;
    EXPECT_THROW(rt.run([&](Comm& c) {
                   ByteBuffer local(64);
                   Window win(c, MutableByteSpan(local));
                   const std::vector<int> token{1};
                   if (c.rank() == 0) {
                     win.lock(0, LockType::Exclusive);
                     c.send(std::span<const int>(token), 1, /*tag=*/1);
                     c.recv<int>(1, /*tag=*/2);
                     throw IoError("holder failed");
                   }
                   c.recv<int>(0, /*tag=*/1);
                   c.send(std::span<const int>(token), 0, /*tag=*/2);
                   try {
                     win.lock(0, request);
                   } catch (const AbortedError&) {
                     waiter_aborted = true;
                     throw;
                   }
                   ADD_FAILURE() << "lock granted while the holder held it";
                 }),
                 IoError);
    EXPECT_TRUE(waiter_aborted);
    rt.run([](Comm& c) { c.barrier(); });
  }
}

}  // namespace
}  // namespace dds::simmpi
