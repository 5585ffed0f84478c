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
    win.lock(target);
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
    win.lock(target);
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
    win.lock(target);
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
    win.lock(target);
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
    win.lock(target);
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
    win.lock(target);
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
                 win.lock(0);
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
                 win.lock(0);
                 win.get(MutableByteSpan(dst), 0, 40);  // 40+32 > 64
                 win.unlock(0);
               }),
               DataError);
}

TEST(Window, GetRangeThatWrapsThrows) {
  // offset + len wraps to 8, inside the 64-byte region, but the copy would
  // start 8 bytes before it.
  Runtime rt(2, test_machine());
  EXPECT_THROW(rt.run([](Comm& c) {
                 ByteBuffer local(64);
                 Window win(c, MutableByteSpan(local));
                 ByteBuffer dst(16);
                 win.lock(0);
                 win.get(MutableByteSpan(dst), 0, ~std::size_t{0} - 7);
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
      // Each region reads back whole, and one byte more is out of bounds.
      const std::size_t size = static_cast<std::size_t>(t + 1) * 100u;
      ByteBuffer dst(size);
      ByteBuffer past(size + 1);
      win.lock(t);
      win.get(MutableByteSpan(dst), t, 0);
      EXPECT_THROW(win.get(MutableByteSpan(past), t, 0), DataError);
      win.unlock(t);
      EXPECT_EQ(dst, pattern_buffer(t, size));
    }
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
      win.lock(0);
      win.get(MutableByteSpan(dst), 0, static_cast<std::size_t>(iter) * 64);
      win.unlock(0);
      EXPECT_EQ(0, std::memcmp(dst.data(),
                               expect.data() + iter * 64, 64));
    }
    win.fence();
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
    win.lock(c.rank());
    win.get(MutableByteSpan(dst), c.rank(), 0);
    win.unlock(c.rank());
    local_cost[c.rank()] = c.clock().now() - t0;

    const int far = (c.rank() + 4) % 8;  // different node (4 GPUs/node)
    t0 = c.clock().now();
    win.lock(far);
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
    win.lock(t);
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
                 win.lock(0);
                 win.fence();
               }),
               InternalError);
}

TEST(Window, EpochMisuseThrows) {
  // The epoch checks that stay with shared-only epochs: an unlock without a
  // lock and a second lock on the same target are both caught.
  Runtime rt(2, test_machine());
  rt.run([](Comm& c) {
    ByteBuffer local(8);
    Window win(c, MutableByteSpan(local));
    EXPECT_THROW(win.unlock(0), InternalError);
    win.lock(0);
    EXPECT_THROW(win.lock(0), InternalError);
    win.unlock(0);
    EXPECT_THROW(win.unlock(0), InternalError);
    win.fence();
  });
}

TEST(Window, SharedEpochsNeverYield) {
  // The one-wait-point contract: a shared epoch and the gets inside it never
  // park a rank, so 8 ranks taking 16 epochs each on rank 0 switch fibers
  // exactly as often as a run that only creates and fences the window.
  constexpr int kRanks = 8;
  constexpr int kEpochs = 16;
  const auto switches = [](bool with_epochs) {
    Runtime rt(kRanks, test_machine());
    rt.run([&](Comm& c) {
      ByteBuffer local = pattern_buffer(c.rank(), 64);
      Window win(c, MutableByteSpan(local));
      const ByteBuffer expect = pattern_buffer(0, 64);
      for (int i = 0; with_epochs && i < kEpochs; ++i) {
        const std::size_t offset = 8u * static_cast<std::size_t>(i % 8);
        ByteBuffer dst(8);
        win.lock(0);
        win.get(MutableByteSpan(dst), 0, offset);
        win.unlock(0);
        EXPECT_EQ(0, std::memcmp(dst.data(), expect.data() + offset, 8));
      }
      win.fence();
    });
    return rt.fiber_scheduler()->switch_count();
  };
  EXPECT_EQ(switches(true), switches(false));
}

}  // namespace
}  // namespace dds::simmpi
