// Property sweep: RMA window correctness over rank counts, region sizes,
// and randomized offset/length access patterns.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "common/rng.hpp"
#include "simmpi/window.hpp"

namespace dds::simmpi {
namespace {

using model::test_machine;
using Config = std::tuple<int /*nranks*/, std::size_t /*region*/>;

class WindowSweep : public ::testing::TestWithParam<Config> {};

ByteBuffer pattern(int rank, std::size_t n) {
  ByteBuffer b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::byte>((rank * 193 + i * 7) & 0xff);
  }
  return b;
}

TEST_P(WindowSweep, RandomizedGetsReturnExactBytes) {
  const auto [nranks, region_size] = GetParam();
  Runtime rt(nranks, test_machine());
  rt.run([&, region_size = region_size](Comm& c) {
    ByteBuffer local = pattern(c.rank(), region_size);
    Window win(c, MutableByteSpan(local));
    Rng rng(1000 + static_cast<std::uint64_t>(c.rank()));
    for (int trial = 0; trial < 40; ++trial) {
      const int target = static_cast<int>(rng.uniform_u64(
          static_cast<std::uint64_t>(c.size())));
      const std::size_t len =
          1 + rng.uniform_u64(std::min<std::size_t>(region_size, 256));
      const std::size_t offset = rng.uniform_u64(region_size - len + 1);
      ByteBuffer dst(len);
      win.lock(target);
      win.get(MutableByteSpan(dst), target, offset);
      win.unlock(target);
      const ByteBuffer expect = pattern(target, region_size);
      ASSERT_EQ(0, std::memcmp(dst.data(), expect.data() + offset, len))
          << "target " << target << " off " << offset << " len " << len;
    }
    win.fence();
  });
}

TEST_P(WindowSweep, ClockMonotoneThroughRandomizedAccess) {
  const auto [nranks, region_size] = GetParam();
  Runtime rt(nranks, test_machine());
  rt.run([&, region_size = region_size](Comm& c) {
    ByteBuffer local(region_size);
    Window win(c, MutableByteSpan(local));
    double last = c.clock().now();
    for (int trial = 0; trial < 20; ++trial) {
      const int target = (c.rank() + trial) % c.size();
      ByteBuffer dst(std::min<std::size_t>(64, region_size));
      win.lock(target);
      win.get(MutableByteSpan(dst), target, 0);
      win.unlock(target);
      EXPECT_GT(c.clock().now(), last);
      last = c.clock().now();
    }
    win.fence();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WindowSweep,
    ::testing::Values(Config{1, 64}, Config{2, 1}, Config{2, 4096},
                      Config{3, 257}, Config{5, 1024}, Config{8, 65536},
                      Config{9, 333}),
    [](const ::testing::TestParamInfo<Config>& info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += "r";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

}  // namespace
}  // namespace dds::simmpi
