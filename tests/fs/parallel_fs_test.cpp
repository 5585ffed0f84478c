#include "fs/parallel_fs.hpp"

#include <gtest/gtest.h>

#include "simmpi/runtime.hpp"

namespace dds::fs {
namespace {

using model::test_machine;

ByteBuffer make_bytes(std::size_t n, int seed = 0) {
  ByteBuffer b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::byte>((seed + 7 * i) & 0xff);
  }
  return b;
}

class FsTest : public ::testing::Test {
 protected:
  FsTest() : fs_(test_machine().fs, /*nnodes=*/2) {}
  ParallelFileSystem fs_;
  model::VirtualClock clock_;
  Rng rng_{1};
};

TEST_F(FsTest, WriteReadRoundTrip) {
  const auto data = make_bytes(1000, 3);
  fs_.write_file("a/b.bin", ByteSpan(data));
  EXPECT_TRUE(fs_.exists("a/b.bin"));
  EXPECT_EQ(fs_.file_size("a/b.bin"), 1000u);
  EXPECT_EQ(fs_.read_file_raw("a/b.bin"), data);

  FsClient client(fs_, 0, clock_, rng_);
  EXPECT_EQ(client.read_file("a/b.bin"), data);
  EXPECT_GT(clock_.now(), 0.0);
}

TEST_F(FsTest, MissingFileThrows) {
  FsClient client(fs_, 0, clock_, rng_);
  EXPECT_THROW(client.open("nope"), IoError);
  EXPECT_THROW(fs_.file_size("nope"), IoError);
  EXPECT_THROW(fs_.remove("nope"), IoError);
}

TEST_F(FsTest, ListFiltersByPrefixSorted) {
  fs_.write_file("ds/b", ByteSpan(make_bytes(1)));
  fs_.write_file("ds/a", ByteSpan(make_bytes(1)));
  fs_.write_file("other/x", ByteSpan(make_bytes(1)));
  const auto ls = fs_.list("ds/");
  ASSERT_EQ(ls.size(), 2u);
  EXPECT_EQ(ls[0], "ds/a");
  EXPECT_EQ(ls[1], "ds/b");
  EXPECT_EQ(fs_.file_count(), 3u);
}

TEST_F(FsTest, NominalSizeDefaultsToActualAndValidates) {
  fs_.write_file("x", ByteSpan(make_bytes(100)));
  EXPECT_EQ(fs_.nominal_file_size("x"), 100u);
  fs_.write_file("y", ByteSpan(make_bytes(100)), 1'000'000);
  EXPECT_EQ(fs_.nominal_file_size("y"), 1'000'000u);
  EXPECT_THROW(fs_.write_file("z", ByteSpan(make_bytes(100)), 50),
               InternalError);
}

TEST_F(FsTest, PreadReturnsCorrectSlice) {
  const auto data = make_bytes(5000, 9);
  fs_.write_file("f", ByteSpan(data));
  FsClient client(fs_, 0, clock_, rng_);
  const auto ref = client.open("f");
  ByteBuffer dst(100);
  client.pread(ref, MutableByteSpan(dst), 1234);
  EXPECT_EQ(0, std::memcmp(dst.data(), data.data() + 1234, 100));
  EXPECT_THROW(client.pread(ref, MutableByteSpan(dst), 4950), IoError);
}

TEST_F(FsTest, PreadRangeThatWrapsThrows) {
  // 16 bytes at offset 2^64 - 8: offset + length wraps to 8, inside the
  // 64-byte file, but the copy would start 8 bytes before the payload.
  const auto data = make_bytes(64, 5);
  fs_.write_file("f", ByteSpan(data));
  FsClient client(fs_, 0, clock_, rng_);
  const auto ref = client.open("f");
  ByteBuffer dst(16);
  EXPECT_THROW(
      client.pread(ref, MutableByteSpan(dst), ~std::uint64_t{0} - 7),
      IoError);
}

TEST_F(FsTest, OpenChargesMdsCost) {
  fs_.write_file("f", ByteSpan(make_bytes(10)));
  FsClient client(fs_, 0, clock_, rng_);
  client.open("f");
  const auto& p = test_machine().fs;
  // Deterministic (no jitter on the test machine).
  EXPECT_DOUBLE_EQ(clock_.now(), p.mds_occupancy_s + p.mds_service_s);
}

TEST_F(FsTest, RereadHitsPageCacheAndIsFaster) {
  fs_.write_file("f", ByteSpan(make_bytes(1000)));
  FsClient client(fs_, 0, clock_, rng_);
  const auto ref = client.open("f");
  ByteBuffer dst(1000);

  const double t0 = clock_.now();
  client.pread(ref, MutableByteSpan(dst), 0);
  const double miss_cost = clock_.now() - t0;

  const double t1 = clock_.now();
  client.pread(ref, MutableByteSpan(dst), 0);
  const double hit_cost = clock_.now() - t1;

  EXPECT_LT(hit_cost, miss_cost);
  EXPECT_EQ(client.stats().cache_hits, 1u);
  EXPECT_EQ(client.stats().cache_misses, 1u);
}

TEST_F(FsTest, CachesArePerNode) {
  fs_.write_file("f", ByteSpan(make_bytes(100)));
  FsClient c0(fs_, 0, clock_, rng_);
  model::VirtualClock clock1;
  FsClient c1(fs_, 1, clock1, rng_);
  ByteBuffer dst(100);
  c0.pread(c0.open("f"), MutableByteSpan(dst), 0);
  // Node 1 has its own cold cache.
  c1.pread(c1.open("f"), MutableByteSpan(dst), 0);
  EXPECT_EQ(c1.stats().cache_misses, 1u);
}

TEST_F(FsTest, RandomReadCostsMoreThanSequential) {
  fs_.write_file("f", ByteSpan(make_bytes(1000)));
  FsClient client(fs_, 0, clock_, rng_);
  const auto ref = client.open("f");
  ByteBuffer dst(1000);
  const double t0 = clock_.now();
  client.pread(ref, MutableByteSpan(dst), 0, /*sequential=*/true);
  const double seq = clock_.now() - t0;
  fs_.reset_time_state();
  const double t1 = clock_.now();
  client.pread(ref, MutableByteSpan(dst), 0, /*sequential=*/false);
  const double rnd = clock_.now() - t1;
  EXPECT_GT(rnd, seq);
}

TEST_F(FsTest, NominalScaleDrivesReadAmplification) {
  // 1 KB actual payload presented as 10 MB nominal: a full-file read must
  // pull nominal blocks (10 MB / 64 KiB = ~160 blocks) through the FS.
  fs_.write_file("big", ByteSpan(make_bytes(1000)), 10'000'000);
  FsClient client(fs_, 0, clock_, rng_);
  const auto ref = client.open("big");
  EXPECT_NEAR(ref.scale, 10'000.0, 1.0);
  ByteBuffer dst(1000);
  client.pread(ref, MutableByteSpan(dst), 0, /*sequential=*/true);
  EXPECT_GE(client.stats().nominal_bytes_read, 9'900'000u);
  EXPECT_GT(client.stats().cache_misses, 100u);
}

TEST_F(FsTest, SmallSampleInLargeContainerTouchesOneBlock) {
  // A CFF-style access: tiny actual range in a huge nominal container
  // should amplify to ~one block, not the whole file.
  fs_.write_file("container", ByteSpan(make_bytes(100'000)), 100'000'000);
  FsClient client(fs_, 0, clock_, rng_);
  const auto ref = client.open("container");
  ByteBuffer dst(10);  // maps to ~10 KB nominal, inside 64 KiB blocks
  client.pread(ref, MutableByteSpan(dst), 50'000);
  EXPECT_LE(client.stats().cache_misses, 2u);
  EXPECT_LE(client.stats().nominal_bytes_read, 2u * 64 * KiB);
}

TEST_F(FsTest, SharedBandwidthSerializesConcurrentMisses) {
  // Two clients pulling large reads at the same virtual time queue at the
  // aggregate-bandwidth resource: the second finishes later.
  fs_.write_file("f", ByteSpan(make_bytes(100)), 10'000'000);
  model::VirtualClock ca, cb;
  FsClient a(fs_, 0, ca, rng_);
  FsClient b(fs_, 1, cb, rng_);
  ByteBuffer dst(100);
  const auto ra = a.open("f");
  const auto rb = b.open("f");
  const double start_a = ca.now();
  a.pread(ra, MutableByteSpan(dst), 0, true);
  b.pread(rb, MutableByteSpan(dst), 0, true);
  const double dur_a = ca.now() - start_a;
  EXPECT_GT(cb.now(), ca.now() - dur_a * 0.5);  // b queued behind a
}

TEST_F(FsTest, ResetTimeStateClearsCaches) {
  fs_.write_file("f", ByteSpan(make_bytes(100)));
  FsClient client(fs_, 0, clock_, rng_);
  ByteBuffer dst(100);
  client.pread(client.open("f"), MutableByteSpan(dst), 0);
  fs_.reset_time_state();
  client.reset_stats();
  client.pread(client.open("f"), MutableByteSpan(dst), 0);
  EXPECT_EQ(client.stats().cache_misses, 1u);  // cold again
}

TEST_F(FsTest, UsableFromRankThreads) {
  // The FS is shared state accessed from simmpi rank threads.
  fs_.write_file("shared", ByteSpan(make_bytes(4096, 5)));
  simmpi::Runtime rt(8, test_machine());
  rt.run([&](simmpi::Comm& c) {
    FsClient client(fs_, test_machine().node_of_rank(c.world_rank()),
                    c.clock(), c.rng());
    const auto got = client.read_file("shared");
    EXPECT_EQ(got.size(), 4096u);
    EXPECT_EQ(got, make_bytes(4096, 5));
  });
}

TEST(FsParamsValidation, ConstructionRejectsNonPositiveRates) {
  // A zero bandwidth/latency yields infinite or NaN modeled times far from
  // the bad parameter; the filesystem must refuse loudly at construction.
  const auto expect_rejected = [](void (*break_one)(model::FsParams&)) {
    model::FsParams p = test_machine().fs;
    break_one(p);
    EXPECT_THROW(ParallelFileSystem(p, 1), ConfigError);
  };
  expect_rejected([](model::FsParams& p) { p.mds_service_s = 0.0; });
  expect_rejected([](model::FsParams& p) { p.mds_occupancy_s = -1e-6; });
  expect_rejected([](model::FsParams& p) { p.read_latency_s = 0.0; });
  expect_rejected([](model::FsParams& p) { p.aggregate_bandwidth_Bps = 0.0; });
  expect_rejected(
      [](model::FsParams& p) { p.aggregate_bandwidth_Bps = -12e9; });
  expect_rejected([](model::FsParams& p) { p.write_bandwidth_Bps = 0.0; });
  expect_rejected([](model::FsParams& p) { p.cache_hit_s = 0.0; });
  expect_rejected([](model::FsParams& p) { p.block_bytes = 0; });
  // The seek penalty may be exactly zero (sequential-only model), but
  // never negative.
  model::FsParams ok = test_machine().fs;
  ok.random_read_penalty_s = 0.0;
  EXPECT_NO_THROW(ParallelFileSystem(ok, 1));
  ok.random_read_penalty_s = -1e-6;
  EXPECT_THROW(ParallelFileSystem(ok, 1), ConfigError);
}

TEST_F(FsTest, StageReadAtIsDeferredDeterministicAndContended) {
  // The staging-queue read model: completion = issue latency + seek
  // penalty + nominal bytes over the shared aggregate bandwidth — computed
  // without a clock and without RNG jitter (byte-identity discipline).
  const model::FsParams& p = test_machine().fs;
  const std::uint64_t nominal = 1'000'000;
  const double d1 = fs_.stage_read_at(0.0, nominal);
  EXPECT_DOUBLE_EQ(d1, p.read_latency_s + p.random_read_penalty_s +
                           static_cast<double>(nominal) /
                               p.aggregate_bandwidth_Bps);
  // The bandwidth lane is shared: a second read issued at the same instant
  // queues behind the first.
  const double d2 = fs_.stage_read_at(0.0, nominal);
  EXPECT_GT(d2, d1);
  EXPECT_DOUBLE_EQ(clock_.now(), 0.0);  // nothing here touches a clock
}

}  // namespace
}  // namespace dds::fs
