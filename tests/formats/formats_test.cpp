#include <gtest/gtest.h>

#include <cstring>

#include "datagen/dataset.hpp"
#include "formats/cff.hpp"
#include "formats/pff.hpp"

namespace dds::formats {
namespace {

using datagen::DatasetKind;
using model::test_machine;

class FormatsTest : public ::testing::Test {
 protected:
  FormatsTest()
      : fs_(test_machine().fs, /*nnodes=*/2),
        ds_(datagen::make_dataset(DatasetKind::AisdHomoLumo, 20, 3)),
        client_(fs_, 0, clock_, rng_) {}

  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> ds_;
  model::VirtualClock clock_;
  Rng rng_{2};
  fs::FsClient client_;
};

TEST_F(FormatsTest, PffStageCreatesOneFilePerSample) {
  PffWriter::stage(fs_, "pff/aisd", *ds_);
  EXPECT_EQ(fs_.file_count(), 20u);
  EXPECT_EQ(fs_.list("pff/aisd/").size(), 20u);
}

TEST_F(FormatsTest, PffRoundTripAllSamples) {
  PffWriter::stage(fs_, "pff/aisd", *ds_);
  PffReader reader(fs_, "pff/aisd", 20,
                   ds_->spec().nominal_pff_sample_bytes());
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(reader.read(i, client_), ds_->make(i)) << "sample " << i;
  }
  EXPECT_EQ(client_.stats().opens, 20u);
}

TEST_F(FormatsTest, PffNominalSizesStamped) {
  PffWriter::stage(fs_, "pff/aisd", *ds_);
  const auto nominal = ds_->spec().nominal_pff_sample_bytes();
  const auto path = PffWriter::sample_path("pff/aisd", 0);
  EXPECT_GE(fs_.nominal_file_size(path), nominal);
  EXPECT_LT(fs_.file_size(path), fs_.nominal_file_size(path) + 1);
}

TEST_F(FormatsTest, PffMissingDatasetThrows) {
  EXPECT_THROW(PffReader(fs_, "pff/none", 20, 1000), IoError);
}

TEST_F(FormatsTest, PffOutOfRangeThrows) {
  PffWriter::stage(fs_, "pff/aisd", *ds_);
  PffReader reader(fs_, "pff/aisd", 20, 1000);
  EXPECT_THROW(reader.read(20, client_), ConfigError);
}

TEST_F(FormatsTest, PffReadChargesMdsAndDecode) {
  PffWriter::stage(fs_, "pff/aisd", *ds_);
  PffReader reader(fs_, "pff/aisd", 20, 1000);
  const double t0 = clock_.now();
  reader.read(0, client_);
  const auto& p = test_machine().fs;
  EXPECT_GT(clock_.now() - t0, p.mds_service_s);  // at least one open
}

TEST_F(FormatsTest, CffSingleSubfileRoundTrip) {
  CffWriter::stage(fs_, "cff/aisd", *ds_, 1);
  EXPECT_EQ(fs_.file_count(), 1u);
  CffReader reader(fs_, "cff/aisd", ds_->spec().nominal_cff_sample_bytes());
  EXPECT_EQ(reader.num_samples(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(reader.read(i, client_), ds_->make(i)) << "sample " << i;
  }
}

TEST_F(FormatsTest, CffMultipleSubfilesRoundTrip) {
  CffWriter::stage(fs_, "cff/aisd", *ds_, 4);
  EXPECT_EQ(fs_.file_count(), 4u);
  CffReader reader(fs_, "cff/aisd", ds_->spec().nominal_cff_sample_bytes());
  EXPECT_EQ(reader.num_samples(), 20u);
  EXPECT_EQ(reader.num_subfiles(), 4u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(reader.read(i, client_), ds_->make(i)) << "sample " << i;
  }
}

TEST_F(FormatsTest, CffUnevenSubfileSplit) {
  // 20 samples over 3 subfiles: 6/7/7 split must still tile contiguously.
  CffWriter::stage(fs_, "cff/aisd", *ds_, 3);
  CffReader reader(fs_, "cff/aisd", 1000);
  EXPECT_EQ(reader.num_samples(), 20u);
  EXPECT_EQ(reader.read(6, client_), ds_->make(6));
  EXPECT_EQ(reader.read(19, client_), ds_->make(19));
}

TEST_F(FormatsTest, CffNominalContainerSize) {
  CffWriter::stage(fs_, "cff/aisd", *ds_, 1);
  const auto path = CffWriter::subfile_path("cff/aisd", 0);
  // 20 samples x ~5.7 KB nominal each.
  EXPECT_GT(fs_.nominal_file_size(path),
            20 * ds_->spec().nominal_cff_sample_bytes());
}

TEST_F(FormatsTest, CffCorruptMagicRejected) {
  CffWriter::stage(fs_, "cff/aisd", *ds_, 1);
  const auto path = CffWriter::subfile_path("cff/aisd", 0);
  ByteBuffer raw = fs_.read_file_raw(path);
  raw[0] = std::byte{0xff};
  fs_.write_file(path, ByteSpan(raw), fs_.nominal_file_size(path));
  EXPECT_THROW(CffReader(fs_, "cff/aisd", 1000), DataError);
}

TEST_F(FormatsTest, CffTruncatedContainerRejected) {
  CffWriter::stage(fs_, "cff/aisd", *ds_, 1);
  const auto path = CffWriter::subfile_path("cff/aisd", 0);
  ByteBuffer raw = fs_.read_file_raw(path);
  raw.resize(raw.size() / 2);
  fs_.write_file(path, ByteSpan(raw));
  EXPECT_THROW(CffReader(fs_, "cff/aisd", 1000), DataError);
}

TEST_F(FormatsTest, CffIndexEntryThatWrapsIsRejected) {
  // Entry 0 claims 16 bytes at offset 2^64 - 8: offset + length wraps to
  // 8, inside the file, but the blob would start 8 bytes before it.
  CffWriter::stage(fs_, "cff/aisd", *ds_, 1);
  const auto path = CffWriter::subfile_path("cff/aisd", 0);
  ByteBuffer raw = fs_.read_file_raw(path);
  // u32 magic | u16 version | u64 count | u64 first, then entry 0.
  constexpr std::size_t kEntry0 = 4 + 2 + 8 + 8;
  const std::uint64_t offset = ~std::uint64_t{0} - 7;
  const std::uint64_t length = 16;
  std::memcpy(raw.data() + kEntry0, &offset, sizeof(offset));
  std::memcpy(raw.data() + kEntry0 + 8, &length, sizeof(length));
  fs_.write_file(path, ByteSpan(raw), fs_.nominal_file_size(path));
  EXPECT_THROW(CffReader(fs_, "cff/aisd", 1000), DataError);
}

TEST_F(FormatsTest, CffMissingPrefixThrows) {
  EXPECT_THROW(CffReader(fs_, "cff/none", 1000), IoError);
}

TEST_F(FormatsTest, CffOutOfRangeThrows) {
  CffWriter::stage(fs_, "cff/aisd", *ds_, 2);
  CffReader reader(fs_, "cff/aisd", 1000);
  EXPECT_THROW(reader.read(20, client_), ConfigError);
}

TEST_F(FormatsTest, CffRandomReadsCostMoreThanCachedReads) {
  CffWriter::stage(fs_, "cff/aisd", *ds_, 1);
  CffReader reader(fs_, "cff/aisd", 1000);
  const double t0 = clock_.now();
  reader.read_bytes(5, client_);
  const double miss = clock_.now() - t0;
  const double t1 = clock_.now();
  reader.read_bytes(5, client_);  // same block: page-cache hit
  const double hit = clock_.now() - t1;
  EXPECT_LT(hit, miss);
}

TEST_F(FormatsTest, CffStartupChargesPerSubfile) {
  CffWriter::stage(fs_, "cff/aisd", *ds_, 4);
  CffReader reader(fs_, "cff/aisd", 1000);
  client_.reset_stats();
  reader.charge_startup(client_);
  EXPECT_EQ(client_.stats().opens, 4u);
  EXPECT_GT(clock_.now(), 0.0);
}

TEST_F(FormatsTest, StagedBytesIdenticalAcrossFormats) {
  PffWriter::stage(fs_, "pff/x", *ds_);
  CffWriter::stage(fs_, "cff/x", *ds_, 2);
  PffReader pff(fs_, "pff/x", 20, 1000);
  CffReader cff(fs_, "cff/x", 1000);
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(pff.read_bytes(i, client_), cff.read_bytes(i, client_));
  }
}

TEST_F(FormatsTest, MoreSubfilesThanSamplesThrows) {
  const auto tiny = datagen::make_dataset(DatasetKind::Ising, 2, 1);
  EXPECT_THROW(CffWriter::stage(fs_, "cff/tiny", *tiny, 5), InternalError);
}

}  // namespace
}  // namespace dds::formats

namespace dds::formats {
namespace {

TEST(ParallelStaging, EachRankWritesOneSubfileAndAllRoundTrip) {
  const auto machine = dds::model::test_machine();
  fs::ParallelFileSystem pfs(machine.fs, 1);
  const auto ds =
      datagen::make_dataset(datagen::DatasetKind::AisdHomoLumo, 30, 8);
  simmpi::Runtime rt(3, machine);
  rt.run([&](simmpi::Comm& c) {
    fs::FsClient client(pfs, 0, c.clock(), c.rng());
    CffWriter::stage_parallel(c, client, pfs, "par", *ds);
    EXPECT_GT(c.clock().now(), 0.0);  // write time charged
    // Everyone can read the full container after the collective finishes.
    CffReader reader(pfs, "par", ds->spec().nominal_cff_sample_bytes());
    EXPECT_EQ(reader.num_samples(), 30u);
    EXPECT_EQ(reader.num_subfiles(), 3u);
    for (std::uint64_t id = c.rank(); id < 30; id += 3) {
      EXPECT_EQ(reader.read(id, client), ds->make(id));
    }
  });
  EXPECT_EQ(pfs.list("par/").size(), 3u);
}

TEST(ParallelStaging, MatchesSerialStagingBytes) {
  const auto machine = dds::model::test_machine();
  fs::ParallelFileSystem serial_fs(machine.fs, 1);
  fs::ParallelFileSystem parallel_fs(machine.fs, 1);
  const auto ds = datagen::make_dataset(datagen::DatasetKind::Ising, 16, 4);
  CffWriter::stage(serial_fs, "x", *ds, 4);
  simmpi::Runtime rt(4, machine);
  rt.run([&](simmpi::Comm& c) {
    fs::FsClient client(parallel_fs, 0, c.clock(), c.rng());
    CffWriter::stage_parallel(c, client, parallel_fs, "x", *ds);
  });
  for (std::uint32_t sf = 0; sf < 4; ++sf) {
    const auto path = CffWriter::subfile_path("x", sf);
    EXPECT_EQ(serial_fs.read_file_raw(path), parallel_fs.read_file_raw(path))
        << "subfile " << sf;
  }
}

TEST(ParallelStaging, MoreRanksThanSamplesThrows) {
  const auto machine = dds::model::test_machine();
  fs::ParallelFileSystem pfs(machine.fs, 1);
  const auto ds = datagen::make_dataset(datagen::DatasetKind::Ising, 2, 4);
  simmpi::Runtime rt(4, machine);
  EXPECT_THROW(rt.run([&](simmpi::Comm& c) {
                 fs::FsClient client(pfs, 0, c.clock(), c.rng());
                 CffWriter::stage_parallel(c, client, pfs, "x", *ds);
               }),
               InternalError);
}

}  // namespace
}  // namespace dds::formats
