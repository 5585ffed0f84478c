// Tests for the DDStore design-space alternatives: the NVMe-staged backend
// and raw vs timed reads.
#include <gtest/gtest.h>

#include "datagen/dataset.hpp"
#include "formats/cff.hpp"
#include "train/backend.hpp"

namespace dds::core {
namespace {

using datagen::DatasetKind;
using model::test_machine;

constexpr std::uint64_t kSamples = 48;

class ModesTest : public ::testing::Test {
 protected:
  ModesTest()
      : machine_(test_machine()),
        fs_(machine_.fs, /*nnodes=*/2),
        ds_(datagen::make_dataset(DatasetKind::AisdHomoLumo, kSamples, 5)) {
    formats::CffWriter::stage(fs_, "cff", *ds_, 2);
    reader_ = std::make_unique<formats::CffReader>(
        fs_, "cff", ds_->spec().nominal_cff_sample_bytes());
  }

  fs::FsClient client_for(simmpi::Comm& c) {
    return fs::FsClient(fs_, machine_.node_of_rank(c.world_rank()), c.clock(),
                        c.rng());
  }

  model::MachineConfig machine_;
  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> ds_;
  std::unique_ptr<formats::CffReader> reader_;
};

TEST_F(ModesTest, NvmeBackendRoundTripAndWarmup) {
  fs::NvmeParams nvme;
  nvme.capacity_bytes = 1 << 20;
  fs::NvmeTier tier(nvme, 2);
  simmpi::Runtime rt(2, machine_);
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    const int node = machine_.node_of_rank(c.world_rank());
    train::NvmeStagedBackend backend(*reader_, client, tier, node);
    // Ranks share a node (and therefore the NVMe device), so each rank
    // works a disjoint id range — otherwise one rank's cold pass would
    // pre-warm the other's.
    const std::uint64_t lo = kSamples / 2 * static_cast<std::uint64_t>(c.rank());
    const std::uint64_t hi = lo + kSamples / 2;
    double cold = 0, warm = 0;
    {
      const double t0 = c.clock().now();
      for (std::uint64_t id = lo; id < hi; ++id) {
        EXPECT_EQ(backend.load(id), ds_->make(id));
      }
      cold = c.clock().now() - t0;
    }
    // Warm pass: same samples now resident on the node's device.
    {
      const double t0 = c.clock().now();
      for (std::uint64_t id = lo; id < hi; ++id) {
        EXPECT_EQ(backend.load(id), ds_->make(id));
      }
      warm = c.clock().now() - t0;
    }
    EXPECT_LT(warm, cold);
  });
}

TEST_F(ModesTest, RawReadsMatchTimedReads) {
  simmpi::Runtime rt(1, machine_);
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    for (std::uint64_t id = 0; id < kSamples; id += 5) {
      EXPECT_EQ(reader_->read_bytes_raw(id), reader_->read_bytes(id, client));
    }
  });
}

}  // namespace
}  // namespace dds::core
