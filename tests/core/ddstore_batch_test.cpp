// get_batch across both BatchFetchModes: request order is preserved
// (duplicates and all), repeated ids are fetched once, empty batches are
// no-ops, the coalesced planner counters add up, and — with fault injection
// armed — a failed coalesced transfer degrades to per-sample resilient
// fetches that deliver byte-identical samples.
#include <gtest/gtest.h>


#include "core/ddstore.hpp"
#include "datagen/dataset.hpp"
#include "faults/injector.hpp"
#include "formats/cff.hpp"

namespace dds::core {
namespace {

using datagen::DatasetKind;
using model::test_machine;

constexpr std::uint64_t kSamples = 64;

class DDStoreBatchTest : public ::testing::Test {
 protected:
  DDStoreBatchTest()
      : machine_(test_machine()),
        fs_(machine_.fs, /*nnodes=*/4),
        ds_(datagen::make_dataset(DatasetKind::AisdHomoLumo, kSamples, 7)) {
    formats::CffWriter::stage(fs_, "cff/ds", *ds_, 2);
  }

  fs::FsClient client_for(simmpi::Comm& c) {
    return fs::FsClient(fs_, machine_.node_of_rank(c.world_rank()), c.clock(),
                        c.rng());
  }

  formats::CffReader cff_reader() {
    return formats::CffReader(fs_, "cff/ds",
                              ds_->spec().nominal_cff_sample_bytes());
  }

  /// A request with duplicates, out-of-order ids, and every owner touched.
  static std::vector<std::uint64_t> dup_batch() {
    return {60, 3, 33, 3, 17, 60, 0, 63, 3};
  }

  void expect_request_order(const std::vector<graph::GraphSample>& batch,
                            const std::vector<std::uint64_t>& ids) {
    ASSERT_EQ(batch.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(batch[i], ds_->make(ids[i])) << "request slot " << i;
    }
  }

  model::MachineConfig machine_;
  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> ds_;
};

TEST_F(DDStoreBatchTest, AllModesPreserveRequestOrderWithDuplicates) {
  for (const auto mode :
       {BatchFetchMode::PerSample, BatchFetchMode::Coalesced}) {
    simmpi::Runtime rt(4, machine_);
    const auto reader = cff_reader();
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      DDStoreConfig cfg;
      cfg.batch_fetch = mode;
      DDStore store(c, reader, client, cfg);

      EXPECT_TRUE(store.get_batch({}).empty());

      const auto ids = dup_batch();
      const auto batch = store.get_batch(ids);
      expect_request_order(batch, ids);

      const auto& st = store.stats();
      // 9 requests over 6 unique ids: 3 duplicate hits, 9 decodes, and 6
      // fetches' worth of bytes (each unique id moved exactly once).
      EXPECT_EQ(st.batch_dup_hits, 3u);
      EXPECT_EQ(st.latency.count(), ids.size());
      EXPECT_EQ(st.local_gets + st.remote_gets, 6u);
      store.fence();
    });
  }
}

TEST_F(DDStoreBatchTest, CoalescedPlansOneTransferPerTarget) {
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.batch_fetch = BatchFetchMode::Coalesced;
    DDStore store(c, reader, client, cfg);

    // The whole dataset in one batch: Block placement => 4 targets, each
    // fully contiguous, so exactly 4 vectored transfers of 1 segment each.
    std::vector<std::uint64_t> ids(kSamples);
    for (std::uint64_t i = 0; i < kSamples; ++i) ids[i] = i;
    const auto batch = store.get_batch(ids);
    expect_request_order(batch, ids);

    const auto& st = store.stats();
    EXPECT_EQ(st.coalesced_transfers, 4u);
    EXPECT_EQ(st.coalesced_segments, 4u);
    EXPECT_EQ(st.lock_epochs, 4u);
    EXPECT_EQ(st.rma_transfers, 4u);
    EXPECT_EQ(st.lock_epochs_saved, kSamples - 4u);
    EXPECT_EQ(st.coalesced_fallbacks, 0u);
    EXPECT_EQ(st.coalesced_bytes, st.bytes_fetched);
    store.fence();
  });
}

TEST_F(DDStoreBatchTest, PerSampleCountsOneEpochPerFetch) {
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client);  // PerSample default
    const auto ids = dup_batch();
    (void)store.get_batch(ids);
    const auto& st = store.stats();
    EXPECT_EQ(st.lock_epochs, 6u);    // unique ids
    EXPECT_EQ(st.rma_transfers, 6u);
    EXPECT_EQ(st.lock_epochs_saved, 0u);
    store.fence();
  });
}

// Acceptance criterion: with fault injection armed, coalesced mode must
// produce byte-identical samples to per-sample mode under the same seed —
// failed or corrupted vectored transfers degrade to the per-sample
// resilient path and recover the true payloads.
TEST_F(DDStoreBatchTest, CoalescedDegradesToResilientFetchesUnderFaults) {
  faults::FaultConfig fc;
  fc.seed = 99;
  fc.rma_fail_prob = 0.10;
  fc.rma_corrupt_prob = 0.15;
  // Each rank only issues ~1 remote coalesced transfer per full-dataset
  // batch (its other target is itself), so sweep repeatedly to make the
  // degraded path statistically certain to fire.
  constexpr int kSweeps = 20;

  std::vector<std::vector<graph::GraphSample>> runs;
  std::uint64_t fallbacks = 0;
  std::uint64_t checksum_failures = 0;
  for (const auto mode :
       {BatchFetchMode::PerSample, BatchFetchMode::Coalesced}) {
    simmpi::Runtime rt(4, machine_);
    rt.set_fault_injector(std::make_shared<faults::FaultInjector>(fc, 4));
    const auto reader = cff_reader();
    std::vector<graph::GraphSample> mine;
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      DDStoreConfig cfg;
      cfg.batch_fetch = mode;
      cfg.width = 2;  // two replica groups: cross-group failover available
      DDStore store(c, reader, client, cfg);
      std::vector<std::uint64_t> ids(kSamples);
      for (std::uint64_t i = 0; i < kSamples; ++i) ids[i] = i;
      std::vector<graph::GraphSample> batch;
      for (int sweep = 0; sweep < kSweeps; ++sweep) {
        batch = store.get_batch(ids);
        expect_request_order(batch, ids);
      }
      store.fence();
      if (c.rank() == 0) mine = batch;
      if (mode == BatchFetchMode::Coalesced) {
        fallbacks += store.stats().coalesced_fallbacks;
        checksum_failures += store.stats().checksum_failures;
      }
    });
    runs.push_back(std::move(mine));
  }

  // Both modes recovered ground truth — so they are byte-identical to each
  // other — and the coalesced run genuinely exercised the degraded path.
  ASSERT_EQ(runs.size(), 2u);
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i], runs[1][i]) << "sample slot " << i;
  }
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(checksum_failures, 0u);
}

}  // namespace
}  // namespace dds::core
